"""Layer probes for the traced run: drive each layer directly, timed by spans.

``layers_probe`` covers kernels, maps, checkers, constructions and the
``sample`` command; ``suites_probe`` runs every suite cold and then warm in
one fresh process, which is the cache state ``verify --suite all`` sees.
Both take their inputs from the seed, using the same generators as the
workloads, so their counts equal the workloads' counts for that seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks
from spans import duration, find
from tamecube.cli import main
from tamecube.kernels import lambda_many
from tamecube.maps import parse_map, serialize_map
from tamecube.suites import SuiteConfig, run_suite
from work import (
    BUILD_SPANS,
    SAMPLE_TREES,
    case_counts,
    case_errors,
    replace_case,
    replace_cases,
    sample_tree,
    verify_check,
    verify_run,
    verify_setup,
)

BIG = 200_000  # points for the cheap kernel bands
FRESH = 400  # transition-band points that miss every cache
REPEAT = 50  # the same fresh points again, tiled this many times
SMALL_BATCH, SMALL_CALLS = 128, 10  # checker-sized batches on a replace output
SERIALIZE_REPS = 20
SUITE_NAMES = ("kernels", "replace", "retract", "tame")  # sorted, as `all` runs them


def _grid(n: int, res: int) -> np.ndarray:
    mesh = np.meshgrid(*[np.linspace(0.0, 1.0, res)] * n, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _rate(tr, name: str, fn, X: np.ndarray, **attrs) -> float:
    with tr.span(name, points=len(X), **attrs) as rec:
        fn(X)
    return len(X) / duration(rec)


def kernels_probe(seed: int, tr) -> dict:
    rng = np.random.default_rng([seed, 202])
    sigma, tau = float(rng.uniform(0.05, 0.15)), float(rng.uniform(0.2, 0.4))
    smash = parse_map(f"(smash {sigma!r} {tau!r})")
    dyn = parse_map("smashdyn")
    half = FRESH // 2
    fresh = np.concatenate([rng.uniform(sigma, tau, half), rng.uniform(1 - tau, 1 - sigma, half)])
    sig = rng.uniform(0.05, 0.15, FRESH)
    tau_i = rng.uniform(0.2, 0.4, FRESH)
    low = sig + (tau_i - sig) * rng.uniform(0.0, 1.0, FRESH)
    t_dyn = np.where(np.arange(FRESH) < half, low, 1.0 - low)
    col = lambda ts: ts.reshape(-1, 1)  # noqa: E731
    return {
        "kernels.lambda.pts_per_s": _rate(tr, "kernels.lambda_many", lambda_many, rng.uniform(-0.5, 1.5, BIG)),
        "kernels.smash.flat.pts_per_s": _rate(
            tr, "kernels.smash", smash.eval_many,
            col(np.concatenate([rng.uniform(-0.2, sigma, BIG // 2), rng.uniform(1 - sigma, 1.2, BIG // 2)])),
            band="flat",
        ),
        "kernels.smash.identity.pts_per_s": _rate(
            tr, "kernels.smash", smash.eval_many, col(rng.uniform(tau, 1 - tau, BIG)), band="identity"
        ),
        "kernels.smash.transition_fresh.pts_per_s": _rate(
            tr, "kernels.smash", smash.eval_many, col(fresh), band="transition_fresh"
        ),
        "kernels.smash.transition_repeat.pts_per_s": _rate(
            tr, "kernels.smash", smash.eval_many, col(np.tile(fresh, REPEAT)), band="transition_repeat"
        ),
        "kernels.smashdyn.transition_fresh.pts_per_s": _rate(
            tr, "kernels.smashdyn", dyn.eval_many, np.stack([t_dyn, sig, tau_i], axis=1), band="transition_fresh"
        ),
    }


def replace_probe(seed: int, tr) -> tuple[dict, list[str], object]:
    """The first n=2 and n=3 cases of the replace workload, with their checks."""
    out, errors = {}, []
    steps = retries = first_try = 0
    for case in replace_cases(seed)[:2]:
        res = replace_case(case, tr)
        errors += case_errors(res)
        counts = case_counts(res)
        steps, retries, first_try = steps + counts["steps"], retries + counts["retries"], first_try + counts["first_try"]
        n = case["n"]
        (rep,) = find(tr.spans, "constructions.admissible_replace", n=n)
        out[f"constructions.admissible_replace.n{n}_s"] = duration(rep)
        if n == 3:
            checked = {g: duration(s) for g in (33, 65) for s in find(tr.spans, "checkers.check_admissible", n=3, grid=g)}
            comparisons = counts["comparisons.g33"] + counts["comparisons.g65"]
            out["checkers.check_admissible.g33_s"] = checked[33]
            out["checkers.check_admissible.g65_s"] = checked[65]
            out["checkers.comparisons"] = comparisons
            out["checkers.comparisons_per_s"] = comparisons / (checked[33] + checked[65])
            out["maps.tree.nodes"] = counts["tree.nodes"]
            out["maps.tree.distinct_nodes"] = counts["tree.distinct_nodes"]
            out["maps.tree.distinct_ratio"] = counts["tree.distinct_nodes"] / counts["tree.nodes"]
            g3 = res["g"]
    out["constructions.replace.steps"] = steps
    out["constructions.replace.retries"] = retries
    out["constructions.replace.first_try_ratio"] = first_try / steps
    return out, errors, g3


def maps_and_cli_probe(seed: int, workdir: Path, tr, g3) -> tuple[dict, list[str]]:
    out = {}
    rng = np.random.default_rng([seed, 303])
    with tr.span("maps.eval_many", what="small_batch", calls=SMALL_CALLS) as rec:
        for _ in range(SMALL_CALLS):
            g3.eval_many(rng.uniform(0.0, 1.0, (SMALL_BATCH, g3.in_dim)))
    out["maps.eval.small_batch.calls_per_s"] = SMALL_CALLS / duration(rec)

    trees = {name: sample_tree(seed, name, tr) for name, _ in SAMPLE_TREES}
    out["constructions.build_s"] = sum(duration(s) for name in BUILD_SPANS for s in find(tr.spans, name))
    retraction = trees["retraction"]
    out["maps.eval.big_batch.pts_per_s"] = _rate(
        tr, "maps.eval_many", retraction.eval_many, _grid(retraction.in_dim, 17), what="big_batch"
    )
    with tr.span("maps.serialize_map", reps=SERIALIZE_REPS) as rec:
        for _ in range(SERIALIZE_REPS):
            texts = [serialize_map(t) for t in trees.values()]
    out["maps.serialize_s"] = duration(rec) / SERIALIZE_REPS
    with tr.span("maps.parse_map", reps=SERIALIZE_REPS) as rec:
        for _ in range(SERIALIZE_REPS):
            for text in texts:
                parse_map(text)
    out["maps.parse_s"] = duration(rec) / SERIALIZE_REPS

    # `sample` of the deformation tree with the kernel caches already warm, so
    # that parse + eval measured apart match what the command does inside
    text = serialize_map(trees["deformation"])
    path, csv = workdir / "deformation.map", workdir / "deformation.csv"
    path.write_text(text, encoding="utf-8")
    grid = dict(SAMPLE_TREES)["deformation"]
    pts = _grid(trees["deformation"].in_dim, grid)
    trees["deformation"].eval_many(pts)
    with tr.span("maps.parse_map", what="sample") as parse_rec:
        tree = parse_map(text)
    with tr.span("maps.eval_many", what="sample") as eval_rec:
        tree.eval_many(pts)
    with tr.span("cli.main", command="sample") as cli_rec:
        rc = main(["sample", "--map", str(path), "--grid", str(grid), "--out", str(csv)])
    csv_text = csv.read_text(encoding="utf-8")
    csv.unlink()
    out["cli.sample.s"] = duration(cli_rec)
    out["cli.sample.format_s"] = duration(cli_rec) - duration(parse_rec) - duration(eval_rec)
    out["cli.sample.csv_bytes"] = len(csv_text.encode("utf-8"))
    errors = [] if rc == 0 else [f"sample exited with code {rc}"]
    errors += checks.csv_shape(csv_text, tree.in_dim, tree.out_dim, grid)
    return out, errors


def layers_probe(seed: int, workdir: Path, tr) -> tuple[dict, list[str]]:
    metrics = kernels_probe(seed, tr)
    replace_metrics, errors, g3 = replace_probe(seed, tr)
    more, cli_errors = maps_and_cli_probe(seed, workdir, tr, g3)
    return {**metrics, **replace_metrics, **more}, errors + cli_errors


def suites_probe(seed: int, workdir: Path, tr) -> tuple[dict, list[str]]:
    metrics, errors = {}, []
    for phase, suffix in (("cold", "s"), ("warm", "warm_s")):
        for name in SUITE_NAMES:
            with tr.span("suites.run_suite", suite=name, phase=phase) as rec:
                report = run_suite(SuiteConfig(suite=name, seed=seed))
            metrics[f"suites.{name}.{suffix}"] = duration(rec)
            if not report["passed"]:
                errors.append(f"suite {name} ({phase}) did not pass")
    state = verify_setup(seed, 0, "verify", workdir, tr)
    verify_errors, _, counts = verify_check(state, verify_run(state, tr))
    metrics.update(counts)
    return metrics, errors + verify_errors
