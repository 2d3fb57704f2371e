"""The three benchmark workloads: seeded inputs, timed jobs, output checks.

A workload is a tuple of jobs and three functions.  ``setup(seed, inputs,
job, workdir, tr)`` builds what the job needs from input set number
``inputs`` of the seed; ``run(state, tr)`` is the timed part, one
operation, returning ``(value, errors)``; ``check(state, out)`` returns the
operation's failures, the values that must repeat exactly between runs of
the same job and inputs, and the count metrics.  A repetition runs one job
in a fresh process, as one CLI call does.  Only public tamecube calls appear
here, each inside a span named after its layer.
"""

from __future__ import annotations

import dataclasses
import traceback
from pathlib import Path

import numpy as np

import checks
from tamecube.cli import main
from tamecube.cubes import CubicalComplex, Face, boundary_complex, complex_grid
from tamecube.genmaps import random_map_admissible_on, random_tame_map
from tamecube.maps import serialize_map
from tamecube.replace import admissible_replace
from tamecube.retract import RetractionParams, approx_retraction, deformation_retraction_homotopy
from tamecube.tame import ToleranceConfig, check_admissible, extend_tame

REPLACE_EPS = 0.2
REPLACE_DIMS = (2, 3)
CHECK_GRIDS = (33, 65)
SAMPLE_TREES = (("deformation", 21), ("retraction", 17), ("extension", 41))
BUILD_SPANS = (
    "constructions.deformation_retraction_homotopy",
    "constructions.approx_retraction",
    "constructions.extend_tame",
)


def _attempt(fn, *args):
    """Run one operation; an exception makes it a failed operation, not a crash."""
    try:
        return fn(*args), []
    except Exception:  # noqa: BLE001 - any error is a failed operation
        return None, [traceback.format_exc(limit=3)]


def _maxabs(a, b) -> float:
    return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# verify_all: `tamecube verify --suite all --seed <seed>`, default configuration


def verify_setup(seed: int, inputs: int, job: str, workdir: Path, tr) -> dict:
    return {"seed": seed, "out": workdir / "report.json"}


def verify_run(state: dict, tr):
    argv = ["verify", "--suite", "all", "--seed", str(state["seed"]), "--out", str(state["out"])]
    with tr.span("cli.main", command="verify"):
        return _attempt(main, argv)


def verify_check(state: dict, out):
    rc, errors = out
    if errors:
        return errors, {}, {}
    text = state["out"].read_text(encoding="utf-8")
    masked = checks.mask_timestamp(text)
    counts = {"cli.verify.report_bytes": len(masked.encode("utf-8"))}
    return checks.verify_report(rc, text), {"report": checks.digest(masked), **counts}, counts


# ---------------------------------------------------------------------------
# replace: admissible_replace on the boundary of I^n relative to a seeded facet


def replace_cases(seed: int, inputs: int = 0) -> list[dict]:
    cases = []
    for i, n in enumerate(REPLACE_DIMS):
        rng = np.random.default_rng([seed, inputs, i])
        axis, side = int(rng.integers(1, n + 1)), int(rng.integers(0, 2))
        L = CubicalComplex(n, (Face(n, ((axis, side),)),))
        f = random_map_admissible_on(rng, n, L, REPLACE_EPS)
        cases.append(
            {"i": i, "n": n, "K": boundary_complex(n), "L": L, "f": f, "seed": int(rng.integers(2**31))}
        )
    return cases


def replace_setup(seed: int, inputs: int, job: str, workdir: Path, tr) -> dict:
    (case,) = [c for c in replace_cases(seed, inputs) if f"n{c['n']}" == job]
    return case


def replace_case(case: dict, tr) -> dict:
    """One replacement, then the criterion-5 checks on its result."""
    n, K, L, f, s = case["n"], case["K"], case["L"], case["f"], case["seed"]
    with tr.span("constructions.admissible_replace", n=n):
        g, H, trace = admissible_replace(f, K, L, REPLACE_EPS, ToleranceConfig(), seed=s)
    reports = {}
    for grid in CHECK_GRIDS:
        with tr.span("checkers.check_admissible", n=n, grid=grid):
            reports[grid] = check_admissible(g, K, REPLACE_EPS, ToleranceConfig(grid_res=grid), seed=s)
    f_unit = f.on_unit_box()
    with tr.span("maps.eval_many", what="endpoints", n=n):
        pts = complex_grid(K, 33)
        fk = f_unit.eval_many(pts)
        endpoints = max(
            _maxabs(H.slice(0.0).eval_many(pts), fk), _maxabs(H.slice(1.0).eval_many(pts), g.eval_many(pts))
        )
    with tr.span("maps.eval_many", what="relative", n=n):
        lpts = complex_grid(L, 33)
        fl = f_unit.eval_many(lpts)
        relative = max(
            _maxabs(H.map.eval_many(np.concatenate([lpts, np.full((len(lpts), 1), u)], axis=1)), fl)
            for u in (0.0, 0.25, 0.5, 0.75, 1.0)
        )
    return {"g": g, "trace": trace, "reports": reports, "endpoints": endpoints, "relative": relative}


def replace_run(state: dict, tr):
    return _attempt(replace_case, state, tr)


def tree_counts(root) -> tuple[int, int]:
    """(node objects reachable, structurally distinct subtrees) of a map tree."""
    canon_of_id: dict[int, int] = {}
    canon_of_key: dict[tuple, int] = {}

    def is_node(v) -> bool:
        return dataclasses.is_dataclass(v) and hasattr(v, "eval_many")

    def visit(node) -> int:
        hit = canon_of_id.get(id(node))
        if hit is not None:
            return hit
        key = [type(node).__name__]
        for fld in dataclasses.fields(node):
            v = getattr(node, fld.name)
            if is_node(v):
                key.append(visit(v))
            elif isinstance(v, tuple) and v and all(is_node(c) for c in v):
                key.append(tuple(visit(c) for c in v))
            else:
                key.append(repr(v))
        canon = canon_of_key.setdefault(tuple(key), len(canon_of_key))
        canon_of_id[id(node)] = canon
        return canon

    visit(root)
    return len(canon_of_id), len(canon_of_key)


def case_counts(result: dict) -> dict:
    steps = result["trace"].steps
    nodes, distinct = tree_counts(result["g"])
    return {
        "comparisons.g33": result["reports"][33].samples_checked,
        "comparisons.g65": result["reports"][65].samples_checked,
        "steps": len(steps),
        "retries": sum(s.retries for s in steps),
        "first_try": sum(1 for s in steps if s.retries == 0),
        "tree.nodes": nodes,
        "tree.distinct_nodes": distinct,
    }


def case_worsts(result: dict) -> dict:
    return {
        "final-admissible-33": result["trace"].final_report.worst_violation,
        **{f"admissible-{g}": r.worst_violation for g, r in result["reports"].items()},
        "endpoints": result["endpoints"],
        "relative-on-L": result["relative"],
    }


def case_errors(result: dict) -> list[str]:
    errors = checks.within_tol(case_worsts(result))
    return errors + [f"check_admissible grid {g} did not pass" for g, r in result["reports"].items() if not r.passed]


def replace_check(state: dict, out):
    res, errors = out
    if errors:
        return errors, {}, {}
    counts = case_counts(res)
    repeat = {**counts, **{k: repr(v) for k, v in case_worsts(res).items()}}
    return case_errors(res), repeat, counts


# ---------------------------------------------------------------------------
# sample_dense: `tamecube sample` of serialized seeded trees on dense grids


def sample_tree(seed: int, name: str, tr):
    """The deformation and the retraction have fixed widths, so their CSVs (the
    largest output, which sets the peak memory) are the same for every seed;
    the seed draws the map that extend_tame extends."""
    if name == "deformation":
        with tr.span("constructions.deformation_retraction_homotopy", n=3):
            return deformation_retraction_homotopy(3, 0.3).map
    if name == "retraction":
        with tr.span("constructions.approx_retraction", n=4):
            return approx_retraction(RetractionParams.from_eps(4, 0.2))
    f = random_tame_map(np.random.default_rng([seed, 101]), 3, 0.25, space_eps=0.375)
    with tr.span("constructions.extend_tame", n=3):
        return extend_tame(f, eps=0.25, sigma=0.1, seed=seed)


def sample_setup(seed: int, inputs: int, job: str, workdir: Path, tr) -> dict:
    """Build and serialize the tree the job samples."""
    tree = sample_tree(seed, job, tr)
    with tr.span("maps.serialize_map", tree=job):
        text = serialize_map(tree)
    path = workdir / f"{job}.map"
    path.write_text(text, encoding="utf-8")
    grid = dict(SAMPLE_TREES)[job]
    return {"job": job, "grid": grid, "n": tree.in_dim, "m": tree.out_dim, "map": path, "csv": workdir / f"{job}.csv"}


def sample_run(state: dict, tr):
    argv = ["sample", "--map", str(state["map"]), "--grid", str(state["grid"]), "--out", str(state["csv"])]
    with tr.span("cli.main", command="sample", tree=state["job"]):
        return _attempt(main, argv)


def sample_check(state: dict, out):
    rc, errors = out
    if errors or rc != 0:
        return errors or [f"sample exited with code {rc}"], {}, {}
    text = state["csv"].read_text(encoding="utf-8")
    state["csv"].unlink()
    errors = checks.csv_shape(text, state["n"], state["m"], state["grid"])
    if state["job"] == "retraction":
        errors += checks.rows_on_j(checks.csv_outputs(text, state["n"]))
    elif state["job"] == "deformation":
        errors += checks.rows_on_j(checks.csv_outputs(text, state["n"], last_input=1.0))
    counts = {"cli.sample.csv_bytes": len(text.encode("utf-8"))}
    return errors, {"csv": checks.digest(text), **counts}, counts


# name -> (jobs, setup, run, check)
WORKLOADS = {
    "verify_all": (("verify",), verify_setup, verify_run, verify_check),
    "replace": (tuple(f"n{n}" for n in REPLACE_DIMS), replace_setup, replace_run, replace_check),
    "sample_dense": (tuple(name for name, _ in SAMPLE_TREES), sample_setup, sample_run, sample_check),
}
