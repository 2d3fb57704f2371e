"""tamecube benchmark: one workload, one seed, every timed run in a cold process.

    python3 perfbench/run.py --workload <verify_all|replace|sample_dense> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports tamecube from ``src/`` and
fails with exit code 2 when that is missing.  Each child process starts
from a fresh interpreter with an environment built from a short allow-list
(no tamecube settings pass through) and every BLAS/OpenMP pool pinned to
one thread, as one CLI call would run.

A repetition is one job of the workload (one CLI call or one replacement
case) on one input set of the seed, in its own process.

``--trace 0`` (closed loop, one client): one untimed warm-up process, then
repetitions cycling through every (input set, job) pair for ``--seconds``.
No repetition starts that would end after that, judged by the median
repetition so far, but every pair runs once and the first input set's jobs
twice, so that each job is compared with a repetition of itself.  It
reports:
  wall_s       the sum over pairs of the pair's median repetition time,
               divided by the number of input sets;
  setup_s      the mean over pairs of the pair's median time from spawn to
               the first timed call;
  peak_rss_mb  the largest over jobs of the job's median peak RSS.
Times are in reference seconds: scaled by the host's speed sampled during
the interval (hostspeed.py).  The unscaled times go on the ``detail`` line.

``--trace 1``: every job once untraced and once traced (the difference of
their sums is ``trace.overhead_s``; the traced ones give self time per
layer), then the two layer probes of ``layers.py``.  Spans are written to
``.bench_build/traces/``.

The last line of standard output is the JSON result; the lines before it
record the machine and the per-repetition detail.  Metric names and units
come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
from hostspeed import scaled
from spans import LAYERS, now, self_time_by_layer

HERE = Path(__file__).resolve().parent
# name -> (jobs, as in work.WORKLOADS; input sets).  The cost of a
# replacement depends on the random map (one n=3 case varies by about 9 %
# between seeds), so replace runs five input sets of the seed and reports
# their mean; the other workloads cost about the same for every seed.
WORKLOADS = {
    "verify_all": (("verify",), 1),
    "replace": (("n2", "n3"), 5),
    "sample_dense": (("deformation", "retraction", "extension"), 1),
}
LAST_START_S = 90  # start no repetition after this
DEADLINE_S = 170  # a child still running then is killed, so that a run ends within 180 s
ENV_KEEP = ("PATH", "HOME", "LANG", "LC_ALL")
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info(root: Path, numpy_version: str | None) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


class Runner:
    """Starts child processes for one workload and seed, and keeps the tally."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.work = root / ".bench_build" / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = {k: os.environ[k] for k in ENV_KEEP if k in os.environ}
        self.env.update({k: "1" for k in SINGLE_THREAD})
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(root / ".bench_build" / "pycache"),
        )
        self.deadline = now() + DEADLINE_S
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.numpy = None

    def launch(self, mode: str, trace: int = 0, inputs: int = 0, job: str | None = None) -> dict | None:
        """Run one child to completion; None if it crashed or timed out."""
        self.count += 1
        tag = f"{mode}-{self.count}"
        workdir, out, spans = self.work / tag, self.work / f"{tag}.json", self.work / f"{tag}.spans.json"
        workdir.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", self.workload,
               "--seed", str(self.seed), "--inputs", str(inputs), "--trace", str(trace),
               "--workdir", str(workdir), "--out", str(out)]
        if job is not None:
            cmd += ["--job", job]
        if trace:
            cmd += ["--spans", str(spans)]
        t_spawn = now()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            print(f"{tag}: killed at the run's {DEADLINE_S} s deadline", file=sys.stderr)
            return None
        if proc.returncode != 0 or not out.is_file():
            print(f"{tag}: exit code {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        res = json.loads(out.read_text(encoding="utf-8"))
        self.numpy = res["numpy"]
        if "t_ready" in res:
            res["setup_s"], res["setup_ref_s"] = scaled(res["speed_samples"], t_spawn, res["t_ready"])
        if "t_start" in res:
            res["wall_s"], res["wall_ref_s"] = scaled(res["speed_samples"], res["t_start"], res["t_end"])
        if trace:
            res["spans"] = json.loads(spans.read_text(encoding="utf-8"))
        return res

    def tally(self, res: dict | None, tag: str) -> None:
        """Count a child's operations; a crashed child is one failed operation."""
        if res is None:
            self.attempted += 1
            self.failed += 1
            return
        errors = res.get("op_errors", [[]])
        self.attempted += len(errors)
        for err in errors:
            if err:
                self.failed += 1
                print(f"{tag}: " + "; ".join(err), file=sys.stderr)

    def tally_repeat(self, first: dict | None, other: dict | None) -> None:
        """Counts and output digests repeat exactly between runs of one seed."""
        if first is None or other is None:
            return
        self.tally({"op_errors": [checks.counts_match(first["repeat"], other["repeat"])]}, "repeat")


def timed_run(r: Runner, seconds: float) -> dict:
    t_begin = now()
    r.tally(r.launch("setup"), "warm-up")  # compiles bytecode, fills the page cache; not measured
    jobs, input_sets = WORKLOADS[r.workload]
    pairs = [(inputs, job) for inputs in range(input_sets) for job in jobs]
    done: dict[tuple, list[dict]] = {pair: [] for pair in pairs}
    cycles, first = [], {}
    t_measure = now()
    # round robin over (input set, job) pairs: every pair once, then the
    # first input set's jobs again so that every job meets a repetition of
    # itself, then on while the time lasts
    while len(cycles) < len(pairs) + len(jobs) or (
        now() - t_measure + statistics.median(cycles) <= seconds and now() - t_begin < LAST_START_S
    ):
        pair = pairs[len(cycles) % len(pairs)]
        t_start = now()
        res = r.launch("rep", inputs=pair[0], job=pair[1])
        cycles.append(now() - t_start)
        r.tally(res, f"rep {len(cycles)} {pair}")
        if res is None:
            continue
        if pair in first:
            r.tally_repeat(first[pair], res)
        else:
            first[pair] = res
        done[pair].append(res)
    ok = [res for rs in done.values() for res in rs]
    metrics = {"_log": {
        "loop_s": statistics.median(d for res in ok for _, d in res["speed_samples"]) if ok else None,
        "rep_wall_s": {f"{i}.{j}": [round(res["wall_s"], 3) for res in rs] for (i, j), rs in done.items()},
        "rep_wall_ref_s": {f"{i}.{j}": [round(res["wall_ref_s"], 3) for res in rs] for (i, j), rs in done.items()},
    }}
    if all(done.values()):
        def per_pair(key: str) -> list[float]:
            return [statistics.median(res[key] for res in rs) for rs in done.values()]

        metrics["wall_s"] = sum(per_pair("wall_ref_s")) / input_sets
        metrics["setup_s"] = statistics.mean(per_pair("setup_ref_s"))
        metrics["_log"]["wall_unscaled_s"] = sum(per_pair("wall_s")) / input_sets
        metrics["_log"]["setup_unscaled_s"] = statistics.mean(per_pair("setup_s"))
        metrics["peak_rss_mb"] = max(
            statistics.median(res["peak_rss_mb"] for (_, j), rs in done.items() if j == job for res in rs)
            for job in jobs
        )
    return metrics


def traced_run(r: Runner) -> dict:
    r.tally(r.launch("setup"), "warm-up")
    metrics, spans, overhead = {}, {}, 0.0
    self_time = dict.fromkeys(LAYERS, 0.0)
    for job in WORKLOADS[r.workload][0]:
        plain = r.launch("rep", job=job)
        traced = r.launch("rep", trace=1, job=job)
        r.tally(plain, f"untraced {job}")
        r.tally(traced, f"traced {job}")
        r.tally_repeat(plain, traced)
        if plain is None or traced is None:
            overhead = None
            continue
        if overhead is not None:
            overhead += traced["wall_s"] - plain["wall_s"]
        spans[f"rep.{job}"] = traced["spans"]
        for layer, secs in self_time_by_layer(traced["spans"]).items():
            self_time[layer] += secs
    if overhead is not None:
        metrics["trace.overhead_s"] = overhead
        metrics.update({f"trace.self.{layer}_s": secs for layer, secs in self_time.items()})
    for mode in ("layers", "suites"):
        res = r.launch(mode, trace=1)
        r.tally(res, mode)
        if res is not None:
            metrics.update(res["metrics"])
            spans[mode] = res["spans"]
    metrics["_spans"] = spans
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "tamecube" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: run from the tamecube repository root (src/tamecube and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    r = Runner(root, args.workload, args.seed)
    try:
        measured = traced_run(r) if args.trace else timed_run(r, args.seconds)
    finally:
        shutil.rmtree(r.work, ignore_errors=True)
    info = machine_info(root, r.numpy)
    if args.trace:
        trace_dir = root / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans = measured.pop("_spans")
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"machine": info, "workload": args.workload, "seed": args.seed,
                        "metrics": measured, "spans": spans}, indent=1),
            encoding="utf-8",
        )
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in measured}
    print("machine " + json.dumps(info, sort_keys=True))
    if "_log" in measured:
        print("detail " + json.dumps(measured.pop("_log")))
    print(json.dumps({
        "correct": r.failed == 0 and not missing,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
