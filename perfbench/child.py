"""One cold benchmark process; ``run.py`` starts a fresh interpreter for each.

Modes:
  setup   build the workload's inputs from the seed, then stop;
  rep     build the inputs, run one job (the timed part), check its output;
  layers  the kernels/maps/checkers/constructions/cli probes (traced);
  suites  every suite cold then warm, and the verify report (traced).

The result goes to ``--out`` as JSON; spans go to ``--spans`` when tracing.
A failed check or an exception inside an operation is reported in the
result, not as a crash.  Untraced set-up and rep processes sample the host's
speed from their first line on (see hostspeed.py); tamecube is imported
only after the sampler has started, so set-up time is covered too.
"""

from __future__ import annotations

import argparse
import json
import resource
from pathlib import Path

from hostspeed import Sampler
from spans import Tracer, now


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "rep", "layers", "suites"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", type=int, default=0, help="which input set of the seed")
    ap.add_argument("--job", default=None, help="which job of the workload (default: the first)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    sampler = Sampler()
    if not args.trace and args.mode in ("setup", "rep"):
        sampler.start()

    import numpy as np

    import layers
    import work

    tr = Tracer(run_id=f"{args.mode}-{args.workload}-{args.seed}", enabled=bool(args.trace))
    result = {"numpy": np.__version__}
    if args.mode in ("layers", "suites"):
        probe = layers.layers_probe if args.mode == "layers" else layers.suites_probe
        metrics, errors = probe(args.seed, args.workdir, tr)
        result.update(metrics=metrics, op_errors=[errors])
    else:
        jobs, setup, run, check = work.WORKLOADS[args.workload]
        job = args.job or jobs[0]
        if job not in jobs:
            ap.error(f"unknown job {job!r} for {args.workload}; known: {list(jobs)}")
        state = setup(args.seed, args.inputs, job, args.workdir, tr)
        result["t_ready"] = now()
        sampler.sample()
        if args.mode == "rep":
            result["t_start"] = now()
            out = run(state, tr)
            result["t_end"] = now()
            sampler.sample()
            result["peak_rss_mb"] = _peak_rss_mb()
            errors, result["repeat"], result["counts"] = check(state, out)
            result["op_errors"] = [errors]
    sampler.stop()
    result["speed_samples"] = sampler.samples
    if args.spans is not None:
        args.spans.write_text(json.dumps(tr.spans), encoding="utf-8")
    args.out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
