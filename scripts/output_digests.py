#!/usr/bin/env python3
"""Print one ``name sha256`` line per deterministic output of a checkout.

A change that must leave every output alone is checked by listing the
digests of the parent's files and of the change's and comparing them:

    python scripts/output_digests.py path/to/parent-checkout > parent.txt
    python scripts/output_digests.py . > change.txt
    diff parent.txt change.txt

The outputs, 42 in all:

- ``verify-<seed>``: the ``verify --suite all`` report at seeds 0, 3 and 7,
  its ``timestamp`` masked;
- ``sample-<seed>-<tree>``: the CSVs of the three ``sample_dense`` benchmark
  trees at seeds 1-3;
- ``replace-<seed>-<inputs>-n<n>``: the ``serialize_map`` text of the
  replaced map, the worst violations of the benchmark's ``replace`` case,
  the comparison counts (``samples_checked``) of its grid-33 and grid-65
  checks and of the replacement's final check, and the replacement's trace
  (``ReplacementTrace.to_json()``: per face its widths and the worst gap
  of its face check), at seeds 1-3, input sets 0-4, n = 2 and 3.

The checkout's ``src`` and ``perfbench`` go first on the import path.  The
inputs come from the benchmark's ``work.py``, which is only read; the files
the outputs are written to live in a temporary directory.
"""

import argparse
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

VERIFY_SEEDS = (0, 3, 7)
SEEDS = (1, 2, 3)
INPUT_SETS = range(5)


def outputs(workdir: Path) -> dict:
    """Output name -> a function that makes the output and returns its text."""
    import checks
    import spans
    import work
    from tamecube.maps import serialize_map

    tr = spans.Tracer("digests", enabled=False)

    def ran(run, state):
        _, errors = run(state, tr)
        if errors:
            raise RuntimeError("".join(errors))

    def verify(seed):
        state = work.verify_setup(seed, 0, "verify", workdir, tr)
        ran(work.verify_run, state)
        return checks.mask_timestamp(state["out"].read_text(encoding="utf-8"))

    def sample(seed, tree):
        state = work.sample_setup(seed, 0, tree, workdir, tr)
        ran(work.sample_run, state)
        text = state["csv"].read_text(encoding="utf-8")
        state["csv"].unlink()
        return text

    def replace(seed, inputs, n):
        res = work.replace_case(work.replace_setup(seed, inputs, f"n{n}", workdir, tr), tr)
        counts = {grid: r.samples_checked for grid, r in res["reports"].items()}
        counts["final"] = res["trace"].final_report.samples_checked
        trace = json.dumps(res["trace"].to_json())
        return "\n".join((serialize_map(res["g"]), repr(work.case_worsts(res)), repr(counts), trace))

    made = {f"verify-{s}": partial(verify, s) for s in VERIFY_SEEDS}
    made |= {f"sample-{s}-{t}": partial(sample, s, t) for s in SEEDS for t, _ in work.SAMPLE_TREES}
    made |= {
        f"replace-{s}-{i}-n{n}": partial(replace, s, i, n)
        for s in SEEDS
        for i in INPUT_SETS
        for n in work.REPLACE_DIMS
    }
    return made


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    root = Path(ap.parse_args().checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import checks

    with tempfile.TemporaryDirectory() as tmp:
        for name, make in outputs(Path(tmp)).items():
            print(name, checks.digest(make()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
