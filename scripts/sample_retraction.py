#!/usr/bin/env python3
"""Export an approximate retraction to CSV and re-check containment from the file.

Builds the retraction of the n-cube onto its walls-plus-top boundary,
round-trips it through the text format and the CLI sampler, then reads
the CSV back and verifies every output row lies on the boundary complex.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from tamecube.cli import main as cli_main
from tamecube.cubes import dist_to_complex, j_complex
from tamecube.maps import parse_map, serialize_map
from tamecube.retract import RetractionParams, approx_retraction


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--grid", type=int, default=11)
    ap.add_argument("--out", default="retraction.csv")
    args = ap.parse_args()

    R = approx_retraction(RetractionParams.from_eps(args.n, args.eps))
    text = serialize_map(R)
    if parse_map(text) is not R:
        print("text format failed to round-trip", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "retraction.sexp"
        src.write_text(text, encoding="utf-8")
        rc = cli_main(["sample", "--map", str(src), "--grid", str(args.grid), "--out", args.out])
    if rc != 0:
        return rc

    data = np.loadtxt(args.out, delimiter=",", skiprows=1, ndmin=2)
    worst = dist_to_complex(j_complex(args.n), data[:, args.n :]).max()
    print(f"{len(data)} samples written to {args.out}; worst containment gap {worst:.2e}")
    return 0 if worst <= 1e-9 else 1


if __name__ == "__main__":
    raise SystemExit(main())
