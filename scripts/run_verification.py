#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per property.

Runs ``tamecube verify --suite all`` with the given seed and grid, which
writes the JSON report, and prints a readable digest of that report.
A usage or I/O error (exit 2 or 3) is passed on without a digest.
"""

import argparse
import json
from pathlib import Path

from tamecube.cli import main as tamecube_main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--grid", type=int, default=33)
    ap.add_argument("--out", default="verification_report.json")
    args = ap.parse_args()

    argv = ["verify", "--suite", "all", "--seed", str(args.seed), "--grid", str(args.grid), "--out", args.out]
    code = tamecube_main(argv)
    if code in (2, 3):
        return code
    report = json.loads(Path(args.out).read_text(encoding="utf-8"))

    width = max(len(r["name"]) for r in report["results"])
    for r in report["results"]:
        status = "ok " if r["passed"] else "FAIL"
        print(f"{status} {r['name']:<{width}} worst={r['worst']:9.2e} tol={r['tol']:7.0e} {r['params']}")
    print(f"\n{len(report['results'])} properties, {report['failures']} failures -> {args.out}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
