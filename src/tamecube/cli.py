"""Command-line entry point: verification suites, map sampling, schema version.

Exit codes: 0 all properties pass, 1 a property failed, 2 usage or parse
error, 3 I/O error.  Reports are JSON with sorted keys; the timestamp
lives in its own field so byte comparison modulo that field is stable
across runs with the same seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import TameCubeError
from .maps import _EVAL_ROWS, parse_map
from .suites import SuiteConfig, report_schema_version, run_suite
from .tame import ToleranceConfig

__all__ = ["main", "console_main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tamecube")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag left out is absent from args, so its field keeps the config's default
    verify = sub.add_parser("verify", help="run a named verification suite", argument_default=argparse.SUPPRESS)
    verify.add_argument("--suite", required=True, help="suite name or 'all'")
    verify.add_argument("--n", dest="ns", metavar="N", help="comma-separated dimensions")
    verify.add_argument("--eps", dest="eps_list", metavar="EPS", help="comma-separated widths")
    verify.add_argument("--grid", dest="grid_res", metavar="GRID", type=int)
    verify.add_argument("--eq-tol", type=float)
    verify.add_argument("--deriv-tol", type=float)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--out", default=None, help="write the JSON report here")

    sample = sub.add_parser("sample", help="sample a map expression to CSV")
    sample.add_argument("--map", required=True, help="map expression or path to a file holding one")
    sample.add_argument("--grid", type=int, default=33)
    sample.add_argument("--out", required=True)

    sub.add_parser("schema", help="print the report schema version")
    return parser


def _given(cls, opts: dict) -> dict:
    """The entries of ``opts`` that name a field of the dataclass ``cls``."""
    return {f.name: opts[f.name] for f in fields(cls) if f.name in opts}


def _cmd_verify(args) -> int:
    opts = dict(vars(args))
    try:
        for key, kind in (("ns", int), ("eps_list", float)):  # comma-separated lists
            if key in opts:
                opts[key] = tuple(kind(x) for x in opts[key].split(",") if x)
        cfg = SuiteConfig(**_given(SuiteConfig, opts), tolerances=ToleranceConfig(**_given(ToleranceConfig, opts)))
    except (TameCubeError, ValueError) as exc:
        print(f"tamecube verify: {exc}", file=sys.stderr)
        return 2
    report = run_suite(cfg)
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"tamecube verify: cannot write report: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


def _cmd_sample(args) -> int:
    source = args.map
    path = Path(source)
    try:
        is_file = path.is_file()
    except OSError:
        # e.g. an inline expression longer than the file-name limit
        is_file = False
    try:
        if is_file:
            source = path.read_text(encoding="utf-8")
        f = parse_map(source)
        if args.grid < 2:
            raise ValueError("grid must be at least 2")
        total = 1
        for _ in range(f.in_dim):  # stops within 63 steps, unlike grid**in_dim
            total *= args.grid
            if total > np.iinfo(np.intp).max:
                raise ValueError(f"a grid of {args.grid}^{f.in_dim} rows is too large to index")
    except OSError as exc:
        print(f"tamecube sample: cannot read map file: {exc}", file=sys.stderr)
        return 3
    except (TameCubeError, ValueError) as exc:  # a file that is not UTF-8 is a ValueError too
        print(f"tamecube sample: {exc}", file=sys.stderr)
        return 2
    n, m = f.in_dim, f.out_dim
    header = ",".join([f"t{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, m + 1)])
    out = Path(args.out)
    try:
        # numpy's warnings wait until the grid is written: eval_many's message
        # alone reports a value that is not finite, while an overflow inside
        # the tree that still ends in a finite value warns as before
        with warnings.catch_warnings(record=True) as held, out.open("w", encoding="utf-8", newline="\n") as fh:
            warnings.simplefilter("default")
            fh.write(header + "\n")
            for i in range(0, total, _EVAL_ROWS):
                pts, cells = _grid_slice(args.grid, n, i, min(i + _EVAL_ROWS, total))
                fh.write(_csv_lines(cells, f.eval_many(pts)))
    except TameCubeError as exc:
        # no partial CSV; a device or a link such as /dev/stdout stays
        if out.is_file() and not out.is_symlink():
            out.unlink()
        print(f"tamecube sample: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tamecube sample: cannot write CSV: {exc}", file=sys.stderr)
        return 3
    for w in held:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return 0


def _grid_slice(grid: int, n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows start to stop - 1 of the row-major ``grid``^n grid on [0, 1]^n, the last axis fastest.

    Returns the points and their text cells, each coordinate written as
    ``%.17g`` and followed by a comma.  Coordinate k of an axis is
    ``k * (1 / (grid - 1))`` and exactly 1.0 at ``k = grid - 1``, as
    ``np.linspace(0.0, 1.0, grid)`` computes it.  Per axis, only the
    coordinates these rows use are computed and formatted, once each, so
    work and memory are bounded by the rows whatever ``grid`` is.
    """
    idx = np.arange(start, stop)
    pts = np.empty((stop - start, n))
    cells = np.empty((stop - start, n), dtype=object)
    step = 1.0 / (grid - 1)
    for a in range(n):
        stride = grid ** (n - 1 - a)
        # the rows' runs of this axis are first .. last; run q has coordinate q % grid
        first, last = start // stride, (stop - 1) // stride
        keys = (first + np.arange(min(grid, last - first + 1))) % grid
        values = np.where(keys == grid - 1, 1.0, keys * step)
        pos = (idx // stride - first) % grid
        pts[:, a] = values[pos]
        cells[:, a] = np.array(["%.17g," % v for v in values.tolist()], dtype=object)[pos]
    return pts, cells


def _csv_lines(cells: np.ndarray, block: np.ndarray) -> str:
    """The CSV lines of rows that begin with the text ``cells`` and end with the values of ``block``.

    Each of ``cells`` already ends in a comma.  Each distinct value of a
    column of ``block`` is formatted once as ``%.17g``; values are told
    apart by their bits, so ``-0.0`` and ``0.0`` stay apart.  The lines
    are one join over the row-major cells.
    """
    n = cells.shape[1]
    width = n + block.shape[1]
    table = np.empty((len(block), width), dtype=object)
    table[:, :n] = cells
    for j, col in enumerate(block.T, n):
        bits, inverse = np.unique(col.view(np.uint64), return_inverse=True)
        end = "\n" if j == width - 1 else ","
        table[:, j] = np.array(["%.17g%s" % (v, end) for v in bits.view(np.float64).tolist()], dtype=object)[inverse]
    return "".join(table.ravel().tolist())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "schema":
        print(report_schema_version())
        return 0
    return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
