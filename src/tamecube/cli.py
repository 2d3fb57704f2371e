"""Command-line entry point: verification suites, map sampling, schema version.

Exit codes: 0 all properties pass, 1 a property failed, 2 usage or parse
error, 3 I/O error.  Reports are JSON with sorted keys; the timestamp
lives in its own field so byte comparison modulo that field is stable
across runs with the same seed.

``sample`` shares its grid's slices of ``_EVAL_ROWS`` rows among the
workers of ``workers.count``, one per CPU this process may use and at most
one per slice: the caller and children from ``os.fork``, each pinned to a
CPU other than the caller's.  Each worker makes the text of its slices,
then writes each in turn to the file description they share, so the CSV
is byte for byte the one-worker CSV, for a regular file, a pipe or a
device.  With one slice, one CPU, no ``os.fork`` or another live Python
thread, the caller writes every slice itself.  A peak RSS read with
``getrusage(RUSAGE_SELF)`` counts the caller only, not its workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import workers
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
            fh.flush()  # before any worker writes to the file description they share
            tagged = _write_grid(f, args.grid, total, fh, held)
    except OSError as exc:
        print(f"tamecube sample: cannot write CSV: {exc}", file=sys.stderr)
        return 3
    except BaseException as exc:
        # no partial CSV; a device or a link such as /dev/stdout stays
        if out.is_file() and not out.is_symlink():
            out.unlink()
        if not isinstance(exc, TameCubeError):
            raise
        print(f"tamecube sample: {exc}", file=sys.stderr)
        return 2
    # each worker shows a warning once; the grid shows it once, from its first slice
    shown = set()
    for _, message, category, filename, lineno in sorted(tagged, key=lambda t: t[0]):
        if (key := (str(message), category, filename, lineno)) not in shown:
            shown.add(key)
            warnings.warn_explicit(message, category, filename, lineno)
    return 0


_GO, _STOP = b"g", b"s"


def _write_grid(f, grid: int, total: int, fh, held: list) -> list[tuple]:
    """Write the rows of the ``grid``^n grid to ``fh`` from ``workers.count`` workers.

    The grid's slices of ``_EVAL_ROWS`` rows are shared among ``w``
    workers, the caller and ``w - 1`` forked children: worker ``i`` takes the
    slices ``k`` with ``k % w == i``, and the caller also those of a worker
    whose fork failed.  ``ring[i]`` is a pipe that carries worker ``i``'s
    turns (``_take_turns``).  Each child pins itself to a CPU other than the
    caller's.  Returns numpy's warnings, each tagged with its slice; raises
    the error of the first slice in row order that fails.
    """
    w = workers.count(-(-total // _EVAL_ROWS))
    ring = [os.pipe() for _ in range(w)]
    ends = {fd for pair in ring for fd in pair}
    cpus = _other_cpus()
    children = {}  # pid -> read end of its result pipe

    def child(i: int) -> list[tuple]:
        _keep_ends(ring, w, (i,))
        if cpus:
            try:
                os.sched_setaffinity(0, {cpus[(i - 1) % len(cpus)]})
            except OSError:
                pass  # a CPU that is not there after all: the kernel places the worker
        return _take_turns(f, grid, total, fh, ring, w, (i,), held)

    try:
        workers.fork(children, w, child)
        mine = (0, *range(len(children) + 1, w))
        ends = _keep_ends(ring, w, mine)
        tagged = _take_turns(f, grid, total, fh, ring, w, mine, held)
        for payload in workers.results(children):
            if payload is None:
                raise RuntimeError("a sample worker ended without a result")
            tagged += payload
        return tagged
    finally:
        for fd in ends:
            os.close(fd)
        workers.reap(children)


def _other_cpus() -> list[int]:
    """The CPUs this process may use other than the one it runs on, field 39
    of ``/proc/self/stat``; none where either is unknown."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
        return sorted(os.sched_getaffinity(0) - {cpu})
    except (AttributeError, OSError, IndexError, ValueError):
        return []


def _keep_ends(ring: list[tuple[int, int]], w: int, mine: tuple[int, ...]) -> set[int]:
    """Close every end of ``ring`` but those of the workers ``mine``: the read
    end of ``ring[i]`` and the write end of ``ring[(i + 1) % w]`` for each ``i``
    of them.  Returns the ends kept."""
    kept = {ring[i][0] for i in mine} | {ring[(i + 1) % w][1] for i in mine}
    for fd in {fd for pair in ring for fd in pair} - kept:
        os.close(fd)
    return kept


def _take_turns(
    f, grid: int, total: int, fh, ring: list[tuple[int, int]], w: int, mine: tuple[int, ...], held: list
) -> list[tuple]:
    """Write to ``fh``, in row order, the CSV text of each slice ``k`` with ``k % w`` in ``mine``.

    A slice's text is made first.  It is written once a token on
    ``ring[k % w]`` says that slices 0 to ``k - 1`` are written, and dropped;
    then the token for slice ``k + 1`` goes to ``ring[(k + 1) % w]``.  A
    token that says stop, or a ring pipe with no writer left, ends the turns
    with nothing more written.  The error of a slice that could not be made
    or written is passed on as stop and raised once its turn has come, so
    only the first in row order is raised.  Returns numpy's warnings, as
    ``(slice, message, category, filename, lineno)``.
    """
    count = -(-total // _EVAL_ROWS)
    tagged = []
    for k in sorted(k for i in mine for k in range(i, count, w)):
        seen, error = len(held), None
        try:
            text = _slice_text(f, grid, total, k)
        except Exception as exc:
            text, error = None, exc
        tagged += [(k, m.message, m.category, m.filename, m.lineno) for m in held[seen:]]
        turn = k == 0 or os.read(ring[k % w][0], 1) == _GO
        if turn and error is None:
            try:
                fh.write(text)
                fh.flush()
            except Exception as exc:
                error = exc
        text = None
        if k + 1 < count:
            try:
                os.write(ring[(k + 1) % w][1], _GO if turn and error is None else _STOP)
            except BrokenPipeError:
                pass  # the worker of slice k + 1 has ended without it
        if not turn:
            break
        if error is not None:
            raise error
    return tagged


def _slice_text(f, grid: int, total: int, k: int) -> str:
    """The CSV lines of slice ``k`` of the ``grid``^n grid, rows ``k * _EVAL_ROWS`` on."""
    start = k * _EVAL_ROWS
    pts, cells = _grid_slice(grid, f.in_dim, start, min(start + _EVAL_ROWS, total))
    return _csv_lines(cells, f.eval_many(pts))


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
