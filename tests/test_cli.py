import errno
import io
import json
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

import numpy as np
import pytest

from tamecube.cli import _csv_lines, _grid_slice, main
from tamecube.cubes import Box, box_grid
from tamecube import suites
from tamecube.errors import DomainError, ReplacementError
from tamecube.maps import _EVAL_ROWS, Homotopy, SmoothMap, parse_map
from tamecube.suites import SuiteConfig, report_schema_version
from tamecube.tame import ToleranceConfig


def test_schema_version(capsys):
    assert main(["schema"]) == 0
    assert capsys.readouterr().out.strip() == report_schema_version() == "1.1.0"


def test_module_entry_point_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "tamecube.cli", "schema"], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "1.1.0"


def test_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_bad_arguments_exit_2():
    assert main(["verify"]) == 2
    assert main(["frobnicate"]) == 2
    # usage errors in the numeric flags, not failed properties
    for flags in (["--eps", "0.6"], ["--eps", "0"], ["--eq-tol", "-1"], ["--n", ""], ["--eps", ""], ["--seed", "-1"]):
        assert main(["verify", "--suite", "retract", *flags]) == 2


def test_repeated_dimension_or_width_is_usage_error(tmp_path, capsys):
    # a repeated value would run and report each of its rows twice
    out = tmp_path / "r.json"
    cases = ((["--n", "1,1"], "dimensions must not repeat"), (["--eps", "0.1,0.1"], "widths must not repeat"))
    for flags, message in cases:
        assert main(["verify", "--suite", "retract", *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_infinite_tolerance_is_usage_error(tmp_path, capsys):
    # an infinite eq_tol would pass every eq_tol gate and write "Infinity" into the report
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "tame", "--eq-tol", "inf", "--out", str(out)]) == 2
    assert "tolerances must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_suites_evaluate_time_slices_as_rows(monkeypatch):
    # each time-slice row appends the time column to its points and evaluates
    # the homotopy once; a construction may still slice
    slice_ = Homotopy.slice

    def guarded(self, u):
        assert sys._getframe(1).f_globals["__name__"] != "tamecube.suites", "a suite sliced a homotopy"
        return slice_(self, u)

    monkeypatch.setattr(Homotopy, "slice", guarded)
    assert suites.run_suite(SuiteConfig("all"))["passed"]


@contextmanager
def _cpus(cpus=2, forks_that_work=None):
    """Report ``cpus`` CPUs to this process and count its forks; yields the
    list of the forks' pids.  With ``forks_that_work``, each fork after that
    many fails for want of a process.  On leaving, no child is left."""
    fork, forks = os.fork, []

    def counted():
        if forks_that_work is not None and len(forks) >= forks_that_work:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = fork()
        forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        patch.setattr(os, "cpu_count", lambda: cpus)
        patch.setattr(os, "fork", counted)
        yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _forked_workers(in_worker=None, in_caller=None):
    """Run ``run_suite`` on two workers, the caller and one forked child, as on
    two CPUs.  The caller's first suite waits until the child has begun one,
    so both run suites.  ``in_worker(name)`` and ``in_caller(name)``, if
    given, run before each suite in that process.  Yields a list that gets
    the name of the child's first suite; on leaving, no child is left."""
    caller, began = os.getpid(), []
    wait, signal = os.pipe()

    def shared(name, suite):
        def run(cfg):
            if os.getpid() != caller:
                os.write(signal, f"{name}\n".encode())
                if in_worker:
                    in_worker(name)
            else:
                if forks and not began and select.select([wait], [], [], 60)[0]:
                    began.append(os.read(wait, 64).decode().split("\n")[0])
                if in_caller:
                    in_caller(name)
            return suite(cfg)

        return run

    try:
        with _cpus() as forks, pytest.MonkeyPatch.context() as patch:
            for name, suite in list(suites.SUITES.items()):
                patch.setitem(suites.SUITES, name, shared(name, suite))
            yield began
            assert len(forks) == 1 and began
    finally:
        os.close(wait)
        os.close(signal)


def _in_process_rows(cfg: SuiteConfig) -> str:
    names = sorted(suites.SUITES) if cfg.suite == "all" else [cfg.suite]
    return json.dumps([r.to_json() for name in names for r in suites._run_one(name, cfg)])


def _raises(exc):
    def run(*args):
        raise exc

    return run


def _first_suite_raises(exc):
    ran = []

    def in_worker(name):
        ran.append(name)
        if len(ran) == 1:
            raise exc

    return in_worker


def test_forked_workers_give_the_in_process_rows():
    for seed in (0, 3, 7):
        cfg = SuiteConfig("all", seed=seed)
        expected = _in_process_rows(cfg)
        with _forked_workers():
            report = suites.run_suite(cfg)
        assert json.dumps(report["results"]) == expected


def test_package_error_in_a_worker_is_its_suites_failing_row():
    with _forked_workers(in_worker=_first_suite_raises(ReplacementError("no extension"))) as began:
        report = suites.run_suite(SuiteConfig("all"))
    failed = [r for r in report["results"] if not r["passed"]]
    assert failed == [
        {"name": f"{began[0]}-error", "params": {"error": "ReplacementError: no extension"}, "worst": 1.0, "tol": 0.0, "passed": False}
    ]
    assert report["failures"] == 1


def test_other_error_in_a_worker_is_raised_in_the_caller():
    with _forked_workers(in_worker=_first_suite_raises(ValueError("broken in the worker"))):
        with pytest.raises(ValueError) as raised:
            suites.run_suite(SuiteConfig("all"))
    assert raised.type is ValueError and str(raised.value) == "broken in the worker"


def test_worker_that_ends_without_a_result_names_its_suite():
    with _forked_workers(in_worker=lambda name: os._exit(1)) as began:
        with pytest.raises(RuntimeError) as raised:
            suites.run_suite(SuiteConfig("all"))
    assert str(raised.value) == f"a suite worker ended without a result; suites not run: {began[0]}"


def test_error_in_the_callers_suite_leaves_no_worker():
    with _forked_workers(in_caller=_raises(ValueError("broken in the caller"))):
        with pytest.raises(ValueError, match="^broken in the caller$"):
            suites.run_suite(SuiteConfig("all"))


@contextmanager
def _in_process_only(monkeypatch, case: str):
    """Set up ``case``, in which the caller alone must do the work: a live
    helper thread, one CPU by affinity or by ``os.cpu_count()`` with no
    ``os.sched_getaffinity``, no ``os.fork``, or a fork that fails for want of
    a process.  In any other case ``os.fork`` fails the test if called."""
    cpus = 1 if case.startswith("one-cpu") else 2
    if case == "one-cpu-count":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif case == "fork-fails":
        monkeypatch.setattr(os, "fork", _raises(OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))))
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    if case == "helper-thread":
        helper.start()
    try:
        yield
    finally:
        stop.set()
        if case == "helper-thread":
            helper.join()


IN_PROCESS_CASES = ["helper-thread", "one-cpu", "one-cpu-count", "no-fork", "fork-fails"]


@pytest.mark.parametrize("case", [*IN_PROCESS_CASES, "one-suite"])
def test_suites_run_in_process_where_no_worker_is_wanted(monkeypatch, case):
    # the same report from the caller alone, with os.fork never called, or
    # failing for want of a process
    cfg = SuiteConfig("kernels" if case == "one-suite" else "all", seed=3)
    expected = _in_process_rows(cfg)
    with _in_process_only(monkeypatch, case):
        report = suites.run_suite(cfg)
    assert json.dumps(report["results"]) == expected


def test_verify_kernels_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "kernels", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == "1.1.0"
    assert rep["passed"] is True
    assert rep["config"]["seed"] == 3
    assert "timestamp" in rep
    names = {r["name"] for r in rep["results"]}
    assert "lambda-symmetry" in names and "smash-F-interior" in names


def test_verify_all_rows_unique(tmp_path):
    out = tmp_path / "all.json"
    assert main(["verify", "--suite", "all", "--seed", "2", "--out", str(out)]) == 0
    keys = [(r["name"], json.dumps(r["params"], sort_keys=True)) for r in json.loads(out.read_text())["results"]]
    assert len(keys) == len(set(keys))


def test_verify_construction_error_is_a_failing_row(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ReplacementError("extension over face t1=0 (dim 1) failed")

    monkeypatch.setattr(suites, "admissible_replace", broken)
    out = tmp_path / "all.json"
    assert main(["verify", "--suite", "all", "--seed", "0", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    failed = [r for r in rep["results"] if not r["passed"]]
    assert failed == [
        {
            "name": "replace-error",
            "params": {"error": "ReplacementError: extension over face t1=0 (dim 1) failed"},
            "worst": 1.0,
            "tol": 0.0,
            "passed": False,
        }
    ]
    assert rep["failures"] == 1 and rep["passed"] is False
    assert {r["name"].split("-")[0] for r in rep["results"]} >= {"lambda", "retraction", "taming"}


def test_verify_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "retract", "--seed", "11", "--out", str(a)]) == 0
    assert main(["verify", "--suite", "retract", "--seed", "11", "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timestamp")
    rb.pop("timestamp")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_verify_write_failure_is_io_error(tmp_path):
    target = tmp_path / "missing-dir" / "r.json"
    rc = main(["verify", "--suite", "kernels", "--out", str(target)])
    assert rc == 3


def test_sample_lambda_csv(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["sample", "--map", "(lambda (coord 1))", "--grid", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t1,y1"
    assert lines[1] == "0,0"
    assert len(lines) == 6
    assert float(lines[3].split(",")[1]) == pytest.approx(0.5)


def test_sample_from_file_and_row_major_order(tmp_path):
    src = tmp_path / "map.sexp"
    src.write_text("(tuple (coord 1) (coord 2))", encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["sample", "--map", str(src), "--grid", "3", "--out", str(out)]) == 0
    rows = [tuple(float(v) for v in line.split(",")) for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 9
    # last axis varies fastest
    assert [r[1] for r in rows[:3]] == [0.0, 0.5, 1.0]
    assert rows[0][0] == 0.0 and rows[3][0] == 0.5


def test_sample_long_inline_expression(tmp_path):
    # longer than the file-name limit, so it cannot be probed as a path
    expr = "(sum " + " ".join(["(lambda (coord 1))"] * 24) + ")"
    assert len(expr) > 400
    out = tmp_path / "long.csv"
    assert main(["sample", "--map", expr, "--grid", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["0,0", "0.5,12", "1,24"]


def test_sample_parse_error_exit_2(tmp_path, capsys):
    rc = main(["sample", "--map", "(lambda (coord", "--grid", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "missing ')'" in capsys.readouterr().err


def test_sample_dimension_error_exit_2(tmp_path):
    rc = main(
        ["sample", "--map", "(compose gamma (tuple (coord 1) (coord 2)))", "--grid", "3", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2


def test_sample_non_finite_number_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["sample", "--map", "(affine [[1e400]] [0.0])", "--grid", "3", "--out", str(out)])
    assert rc == 2
    assert "in (affine ...)" in capsys.readouterr().err
    assert not out.exists()


def test_sample_io_error_exit_3(tmp_path):
    rc = main(["sample", "--map", "(coord 1)", "--grid", "3", "--out", str(tmp_path / "no" / "x.csv")])
    assert rc == 3


def test_sample_map_file_not_utf8_exit_2_and_no_file(tmp_path, capsys):
    # a usage error with one message line, not a traceback and exit 1
    src = tmp_path / "bad.map"
    src.write_bytes(b"(coord 1)\xff")
    out = tmp_path / "bad.csv"
    assert main(["sample", "--map", str(src), "--grid", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tamecube sample: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "expr, grid",
    [
        ("(compose recip (coord 1))", 3),  # fails in the first slice, at t = 0
        ("(compose recip (affine [[-1]] [1]))", 20000),  # fails only at t = 1, in the last slice
    ],
)
def test_sample_evaluation_error_exit_2_and_no_file(tmp_path, capsys, expr, grid):
    out = tmp_path / "x.csv"
    assert main(["sample", "--map", expr, "--grid", str(grid), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "tamecube sample: recip requires strictly positive input\n"
    assert not out.exists()


def test_sample_non_finite_value_exit_2_and_no_file(tmp_path, capsys):
    # 1e308 * (1 + t) overflows to +inf for t > 0.8; numpy's overflow warning,
    # which this suite turns into an error, is not shown beside the message
    out = tmp_path / "x.csv"
    for grid, point in ((17, "0.8125"), (5, "1.0")):
        rc = main(["sample", "--map", "(affine [[1e308]] [1e308])", "--grid", str(grid), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"tamecube sample: value at point ({point},) is not finite\n"
        assert not out.exists()


def test_sample_overflow_to_a_finite_value_still_warns(tmp_path):
    # the affine node overflows to inf for t > 0.8 and recip turns it into 0.0
    out = tmp_path / "x.csv"
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = main(["sample", "--map", "(compose recip (affine [[1e308]] [1e308]))", "--grid", "5", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[-1] == "1,0"


def _reference_csv(pts, vals):
    """The CSV as a per-value f-string loop writes it."""
    return "".join(",".join(f"{v:.17g}" for v in list(row) + list(val)) + "\n" for row, val in zip(pts, vals))


def test_csv_lines_matches_per_value_formatting():
    col = [0.0, -0.0, 5e-324, 1e-300, 0.1 + 0.2, np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 0.1 + 0.2, 5e-324]
    block = np.array([col, col[::-1], [7.0] * len(col)]).T
    text = _csv_lines(np.empty((len(col), 0), dtype=object), block)
    assert text == _reference_csv(block[:, :2], block[:, 2:])
    assert text.splitlines()[:2] == ["0,4.9406564584124654e-324,7", "-0,0.30000000000000004,7"]
    # leading text cells come first, as given
    cells = np.array([[f"{k}," for k in range(len(col))]], dtype=object).T
    assert _csv_lines(cells, block[:, 2:]) == "".join(f"{k},7\n" for k in range(len(col)))


def test_sample_across_a_slice_boundary_matches_reference(tmp_path):
    expr = "(tuple (coord 1) (lambda (coord 2)))"
    out = tmp_path / "s.csv"
    assert main(["sample", "--map", expr, "--grid", "129", "--out", str(out)]) == 0
    pts = box_grid(Box(((0.0, 1.0),) * 2), 129)
    assert len(pts) == 16641 > _EVAL_ROWS
    expected = "t1,t2,y1,y2\n" + _reference_csv(pts, parse_map(expr).eval_many(pts))
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize(
    "expr, grid",
    [
        ("(tuple (coord 2) (lambda (coord 3)))", 41),  # 16,384 rows cut runs of t1 (1,681 rows) and t2 (41)
        ("(tuple (coord 4) (lambda (coord 1)) (sum (coord 2) (coord 3)))", 17),  # and of t1, t2, t3 (4,913, 289, 17)
    ],
)
def test_sample_where_slices_cut_runs_matches_reference(tmp_path, expr, grid):
    f = parse_map(expr)
    out = tmp_path / "s.csv"
    assert main(["sample", "--map", expr, "--grid", str(grid), "--out", str(out)]) == 0
    pts = box_grid(Box(((0.0, 1.0),) * f.in_dim), grid)
    assert len(pts) > 4 * _EVAL_ROWS
    header = ",".join([f"t{i}" for i in range(1, f.in_dim + 1)] + [f"y{i}" for i in range(1, f.out_dim + 1)])
    assert out.read_bytes() == (header + "\n" + _reference_csv(pts, f.eval_many(pts))).encode("utf-8")


def _assert_grid_slice(grid, n, start, stop):
    """``_grid_slice`` gives the rows of the ``np.linspace`` grid and their ``%.17g`` text."""
    axis = np.linspace(0.0, 1.0, grid)
    want = axis[np.stack(np.unravel_index(np.arange(start, stop), (grid,) * n), axis=1)]
    pts, cells = _grid_slice(grid, n, start, stop)
    assert pts.shape == cells.shape == (stop - start, n)
    assert pts.tobytes() == want.tobytes()
    assert cells.tolist() == [[f"{v:.17g}," for v in row] for row in want.tolist()]


def test_grid_rows_match_box_grid():
    pts = box_grid(Box(((0.0, 1.0),) * 3), 7)
    for start, stop in ((0, 343), (5, 100), (340, 343), (7, 7)):
        assert _grid_slice(7, 3, start, stop)[0].tobytes() == pts[start:stop].tobytes()


def test_grid_slice_matches_linspace():
    for grid in range(2, 301):  # a whole axis, and a window of it
        _assert_grid_slice(grid, 1, 0, grid)
        _assert_grid_slice(grid, 1, grid // 3, grid - grid // 4)
    for n, grid in ((2, 2), (2, 300), (3, 3), (3, 41), (4, 2), (4, 17), (4, 21)):
        total = grid**n
        for start, stop in ((0, total), (1, total - 1), (total // 3, total // 2), (total - 1, total)):
            _assert_grid_slice(grid, n, start, min(stop, start + 2 * _EVAL_ROWS))
    # a 2-D grid wider than a slice: slices within one run of t1, and slices that wrap t2
    for start in (0, 20000 - 100, 3 * 20000 - 5, 20000**2 - _EVAL_ROWS):
        _assert_grid_slice(20000, 2, start, start + _EVAL_ROWS)


def test_grid_slice_of_a_huge_axis_is_bounded_by_its_rows():
    # np.linspace(0, 1, 10**9) alone takes 8 GB; the slice computes its five values
    tracemalloc.start()
    try:
        pts, cells = _grid_slice(10**9, 1, 10**9 - 5, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = [k * (1.0 / (10**9 - 1)) for k in range(10**9 - 5, 10**9 - 1)] + [1.0]
    assert pts[:, 0].tolist() == want and pts[-1, 0] == 1.0 > pts[-2, 0]
    assert cells[:, 0].tolist() == [f"{v:.17g}," for v in want]
    assert peak < 2**20


def test_sample_grid_too_large_to_index_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    expr = "(tuple (coord 1) (coord 2) (coord 3) (coord 4))"
    assert main(["sample", "--map", expr, "--grid", "1000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "tamecube sample: a grid of 1000000^4 rows is too large to index\n"
    assert not out.exists()


def test_sample_huge_dimension_is_refused_without_the_power(tmp_path, capsys):
    # 3^(10^7) is a 15.8-million-bit integer that takes seconds to build
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert main(["sample", "--map", "(coord 10000000)", "--grid", "3", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "tamecube sample: a grid of 3^10000000 rows is too large to index\n"
    assert not out.exists()


def test_sample_evaluates_in_slices(tmp_path, monkeypatch):
    sizes = []
    eval_many = SmoothMap.eval_many

    def recording(self, pts):
        sizes.append(len(pts))
        return eval_many(self, pts)

    monkeypatch.setattr(SmoothMap, "eval_many", recording)
    out = tmp_path / "s.csv"
    with _one_worker():
        assert main(["sample", "--map", "(lambda (coord 1))", "--grid", "40000", "--out", str(out)]) == 0
    assert sizes == [_EVAL_ROWS, _EVAL_ROWS, 40000 - 2 * _EVAL_ROWS]
    assert len(out.read_text().splitlines()) == 1 + 40000


@contextmanager
def _one_worker():
    """One CPU for this process: ``sample`` runs every slice in the caller."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        patch.setattr(os, "cpu_count", lambda: 1)
        patch.setattr(os, "fork", lambda: pytest.fail("forked"))
        yield


@contextmanager
def _sample_workers(exit_in_child=False):
    """Run ``sample`` on two workers, as on two CPUs: the caller and one forked
    child.  Once the caller has evaluated its first slice, it waits until
    the child waits for its first turn, so a child that wrote before its
    turn would write first.  With ``exit_in_child``, the child leaves by
    ``os._exit`` there instead.  On leaving, one fork was made and no child
    is left."""
    caller, read, eval_many = os.getpid(), os.read, SmoothMap.eval_many
    wait, signal = os.pipe()
    waited = []

    def turn(fd, size):
        if os.getpid() != caller:
            os.write(signal, b".")
            if exit_in_child:
                os._exit(1)
        return read(fd, size)

    def evaluated(self, pts):
        try:
            return eval_many(self, pts)
        finally:
            if os.getpid() == caller and not waited:
                waited.append(select.select([wait], [], [], 60)[0] == [wait])

    try:
        with _cpus() as forks, pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "read", turn)
            patch.setattr(SmoothMap, "eval_many", evaluated)
            yield
            assert len(forks) == 1 and waited == [True]
    finally:
        os.close(wait)
        os.close(signal)


def _sample_on(workers: int, expr: str, grid: int, out: Path, exit_in_child=False):
    """The exit code, standard error and CSV bytes (None where no file is
    left) of ``sample`` on one worker or on two."""
    err = io.StringIO()
    with _one_worker() if workers == 1 else _sample_workers(exit_in_child), redirect_stderr(err):
        rc = main(["sample", "--map", expr, "--grid", str(grid), "--out", str(out)])
    return rc, err.getvalue(), out.read_bytes() if out.is_file() else None


# 2, 3 and 12 slices of _EVAL_ROWS rows
SLICED = [
    ("(tuple (coord 1) (lambda (coord 2)))", 129),
    ("(lambda (coord 1))", 40000),
    ("(tuple (coord 4) (lambda (coord 1)) (sum (coord 2) (coord 3)))", 21),
]


def test_sample_workers_write_the_one_worker_csv():
    with tempfile.TemporaryDirectory() as tmp:
        for expr, grid in SLICED:
            one = _sample_on(1, expr, grid, Path(tmp) / "one.csv")
            assert one[:2] == (0, "") and len(one[2].splitlines()) == 1 + grid ** parse_map(expr).in_dim
            assert _sample_on(2, expr, grid, Path(tmp) / "two.csv") == one


@pytest.mark.parametrize("forks_that_work", [None, 2])
def test_sample_on_more_workers_than_cpus_writes_the_one_worker_csv(forks_that_work):
    # four workers on this host's CPUs, the children pinned where they can be;
    # where the third fork fails, the caller takes that worker's slices too
    expr, grid = SLICED[-1]
    with tempfile.TemporaryDirectory() as tmp:
        expected = _sample_on(1, expr, grid, Path(tmp) / "one.csv")
        with _cpus(4, forks_that_work) as forks:
            assert main(["sample", "--map", expr, "--grid", str(grid), "--out", str(Path(tmp) / "four.csv")]) == 0
        assert len(forks) == (3 if forks_that_work is None else 2)
        assert (Path(tmp) / "four.csv").read_bytes() == expected[2]


def test_sample_workers_write_to_a_pipe_in_row_order():
    expr, grid = SLICED[-1]
    with tempfile.TemporaryDirectory() as tmp:
        fifo, copy = Path(tmp) / "fifo", Path(tmp) / "copy.csv"
        os.mkfifo(fifo)
        expected = _sample_on(1, expr, grid, Path(tmp) / "one.csv")[2]
        with _sample_workers(), open(copy, "wb") as sink:
            reader = subprocess.Popen(["cat", str(fifo)], stdout=sink)
            try:
                assert main(["sample", "--map", expr, "--grid", str(grid), "--out", str(fifo)]) == 0
            finally:
                assert reader.wait(60) == 0
        assert copy.read_bytes() == expected


def test_sample_workers_evaluate_each_slice_once(tmp_path):
    # both processes append (pid, first point, rows) of each evaluation to one file
    log = tmp_path / "evaluated.txt"
    eval_many = SmoothMap.eval_many

    def recording(self, pts):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {float(pts[0, 0])!r} {len(pts)}\n")
        return eval_many(self, pts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SmoothMap, "eval_many", recording)
        rc, err, csv = _sample_on(2, "(lambda (coord 1))", 40000, tmp_path / "s.csv")
    assert (rc, err) == (0, "") and len(csv.splitlines()) == 1 + 40000
    rows = sorted((float(first), int(size), int(pid)) for pid, first, size in map(str.split, log.read_text().splitlines()))
    step = 1.0 / 39999
    assert [(first, size) for first, size, _ in rows] == [
        (0.0, _EVAL_ROWS), (_EVAL_ROWS * step, _EVAL_ROWS), (2 * _EVAL_ROWS * step, 40000 - 2 * _EVAL_ROWS)
    ]
    # the caller takes slices 0 and 2, the child slice 1
    assert rows[0][2] == rows[2][2] == os.getpid() != rows[1][2]


# the slices of 40,000 rows are the caller's, the child's and the caller's
WORKER_ERRORS = [
    ("(compose recip (affine [[-1]] [1]))", 20000),  # fails only at t = 1, in slice 1: the child's
    ("(affine [[1e308]] [1e308])", 40000),  # not finite from t = 0.7977 on: first in the child's slice, then in slice 2
    ("(compose (affine [[1e308]] [1e308]) (affine [[-2]] [2]))", 40000),  # not finite below t = 0.6: slices 0 and 1
]


@pytest.mark.parametrize("expr, grid", WORKER_ERRORS)
def test_sample_error_in_a_worker_is_the_first_in_row_order(expr, grid):
    # the message of the whole grid's evaluation, which names the first point that fails
    f = parse_map(expr)
    with warnings.catch_warnings(), pytest.raises(DomainError) as raised:
        warnings.simplefilter("ignore")
        f.eval_many(box_grid(Box(((0.0, 1.0),)), grid))
    expected = (2, f"tamecube sample: {raised.value}\n", None)
    with tempfile.TemporaryDirectory() as tmp:
        assert _sample_on(1, expr, grid, Path(tmp) / "one.csv") == expected
        assert _sample_on(2, expr, grid, Path(tmp) / "two.csv") == expected


@pytest.mark.parametrize(
    "expr, grid",
    [
        ("(compose recip (affine [[1e308]] [0.85e308]))", 20000),  # overflows for t > 0.947: in slice 1, the child's, only
        ("(compose recip (affine [[1e308]] [1e308]))", 40000),  # for t > 0.7977: in slice 1, the child's, and slice 2
    ],
)
def test_sample_overflow_in_a_worker_warns_once(tmp_path, expr, grid):
    shown = []
    for workers in (1, 2):
        with pytest.warns(RuntimeWarning) as record:
            rc, err, csv = _sample_on(workers, expr, grid, tmp_path / f"{workers}.csv")
        assert (rc, err) == (0, "")
        shown.append([(w.category, str(w.message), w.filename, w.lineno) for w in record])
    assert len(shown[0]) == 1 and "overflow" in shown[0][0][1]
    assert shown[1] == shown[0]


def test_sample_warnings_of_workers_are_shown_in_row_order(tmp_path):
    # an overflow in an add only in slice 1, the child's, and one in a
    # multiply only in slice 2, the caller's: the add is shown first
    bump = "(prod (lambda (affine [[10]] [-5])) (lambda (affine [[-10]] [8])))"
    ramp = "(affine [[2.1]] [0])"
    expr = f"(sum (recip (compose (affine [[1e308]] [1e308]) {bump})) (recip (compose (affine [[1e308]] [1]) {ramp})))"
    shown = []
    for workers in (1, 2):
        with pytest.warns(RuntimeWarning) as record:
            assert _sample_on(workers, expr, 40000, tmp_path / f"{workers}.csv")[:2] == (0, "")
        shown.append([str(w.message) for w in record])
    assert shown == [["overflow encountered in add", "overflow encountered in multiply"]] * 2


def test_sample_worker_that_ends_without_a_result_leaves_no_csv(tmp_path):
    out = tmp_path / "s.csv"
    for grid in (20000, 40000):
        with pytest.raises(RuntimeError, match="^a sample worker ended without a result$"):
            _sample_on(2, "(lambda (coord 1))", grid, out, exit_in_child=True)
        assert not out.exists()


@pytest.mark.parametrize("case", [*IN_PROCESS_CASES, "one-slice"])
def test_sample_runs_in_process_where_no_worker_is_wanted(monkeypatch, tmp_path, case):
    # the same CSV from the caller alone, with os.fork never called, or
    # failing for want of a process; a grid of at most one slice never forks
    grid = _EVAL_ROWS if case == "one-slice" else 40000
    pts = box_grid(Box(((0.0, 1.0),)), grid)
    expected = "t1,y1\n" + _reference_csv(pts, parse_map("(lambda (coord 1))").eval_many(pts))
    out = tmp_path / "s.csv"
    with _in_process_only(monkeypatch, case):
        assert main(["sample", "--map", "(lambda (coord 1))", "--grid", str(grid), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_config_validation():
    with pytest.raises(Exception):
        SuiteConfig(suite="kernels", ns=(5,))
    with pytest.raises(Exception):
        SuiteConfig(suite="kernels", tolerances=ToleranceConfig(grid_res=2))
    for bad in ({"eps_list": (0.5,)}, {"eps_list": ()}, {"ns": ()}, {"tolerances": 33}, {"seed": -1}):
        with pytest.raises(DomainError):
            SuiteConfig(suite="retract", **bad)
    assert SuiteConfig(suite="tame").tolerances == ToleranceConfig()
    # numpy integers are integers
    cfg = SuiteConfig("tame", ns=(np.int64(2),), tolerances=ToleranceConfig(grid_res=np.int32(9)), seed=np.uint8(1))
    assert cfg.tolerances.capped(5) == ToleranceConfig(grid_res=5)
    assert cfg.tolerances.capped(17) == cfg.tolerances


@pytest.mark.parametrize(
    "given, plain",
    [
        ({"seed": np.int64(1)}, {"seed": 1}),
        ({"ns": (np.int64(2),)}, {"ns": (2,)}),
        ({"tolerances": ToleranceConfig(grid_res=np.int64(9))}, {"tolerances": ToleranceConfig(grid_res=9)}),
        ({"eps_list": (np.float32(0.25),)}, None),
        ({"tolerances": ToleranceConfig(eq_tol=np.float32(1e-9))}, None),
    ],
)
def test_numpy_scalars_in_the_config_give_a_writable_report(given, plain):
    # the configuration keeps plain Python numbers, so json can write the report;
    # a numpy integer gives the report of the same Python integer
    report = suites.run_suite(SuiteConfig("kernels", **given))
    assert json.loads(json.dumps(report)) == report
    if plain is not None:
        assert report == suites.run_suite(SuiteConfig("kernels", **plain))


def test_verify_passes_the_config_defaults(monkeypatch, tmp_path):
    # every flag left out takes SuiteConfig's and ToleranceConfig's default;
    # each flag given sets its own field
    import tamecube.cli as cli_mod

    seen = []

    def capture(cfg):
        seen.append(cfg)
        return {"schema": report_schema_version(), "suite": cfg.suite, "results": [], "failures": 0, "passed": True}

    monkeypatch.setattr(cli_mod, "run_suite", capture)
    out = str(tmp_path / "r.json")
    assert main(["verify", "--suite", "all", "--out", out]) == 0
    flags = ["--n", "2,3", "--eps", "0.2", "--grid", "9", "--eq-tol", "1e-8", "--deriv-tol", "1e-5", "--seed", "4"]
    assert main(["verify", "--suite", "tame", *flags, "--out", out]) == 0
    assert seen == [
        SuiteConfig("all"),
        SuiteConfig("tame", (2, 3), (0.2,), ToleranceConfig(1e-8, 1e-5, 9), 4),
    ]


def test_verify_grid_caps_every_scan(monkeypatch, tmp_path):
    # each row scans at the configured grid capped at the row's own cap, so
    # no scan is finer than --grid
    from tamecube import tame

    grids = []
    collar_scan = tame._collar_scan

    def recording(f, parts, cfg, seed):
        grids.append(cfg.grid_res)
        return collar_scan(f, parts, cfg, seed)

    monkeypatch.setattr(tame, "_collar_scan", recording)
    assert main(["verify", "--suite", "tame", "--grid", "5", "--out", str(tmp_path / "r.json")]) == 0
    assert set(grids) == {5}


def test_sample_retraction_csv_containment(tmp_path):
    import numpy as np

    from tamecube.cubes import dist_to_complex, j_complex
    from tamecube.maps import serialize_map
    from tamecube.retract import RetractionParams, approx_retraction

    R = approx_retraction(RetractionParams.from_eps(2, 0.25))
    src = tmp_path / "retraction.sexp"
    src.write_text(serialize_map(R), encoding="utf-8")
    out = tmp_path / "retraction.csv"
    assert main(["sample", "--map", str(src), "--grid", "11", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t1,t2,y1,y2"
    assert len(lines) == 1 + 121
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert dist_to_complex(j_complex(2), data[:, 2:]).max() <= 1e-9


def test_sample_retraction_script_leaves_no_temp_file(tmp_path):
    root = Path(__file__).resolve().parents[1]
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "TMPDIR": str(tmp)}
    args = ["--n", "2", "--eps", "0.25", "--grid", "11", "--out", str(tmp_path / "r.csv")]
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "sample_retraction.py"), *args], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert list(tmp.iterdir()) == []


def test_sample_too_deep_map_is_usage_error(tmp_path, capsys):
    src = tmp_path / "deep.sexp"
    src.write_text("(lambda " * 3000 + "(coord 1)" + ")" * 3000, encoding="utf-8")
    assert main(["sample", "--map", str(src), "--out", str(tmp_path / "deep.csv")]) == 2
    assert capsys.readouterr().err == "tamecube sample: 1:1: nested too deeply\n"


def test_run_verification_script_matches_verify(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = tmp_path / "script.json"
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_verification.py"), "--seed", "7", "--grid", "9", "--out", str(script)],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    cli = tmp_path / "cli.json"
    assert main(["verify", "--suite", "all", "--seed", "7", "--grid", "9", "--out", str(cli)]) == 0
    # byte-identical apart from the timestamp value
    texts = [p.read_text(encoding="utf-8") for p in (script, cli)]
    masked = [t.replace(json.loads(t)["timestamp"], "") for t in texts]
    assert masked[0] == masked[1]


def test_run_verification_script_passes_on_usage_error(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = tmp_path / "script.json"
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_verification.py"), "--grid", "1", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 2 and run.stdout == "" and not out.exists()
    assert run.stderr.startswith("tamecube verify: ")


def test_verify_exit_1_on_property_failure(monkeypatch, tmp_path):
    import tamecube.cli as cli_mod

    def failing(cfg):
        return {
            "schema": report_schema_version(),
            "suite": cfg.suite,
            "config": {"seed": cfg.seed},
            "results": [{"name": "synthetic", "params": {}, "worst": 1.0, "tol": 0.5, "passed": False}],
            "failures": 1,
            "passed": False,
        }

    monkeypatch.setattr(cli_mod, "run_suite", failing)
    rc = main(["verify", "--suite", "kernels", "--out", str(tmp_path / "r.json")])
    assert rc == 1
