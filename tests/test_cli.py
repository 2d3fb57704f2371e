import json
import os
import subprocess
import sys
import time
import tracemalloc
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
    assert main(["sample", "--map", "(lambda (coord 1))", "--grid", "40000", "--out", str(out)]) == 0
    assert sizes == [_EVAL_ROWS, _EVAL_ROWS, 40000 - 2 * _EVAL_ROWS]
    assert len(out.read_text().splitlines()) == 1 + 40000


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
