"""Each output check passes on real output and fails on a perturbed copy."""

import json
import math

import numpy as np
import pytest

import checks
from tamecube.cli import main
from tamecube.maps import serialize_map
from tamecube.retract import RetractionParams, approx_retraction

REPORT = {
    "config": {"seed": 3},
    "failures": 0,
    "passed": True,
    "results": [{"name": "lambda-symmetry", "passed": True, "tol": 1e-12, "worst": 2.2e-16}],
    "schema": "1.0.0",
    "suite": "all",
    "timestamp": "2026-01-01T00:00:00+00:00",
}


def _text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _sample(tmp_path, expr: str, grid: int) -> str:
    src, out = tmp_path / "tree.map", tmp_path / "out.csv"
    src.write_text(expr, encoding="utf-8")
    assert main(["sample", "--map", str(src), "--grid", str(grid), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def test_verify_report_passes_and_fails():
    assert checks.verify_report(0, _text(REPORT)) == []
    assert checks.verify_report(1, _text(REPORT))
    assert checks.verify_report(0, "not json")
    bad = json.loads(_text(REPORT))
    bad["results"][0]["passed"] = False
    assert checks.verify_report(0, _text(bad))
    bad = dict(REPORT, passed=False, failures=1)
    assert checks.verify_report(0, _text(bad))
    assert checks.verify_report(0, _text(dict(REPORT, results=[])))


def test_report_fingerprint_ignores_only_the_timestamp():
    later = _text(dict(REPORT, timestamp="2026-06-30T12:34:56.789012+00:00"))
    assert checks.digest(checks.mask_timestamp(_text(REPORT))) == checks.digest(checks.mask_timestamp(later))
    perturbed = json.loads(_text(REPORT))
    perturbed["results"][0]["worst"] = 3.3e-16
    assert checks.digest(checks.mask_timestamp(_text(perturbed))) != checks.digest(checks.mask_timestamp(later))


def test_within_tol_fails_above_tolerance_and_on_nan():
    worsts = {"admissible-33": 0.0, "admissible-65": 0.0, "endpoints": 4e-16, "relative-on-L": 0.0}
    assert checks.within_tol(worsts) == []
    assert checks.within_tol(dict(worsts, endpoints=2e-9))
    assert checks.within_tol(dict(worsts, **{"admissible-65": math.nan}))
    # a perturbed (tightened) tolerance turns the same values into a failure
    assert checks.within_tol(worsts, tol=1e-16)


def test_csv_shape_counts_rows(tmp_path):
    text = _sample(tmp_path, "(compose lambda (coord 1))", 5)
    assert checks.csv_shape(text, 1, 1, 5) == []
    assert checks.csv_shape(text, 1, 1, 6)
    dropped = "".join(text.splitlines(keepends=True)[:-1])
    assert checks.csv_shape(dropped, 1, 1, 5)
    assert checks.csv_shape(text.replace("t1,y1", "t1,y2"), 1, 1, 5)


def test_csv_digest_sees_one_digit():
    text = "t1,y1\n0,0\n1,1\n"
    assert checks.digest(text) != checks.digest(text.replace("1,1", "1,1.0000000000000002"))


def test_retraction_rows_on_j(tmp_path):
    tree = serialize_map(approx_retraction(RetractionParams.from_eps(2, 0.2)))
    text = _sample(tmp_path, tree, 9)
    Y = checks.csv_outputs(text, 2)
    assert len(Y) == 81
    assert checks.rows_on_j(Y) == []
    moved = Y.copy()
    moved[40] += 1e-6
    assert checks.rows_on_j(moved)
    assert checks.rows_on_j(np.zeros((0, 2)))


def test_dist_to_walls_and_top():
    Y = np.array([[0.0, 0.3], [0.5, 1.0], [0.5, 0.5], [0.5, 0.0], [1.2, 0.5]])
    assert checks.dist_to_walls_and_top(Y) == pytest.approx([0.0, 0.0, 0.5, 0.5, 0.2])


def test_csv_outputs_selects_last_input():
    text = "t1,t2,y1\n0,0,5\n0,1,6\n1,1,7\n"
    assert checks.csv_outputs(text, 2, last_input=1.0).tolist() == [[6.0], [7.0]]


def test_counts_match():
    first = {"steps": 13, "csv.deformation": "ab"}
    assert checks.counts_match(first, dict(first)) == []
    assert checks.counts_match(first, dict(first, steps=14))
    assert checks.counts_match(first, {"steps": 13})


def test_run_and_work_agree_on_jobs():
    import run
    import work

    assert {w: jobs for w, (jobs, _) in run.WORKLOADS.items()} == {w: v[0] for w, v in work.WORKLOADS.items()}


def test_self_time_subtracts_child_spans():
    import spans

    tr = spans.Tracer("t", enabled=True)
    with tr.span("cli.main") as outer:
        with tr.span("maps.eval_many") as inner:
            sum(range(100_000))
    self_time = spans.self_time_by_layer(tr.spans)
    assert inner["parent"] == 0 and outer["parent"] is None
    assert self_time["maps"] == pytest.approx(spans.duration(inner))
    assert self_time["cli"] == pytest.approx(spans.duration(outer) - spans.duration(inner))
    off = spans.Tracer("t", enabled=False)
    with off.span("cli.main") as rec:
        pass
    assert rec is None and off.spans == []


def test_scaled_removes_sampling_time_and_host_speed():
    import hostspeed

    ref = hostspeed.REF_NOMINAL_S
    # a host running at half speed: the loop takes twice its nominal time
    samples = [(0.95, 2 * ref), (1.5, 2 * ref), (3.0, 2 * ref)]
    own, scaled = hostspeed.scaled(samples, 1.0, 2.0)
    assert own == pytest.approx(1.0 - 2 * ref)
    assert scaled == pytest.approx(own / 2)
    with pytest.raises(ValueError):
        hostspeed.scaled(samples, 10.0, 11.0)


def test_sampler_records_while_started():
    import time

    import hostspeed

    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = time.monotonic()
        while time.monotonic() - t0 < 3 * hostspeed.INTERVAL_S:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert all(d > 0 for _, d in sampler.samples)
