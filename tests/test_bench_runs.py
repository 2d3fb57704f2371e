"""The benchmark's jobs and probes run end to end against the package.

``test_bench_imports.py`` sees only the names the benchmark imports, so a
method it calls on a returned object (``on_unit_box``,
``ExtensionStep.retries``), or an input it hands a map, could stop working
unseen.  These tests import ``perfbench/work.py`` and ``perfbench/layers.py``
and run one small job of two workloads through its own ``setup``, ``run``
and ``check``, and both probes of the traced run, with spans kept in
memory.  They change nothing in ``perfbench/``.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload,job", [("replace", "n2"), ("sample_dense", "retraction")])
def test_benchmark_job_runs_and_checks_clean(workload, job, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    work, spans = importlib.import_module("work"), importlib.import_module("spans")
    tr = spans.Tracer("test", enabled=False)
    _, setup, run, check = work.WORKLOADS[workload]
    state = setup(1, 0, job, tmp_path, tr)
    out = run(state, tr)
    assert out[1] == []  # the job raised nothing
    failures, repeat, counts = check(state, out)
    assert failures == [] and repeat and counts


@pytest.mark.parametrize("probe", ["layers_probe", "suites_probe"])
def test_traced_probe_runs_clean(probe, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers, spans = importlib.import_module("layers"), importlib.import_module("spans")
    # the probes time their spans, so tracing must be on
    metrics, errors = getattr(layers, probe)(1, tmp_path, spans.Tracer("test", enabled=True))
    assert errors == [] and metrics
