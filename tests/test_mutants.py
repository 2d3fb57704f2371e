"""Mutant tables: each row breaks one piece of the package and names the
suite rows, or the tier-1 tests, that must fail on it.

A mutant that fails no row is either equivalent, which its row argues in
a comment, or a gap in the suites.  Mutants are applied with
``monkeypatch``, so each is undone after its test.
"""

import inspect
import textwrap

import numpy as np
import pytest

import test_acceptance
import test_tame
from tamecube import kernels, tame
from tamecube.suites import SuiteConfig, run_suite

SEEDS = (0, 3, 7)


def _quadrature_table(monkeypatch, panels: int, nodes: int) -> None:
    """Swap ``lambda_integral``'s table for a panels x nodes Gauss-Legendre
    one, its panel sums rebuilt by the module's own ``_gauss``."""
    node_x, weights = np.polynomial.legendre.leggauss(nodes)
    edges = np.arange(panels + 1) / panels
    monkeypatch.setattr(kernels, "_PANELS", panels)
    monkeypatch.setattr(kernels, "_NODES", node_x)
    monkeypatch.setattr(kernels, "_WEIGHTS", weights)
    monkeypatch.setattr(kernels, "_EDGES", edges)
    cumulative = np.concatenate([[0.0], np.cumsum(kernels._gauss(edges[:-1], edges[1:]))])
    monkeypatch.setattr(kernels, "_CUMULATIVE", cumulative)


INTERIOR_ROWS = {"lambda-integral-interior", "smash-F-interior"}

# (id, mutation, suite, the rows that must fail)
MUTANTS = [
    ("unmutated", lambda mp: None, "all", set()),
    # largest interior error 4.4e-8 and 2.0e-5, against the rows' 1e-8
    ("quadrature-8x4", lambda mp: _quadrature_table(mp, 8, 4), "kernels", INTERIOR_ROWS),
    ("quadrature-4x3", lambda mp: _quadrature_table(mp, 4, 3), "kernels", INTERIOR_ROWS),
    # equivalent: its largest interior error, 4.5e-13, is within the rows' 1e-8
    # (test_equivalent_table_is_seen_within_tolerance)
    ("quadrature-16x6", lambda mp: _quadrature_table(mp, 16, 6), "kernels", set()),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mutate,suite,must_fail", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_fails_its_rows(monkeypatch, mutate, suite, must_fail, seed):
    mutate(monkeypatch)
    report = run_suite(SuiteConfig(suite, seed=seed))
    assert {r["name"] for r in report["results"] if not r["passed"]} == must_fail


def test_rebuilt_shipped_table_is_the_shipped_table(monkeypatch):
    shipped = kernels._CUMULATIVE
    _quadrature_table(monkeypatch, 64, 12)
    assert np.array_equal(kernels._CUMULATIVE, shipped)


def _interior_worst(seed: int = 0) -> float:
    return max(r["worst"] for r in run_suite(SuiteConfig("kernels", seed=seed))["results"] if r["name"] in INTERIOR_ROWS)


def test_equivalent_table_is_seen_within_tolerance(monkeypatch):
    shipped = _interior_worst()
    _quadrature_table(monkeypatch, 16, 6)
    coarse = _interior_worst()
    assert shipped <= 1e-15 and 1e-13 <= coarse <= 1e-8


@pytest.mark.parametrize("panels,nodes", [(8, 4), (4, 3)])
def test_coarse_table_fails_acceptance_criterion_2(monkeypatch, panels, nodes):
    _quadrature_table(monkeypatch, panels, nodes)
    with pytest.raises(AssertionError, match="^criterion-2 quadrature-oracle: worst gap"):
        test_acceptance.test_criterion_2_quadrature_oracle()


def _mutate_collar_rows(monkeypatch, old: str, new: str) -> None:
    """Swap ``tame._collar_rows`` for a copy built from its source with the one
    occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(tame._collar_rows))
    assert source.count(old) == 1
    scope = dict(vars(tame))
    exec(compile(source.replace(old, new), tame.__file__, "exec"), scope)
    monkeypatch.setattr(tame, "_collar_rows", scope["_collar_rows"])


# (id, a line of ``tame._collar_rows``, its mutation, the tests that must fail)
COLLAR_ROWS_MUTANTS = [
    # drops every move to depth 0 with the moves onto their own sample: the
    # pinned boundary check makes 2080 comparisons instead of 2168
    (
        "drop-depth-0-moves",
        "real = x[di, 0] != P[k, j - 1]",
        "real = (x[di, 0] != P[k, j - 1]) & (di != 0)",
        (test_tame.test_collar_scan_pinned_values, test_tame.test_collar_scan_matches_naive_scan_on_scanned_regions),
    ),
    # stacks only the samples of the first axis and side, so a later block
    # reads another sample's value: the pinned boundary check's worst gap
    # becomes 1.717 instead of 0.604
    (
        "used-samples-of-first-block",
        "for *_, idx in blocks:",
        "for *_, idx in blocks[:1]:",
        (test_tame.test_collar_scan_pinned_values, test_tame.test_collar_scan_matches_naive_scan_on_scanned_regions),
    ),
]


@pytest.mark.parametrize("old,new,must_fail", [m[1:] for m in COLLAR_ROWS_MUTANTS], ids=[m[0] for m in COLLAR_ROWS_MUTANTS])
def test_collar_rows_mutant_fails_its_tests(monkeypatch, old, new, must_fail):
    _mutate_collar_rows(monkeypatch, old, new)
    for test in must_fail:
        with pytest.raises(AssertionError):
            test()


def test_unmutated_copy_of_collar_rows_passes_the_tests(monkeypatch):
    # the copy built from the source is the function itself: what fails
    # under a mutant is the mutation
    _mutate_collar_rows(monkeypatch, "used = ", "used = ")
    assert tame._collar_rows is not test_tame._collar_rows
    for test in dict.fromkeys(t for *_, tests in COLLAR_ROWS_MUTANTS for t in tests):
        test()
