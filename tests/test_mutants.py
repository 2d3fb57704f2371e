"""Mutant tables: each row breaks one piece of the package and names the
suite rows, or the tier-1 tests, that must fail on it.

A mutant that fails no row is either equivalent, which its row argues in
a comment, or a gap in the suites.  Mutants are applied with
``monkeypatch``, so each is undone after its test.
"""

import inspect
import textwrap
from functools import partial

import numpy as np
import pytest

import test_acceptance
import test_cli
import test_cubes
import test_kernels
import test_maps
import test_replace
import test_tame
from tamecube import cli, cubes, genmaps, kernels, maps, replace, suites, tame, workers
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
    cumulative = np.concatenate([[0.0], np.cumsum(kernels._gauss(edges[:-1], edges[1:])[0])])
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


def _mutate(monkeypatch, module, name: str, old: str, new: str, lookup=None) -> None:
    """Swap function ``name`` of ``module`` for a copy built from its source with
    the one occurrence of ``old`` replaced by ``new``.  The copy is patched into
    ``lookup``, the module where the caller under test looks the name up
    (``module`` itself by default)."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), scope)
    monkeypatch.setattr(module if lookup is None else lookup, name, scope[name])


_COLLAR_ROWS_TESTS = (test_tame.test_collar_scan_pinned_values, test_tame.test_collar_scan_matches_naive_scan_on_scanned_regions)

# (id, module, function, the module its caller looks it up in or None, a line
# of the function, its mutation, the tests that must fail)
SOURCE_MUTANTS = [
    # drops every move to depth 0 with the moves onto their own sample: the
    # pinned boundary check makes 2080 comparisons instead of 2168
    (
        "drop-depth-0-moves",
        tame, "_collar_rows", None,
        "real = x[di, 0] != P[k, j - 1]",
        "real = (x[di, 0] != P[k, j - 1]) & (di != 0)",
        _COLLAR_ROWS_TESTS,
    ),
    # stacks only the samples of the first axis and side, so a later side's
    # comparisons read another sample's value: the pinned boundary check's
    # worst gap becomes 1.717 instead of 0.604
    (
        "used-samples-of-first-block",
        tame, "_collar_rows", None,
        "used[sample] = True",
        "used[sample[key < 5]] = True",
        _COLLAR_ROWS_TESTS,
    ),
    # an int8 key index: the 130 keys of the 26 sides of I^13 wrap
    (
        "int8-key-index",
        tame, "_collar_rows", test_tame,
        "np.min_scalar_type(10 * n)",
        "np.int8",
        (test_tame.test_collar_rows_key_indices_do_not_wrap,),
    ),
    # keeps the last worst comparison of a part as its witness: 129 of the
    # 178 failed reports of the scanned-regions test name another witness,
    # each with the same worst gap
    (
        "witness-of-the-last-worst",
        tame, "_collar_scan", test_tame,
        "np.argmax(gaps, axis=0)",
        "len(gaps) - 1 - np.argmax(gaps[::-1], axis=0)",
        (test_tame.test_collar_scan_matches_naive_scan_on_scanned_regions,),
    ),
    # a numpy bool for the verdict, which json cannot write into a trace
    (
        "numpy-bool-verdict",
        tame, "_collar_scan", None,
        "passed = worst <= cfg.eq_tol",
        "passed = np.bool_(worst <= cfg.eq_tol)",
        (test_replace.test_scan_reports_keep_plain_python_types,),
    ),
    # skips a side whose boxes are all pinned along it, at one value or
    # not: boxes pinned MEMBERSHIP_TOL apart lose their moves onto each other
    (
        "skip-sides-pinned-at-any-values",
        tame, "_collar_rows", test_tame,
        "np.all(lo[j - 1] == u) and np.all(hi[j - 1] == u)",
        "np.all(lo[j - 1] == hi[j - 1])",
        (test_tame.test_collar_rows_skip_only_sides_pinned_at_one_value,),
    ),
    # takes equal neighbours for rows in order: duplicates and -0.0 next to
    # 0.0 come back as distinct rows
    (
        "order-test-admits-ties",
        cubes, "unique_rows", test_cubes,
        "rising |= tied & (col[1:] > col[:-1])",
        "rising |= tied & (col[1:] >= col[:-1])",
        (test_cubes.test_unique_rows_returns_rows_already_in_order_unsorted,),
    ),
    # the band's lambda(r) read from the last Gauss node, not from r
    (
        "lambda-of-the-last-node",
        kernels, "_gauss", None,
        "lam[..., -1]",
        "lam[..., -2]",
        (test_kernels.test_smash_band_is_one_pass_of_both_kernels,),
    ),
    # the extension's widths still ramp where the smashed time lies in
    # [sigma, 2 sigma), so they are not yet the top widths there
    (
        "half-slope-ramp",
        tame, "_extensions", None,
        "{1: -1.0 / sigma}",
        "{1: -0.5 / sigma}",
        (test_tame.test_extend_tame_has_its_top_widths_once_the_smashed_time_leaves_the_bottom,),
    ),
    # a still valid construction with other outputs: an L of dimension 1
    # is tamed at eps^2 rather than eps
    (
        "taming-width-from-dim-2",
        replace, "admissible_replace", test_replace,
        "dim_l = max(L.dim, 1)",
        "dim_l = max(L.dim, 2)",
        (test_replace.test_taming_widths_follow_the_dimension_of_L,),
    ),
    # routes over the maximal faces of L and the j-skeleton of K, each with
    # its formula: a maximal vertex outside L has none, and a KeyError ends
    # the replacement
    (
        "route-over-the-skeleton",
        replace, "admissible_replace", test_replace,
        "union = _route_union(n, formulas, cert, fallback)",
        "union = _route_union(n, {M: formulas[M] for M in CubicalComplex("
        "n, L.maximal_faces + tuple(F for F in K.faces() if F.dim <= j)).maximal_faces}, cert, fallback)",
        (test_replace.test_replace_with_a_maximal_vertex_outside_L, test_replace.test_random_pairs_meet_the_contract),
    ),
    # gates no part of the map on an L that holds I^n: the wild part is
    # added everywhere
    (
        "wild-on-the-full-cube",
        genmaps, "random_map_admissible_on", test_replace,
        "if any(not F.pinned for F in L.maximal_faces):",
        "if False:",
        (test_replace.test_random_map_admissible_on_the_full_cube,),
    ),
    # the scheduler leaves the call lists a container yielded as they are,
    # so every container holds its input rows, and a Compose its inner
    # value, until it resumes: the same values, but the test's slices of g
    # and of the homotopy peak at 7.0 and 8.1 MB traced
    (
        "call-lists-kept",
        maps, "_evaluate", None,
        "calls.clear()",
        "calls.copy()",
        (test_maps.test_a_slice_holds_each_array_only_until_its_last_reader_has_run,),
    ),
    # puts the rows together in the order the workers returned them: the
    # caller's suites first, then the forked worker's
    (
        "rows-in-worker-order",
        suites, "_run_all", None,
        "for i in range(len(names)) for r in done[i]",
        "for rows in done.values() for r in rows",
        (test_cli.test_forked_workers_give_the_in_process_rows,),
    ),
    # each sample worker writes its slice as soon as it is made and only then
    # waits for its turn: the child's slice comes out before the caller's first
    (
        "sample-writes-when-done",
        cli, "_take_turns", None,
        "turn = k == 0 or os.read(ring[k % w][0], 1) == _GO\n        if turn and error is None:",
        "if error is None:\n            fh.write(text)\n            fh.flush()\n"
        "        turn = k == 0 or os.read(ring[k % w][0], 1) == _GO\n        if False:",
        (test_cli.test_sample_workers_write_the_one_worker_csv,),
    ),
    # a forked worker swallows the exception that stopped it and ends quietly:
    # sample writes a CSV without the child's failing slice and exits 0
    (
        "sample-child-error-dropped",
        workers, "_child", None,
        "payload = exc",
        "payload = []",
        (partial(test_cli.test_sample_error_in_a_worker_is_the_first_in_row_order, *test_cli.WORKER_ERRORS[0]),),
    ),
]


@pytest.mark.parametrize(
    "module,name,lookup,old,new,must_fail", [m[1:] for m in SOURCE_MUTANTS], ids=[m[0] for m in SOURCE_MUTANTS]
)
def test_source_mutant_fails_its_tests(monkeypatch, module, name, lookup, old, new, must_fail):
    _mutate(monkeypatch, module, name, old, new, lookup)
    for test in must_fail:
        with pytest.raises(AssertionError):
            test()


def test_unmutated_copies_pass_the_tests(monkeypatch):
    # a copy built from the source is the function itself: what fails
    # under a mutant is the mutation
    for _, module, name, lookup, old, _, must_fail in SOURCE_MUTANTS:
        where = module if lookup is None else lookup
        shipped = getattr(where, name)
        with monkeypatch.context() as patch:
            _mutate(patch, module, name, old, old, lookup)
            assert getattr(where, name) is not shipped
            for test in must_fail:
                test()


def test_slice_guard_trips_in_forked_workers(monkeypatch):
    # the replace suite slices a homotopy, in the caller or in the forked
    # worker: the guard's AssertionError still reaches the test
    _mutate(
        monkeypatch, suites, "_replace_suite",
        "_at_times(H, pts, (0.0, 1.0))",
        "np.stack([H.slice(u).eval_many(pts) for u in (0.0, 1.0)])",
    )
    monkeypatch.setitem(suites.SUITES, "replace", suites._replace_suite)
    with test_cli._forked_workers():
        with pytest.raises(AssertionError, match="a suite sliced a homotopy"):
            test_cli.test_suites_evaluate_time_slices_as_rows(monkeypatch)
