import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamecube.errors import DimensionError, DomainError, ParseError
from tamecube.genmaps import random_smooth_map
from tamecube.kernels import SmashParams
from tamecube.maps import (
    Clamp01,
    Compose,
    Const,
    Coord,
    Gamma,
    PiecewiseAxis,
    Smash,
    add,
    affine,
    affine_row,
    compose,
    const,
    constant_homotopy,
    coord,
    fd_partial,
    fd_partial_refined,
    lambda_map,
    mul,
    parse_map,
    piecewise,
    recip_map,
    serialize_map,
    smash_map,
    smashdyn_map,
    tup,
    unit_box,
)


def test_eval_const_ignores_point():
    f = Const((3.0,), 2)
    assert f.eval((0.2, 0.7))[0] == 3.0


def test_eval_lambda_of_coord():
    f = parse_map("(lambda (coord 1))")
    assert f.in_dim == 1
    assert f.eval([0.5])[0] == pytest.approx(0.5, abs=1e-15)


def test_eval_coordwise_smash():
    p = SmashParams(0.1, 0.25)
    f = tup(smash_map(p, coord(1, 2)), smash_map(p, coord(2, 2)))
    out = f.eval([0.5, 0.05])
    assert tuple(out) == (0.5, 0.0)


def test_eval_dimension_mismatch():
    f = parse_map("(lambda (coord 1))")
    with pytest.raises(DimensionError):
        f.eval([0.5, 0.5])


def test_domain_checking():
    f = coord(1, 1).on_unit_box()
    assert f.eval([1.0 + 1e-13])[0] == 1.0  # tolerance clamp
    with pytest.raises(DomainError):
        f.eval([1.5])
    assert coord(1, 1).eval([1.5])[0] == 1.5  # unbounded when no box declared


def test_compose_dim_check():
    with pytest.raises(DimensionError):
        Compose(Gamma(), tup(coord(1, 1), coord(1, 1)))


def test_product_broadcasting():
    f = mul(const(2.0, 2), tup(coord(1, 2), coord(2, 2)))
    assert tuple(f.eval([0.25, 0.5])) == (0.5, 1.0)


def test_associativity_of_compose_values():
    rng = np.random.default_rng(3)
    f = random_smooth_map(rng, 2)
    g = tup(lambda_map(coord(1, 2)), lambda_map(coord(2, 2)))
    h = tup(coord(2, 2), coord(1, 2))
    left = Compose(Compose(f, g), h)
    right = Compose(f, Compose(g, h))
    pts = rng.uniform(size=(100, 2))
    assert np.array_equal(left.eval_many(pts), right.eval_many(pts))


def test_projection_node():
    f = Compose(Coord(2, 3), tup(coord(1, 2), lambda_map(coord(2, 2)), const(5.0, 2)))
    assert f.eval([0.3, 0.5])[0] == pytest.approx(0.5, abs=1e-15)


def test_project_form_reads_as_coord():
    f = parse_map("(project 2)")
    assert f == parse_map("(coord 2)") == Coord(2, 2)
    assert serialize_map(f) == "(coord 2)"


def test_deep_sum_chain_builds():
    f = coord(1, 1)
    for _ in range(1000):
        f = add(f)
    assert f.in_dim == f.out_dim == 1


def test_clamp01():
    f = Compose(Clamp01(1), affine_row(1, {1: 2.0}, -0.5))
    assert f.eval([0.0])[0] == 0.0
    assert f.eval([0.5])[0] == 0.5
    assert f.eval([1.0])[0] == 1.0


def test_recip_guard():
    f = recip_map(coord(1, 1))
    assert f.eval([0.25])[0] == 4.0
    with pytest.raises(DomainError):
        f.eval([0.0])


def test_piecewise_selection_and_validation():
    pw = piecewise(1, (0.5,), (const(1.0, 1), const(2.0, 1)))
    assert pw.eval([0.2])[0] == 1.0
    assert pw.eval([0.7])[0] == 2.0
    with pytest.raises(DomainError):
        piecewise(1, (0.7, 0.3), (const(1.0, 1), const(2.0, 1), const(3.0, 1)))
    with pytest.raises(DimensionError):
        piecewise(1, (0.5,), (const(1.0, 1),))
    with pytest.raises(DomainError):
        piecewise(1, (1.5,), (const(1.0, 1), const(2.0, 1)))


def test_homotopy_slice():
    f = lambda_map(coord(1, 1))
    H = constant_homotopy(f)
    grid = np.linspace(0, 1, 33).reshape(-1, 1)
    assert np.array_equal(
        H.slice(0.37).eval_many(grid), f.eval_many(grid)
    )
    with pytest.raises(DomainError):
        H.slice(1.5)


def test_fd_partial_examples():
    assert fd_partial(const(5.0, 2), [0.3, 0.3], 1)[0] == 0.0
    assert fd_partial(coord(1, 2), [0.3, 0.3], 1)[0] == pytest.approx(1.0, abs=1e-8)
    flat = fd_partial(lambda_map(coord(1, 1)).on_unit_box(), [0.0], 1, 1e-3)
    assert abs(flat[0]) <= 1e-6
    with pytest.raises(DomainError):
        fd_partial(coord(1, 1), [0.5], 1, h=0.0)


def test_fd_one_sided_at_boundary():
    f = coord(1, 1).on_unit_box()
    assert fd_partial(f, [0.0], 1)[0] == pytest.approx(1.0, abs=1e-9)
    assert fd_partial(f, [1.0], 1)[0] == pytest.approx(1.0, abs=1e-9)


def test_fd_richardson_on_smash_is_second_order():
    f = smash_map(SmashParams(0.1, 0.4), coord(1, 1))
    for t in (0.17, 0.22, 0.31):
        d1 = fd_partial(f, [t], 1, 2e-3)[0]
        d2 = fd_partial(f, [t], 1, 1e-3)[0]
        d4 = fd_partial(f, [t], 1, 5e-4)[0]
        # halving the step shrinks the increment roughly fourfold
        if abs(d2 - d4) > 1e-12:
            assert abs(d1 - d2) / abs(d2 - d4) == pytest.approx(4.0, rel=0.8)
        refined = fd_partial_refined(f, [t], 1, 1e-3)[0]
        assert abs(refined - d4) <= abs(d1 - d4)


# --- text format ---------------------------------------------------------


def test_parse_examples():
    f = parse_map("(smash 0.1 0.25 (coord 2))")
    assert isinstance(f, Compose) and isinstance(f.outer, Smash)
    assert f.in_dim == 2
    with pytest.raises(DimensionError):
        parse_map("(compose (affine [[1.0 0.0]] [0.0]) gamma)")
    with pytest.raises(ParseError):
        parse_map("(lambda (coord")
    try:
        parse_map("(lambda (coord 1)) junk")
    except ParseError as exc:
        assert exc.line == 1 and exc.col > 1


def test_parse_affine_and_piece():
    f = parse_map("(affine [[1.0 0.0] [0.0 1.0]] [0.0 0.5])")
    assert tuple(f.eval([0.25, 0.25])) == (0.25, 0.75)
    pw = parse_map("(piece 1 (0.5) (const 1.0) (const 2.0))")
    assert isinstance(pw, PiecewiseAxis)


def test_serialization_canonical():
    f = parse_map("( lambda   ( coord  1 ) )")
    assert serialize_map(f) == "(compose lambda (coord 1))"


def _random_tree(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    base = random_smooth_map(rng, n, out_dim=int(rng.integers(1, 3)))
    # ensure inference is exact by anchoring with an affine of full width
    anchor = affine(np.eye(n).tolist(), [0.0] * n)
    f = Compose(base, anchor)
    if rng.uniform() < 0.5:
        f = piecewise(1, (0.5,), (f, f))
    if rng.uniform() < 0.5:
        f = Compose(Clamp01(f.out_dim), f)
    return f


@given(st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_round_trip_evaluates_identically(seed):
    f = _random_tree(seed)
    g = parse_map(serialize_map(f))
    assert g == f
    rng = np.random.default_rng(seed + 1)
    pts = rng.uniform(size=(100, f.in_dim))
    assert np.array_equal(f.eval_many(pts), g.eval_many(pts))


def test_round_trip_all_atoms():
    texts = [
        "gamma",
        "lambda",
        "clamp01",
        "smashdyn",
        "recip",
        "(smash 0.1 0.25)",
        "(coord 2)",
        "(project 1)",
        "(const 1.0 2.0)",
        "(sum (coord 1) (coord 2))",
        "(prod (coord 1) (coord 2))",
        "(tuple (coord 1) (coord 2))",
        "(compose lambda (coord 1))",
        "(affine [[1.0 2.0]] [0.5])",
        "(piece 2 (0.25 0.75) (const 0.0) (coord 2) (const 1.0))",
        "(compose smashdyn (tuple (coord 1) (const 0.1) (const 0.3)))",
        "(compose recip (coord 1))",
    ]
    for text in texts:
        f = parse_map(text)
        assert parse_map(serialize_map(f)) == f


def test_smashdyn_sugar():
    f = parse_map("(smashdyn (coord 1) (const 0.1) (const 0.3))")
    g = smashdyn_map(coord(1, 1), const(0.1, 1), const(0.3, 1))
    assert f == g


def test_unit_box():
    assert unit_box(2) == ((0.0, 1.0), (0.0, 1.0))
    f = coord(1, 2)
    assert f.on_unit_box().domain == unit_box(2)


def test_parse_mismatch_spec_shape():
    # outer tuple demands more inputs than the affine produces
    with pytest.raises(DimensionError):
        parse_map("(compose (tuple (coord 3)) (affine [[1.0 0.0] [0.0 1.0]] [0.0 0.0]))")


def test_eval_many_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    f = smash_map(SmashParams(0.1, 0.3), coord(1, 2))
    pts = np.random.default_rng(0).uniform(size=(500, 2))

    def work(_):
        return f.eval_many(pts)

    with ThreadPoolExecutor(max_workers=4) as pool:
        outs = list(pool.map(work, range(8)))
    assert all(np.array_equal(o, outs[0]) for o in outs)
