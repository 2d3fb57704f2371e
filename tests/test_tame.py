import numpy as np
import pytest

from tamecube.cubes import (
    CubicalComplex,
    Face,
    boundary_complex,
    chamber_region,
    complex_grid,
    full_cube,
    j_complex,
    j_delta_region,
    region_grid,
)
from tamecube.errors import DimensionError, DomainError, TamenessError
from tamecube.genmaps import random_smooth_map, random_tame_map
from tamecube.kernels import SmashParams
from tamecube.maps import (
    Coord,
    add,
    affine_row,
    compose,
    const,
    coord,
    lambda_map,
    mul,
    smash_map,
    tup,
)
from tamecube.tame import (
    TamenessReport,
    ToleranceConfig,
    Witness,
    check_admissible,
    check_fiber_constant,
    check_tame,
    concat_homotopy,
    concat_maps,
    extend_tame,
    extend_to_jdelta,
    jdelta_collar,
    seam_report,
    tame_replace,
)

CFG = ToleranceConfig()
QUICK = ToleranceConfig(grid_res=11)


def test_tolerance_config_validation():
    with pytest.raises(DomainError):
        ToleranceConfig(eq_tol=0.0)
    with pytest.raises(DomainError):
        ToleranceConfig(grid_res=2)


def test_constant_map_is_tame():
    rep = check_tame(const(3.0, 2).on_unit_box(), full_cube(2), 0.4)
    assert rep.passed and rep.worst_violation == 0.0 and rep.witness is None


def test_identity_fails_with_collar_witness():
    rep = check_tame(Coord(1, 1).on_unit_box(), full_cube(1), 0.1)
    assert not rep.passed
    w = rep.witness
    assert w is not None
    assert rep.worst_violation == pytest.approx(abs(w.point[w.axis - 1] - w.alpha), abs=1e-15)
    assert rep.worst_violation <= 0.1


def test_shifted_step_is_tame():
    # constant on [0, 0.2] and on [0.8, 1]
    f = lambda_map(affine_row(1, {1: 1 / 0.6}, -(0.2 / 0.6))).on_unit_box()
    assert check_tame(f, full_cube(1), 0.2).passed


def test_tameness_monotone_in_eps():
    f = random_smooth_map(np.random.default_rng(0), 2).on_unit_box()
    worst_small = check_tame(f, full_cube(2), 0.05, QUICK).worst_violation
    worst_big = check_tame(f, full_cube(2), 0.25, QUICK).worst_violation
    assert worst_small <= worst_big + 1e-15


def test_tame_implies_admissible_and_ladder():
    f = random_tame_map(np.random.default_rng(1), 2, 0.25)
    assert check_tame(f.on_unit_box(), full_cube(2), 0.25, QUICK).passed
    assert check_admissible(f.on_unit_box(), full_cube(2), 0.25, QUICK).passed
    # graded tameness implies plain tameness at the deepest exponent
    assert check_tame(f.on_unit_box(), full_cube(2), 0.25**2, QUICK).passed


def test_admissibility_counterexample():
    f = Coord(1, 2).on_unit_box()
    rep = check_admissible(f, full_cube(2), 0.2, QUICK)
    assert not rep.passed
    assert any(not ok for (_, _, _, ok) in rep.per_face)


def test_report_json_shape():
    rep = TamenessReport(False, 0.1, 0.5, Witness((0.1, 0.2), 1, 0), 42)
    js = rep.to_json()
    assert set(js) == {"passed", "eps", "worst", "witness", "samples"}
    assert js["witness"] == {"point": [0.1, 0.2], "axis": 1, "alpha": 0}


def test_check_tame_validation():
    with pytest.raises(DomainError):
        check_tame(const(1.0, 1), full_cube(1), 0.0)
    with pytest.raises(DimensionError):
        check_tame(const(1.0, 1), full_cube(2), 0.1)


def test_tame_replace_constant():
    g, H = tame_replace(const(2.5, 2), 0.1, 0.25)
    pts = np.random.default_rng(0).uniform(size=(20, 2))
    assert np.all(g.eval_many(pts) == 2.5)
    up = np.concatenate([pts, np.full((20, 1), 0.7)], axis=1)
    assert np.all(H.map.eval_many(up) == 2.5)


def test_tame_replace_identity_line():
    f = Coord(1, 1).on_unit_box()
    g, H = tame_replace(f, 0.1, 0.25)
    band = SmashParams(0.1, 0.25)
    ts = np.linspace(0, 1, 41).reshape(-1, 1)
    from tamecube.kernels import smash

    assert np.array_equal(g.eval_many(ts)[:, 0], smash(ts[:, 0], band.sigma, band.tau))
    assert check_tame(g, full_cube(1), 0.1).passed
    # homotopy is constant on the chamber for all sampled times
    for t in (0.25, 0.5, 0.75):
        for u in (0.0, 0.5, 1.0):
            assert H.map.eval([t, u])[0] == pytest.approx(t, abs=1e-9)
    with pytest.raises(DomainError):
        tame_replace(f, 0.25, 0.1)


def test_taming_relative_to_tame_part():
    # if f is already eps-tame, taming leaves it pointwise unchanged
    f = random_tame_map(np.random.default_rng(5), 2, 0.25)
    g, H = tame_replace(f, 0.1, 0.25)
    pts = np.random.default_rng(6).uniform(size=(60, 2))
    assert np.max(np.abs(g.eval_many(pts) - f.eval_many(pts))) <= 1e-12


def test_uniqueness_on_chamber():
    # two independently flattened maps agreeing on the small chamber agree on K
    f = random_smooth_map(np.random.default_rng(2), 1)
    band = SmashParams(0.1, 0.25)
    g1 = compose(f, tup(smash_map(band, coord(1, 1)))).on_unit_box()
    g2 = compose(
        f, tup(smash_map(band, smash_map(SmashParams(0.05, 0.1), coord(1, 1))))
    ).on_unit_box()
    chamber = region_grid(chamber_region(full_cube(1), 0.1), 17)
    assert np.max(np.abs(g1.eval_many(chamber) - g2.eval_many(chamber))) <= 1e-12
    everywhere = np.linspace(0, 1, 101).reshape(-1, 1)
    assert np.max(np.abs(g1.eval_many(everywhere) - g2.eval_many(everywhere))) <= 1e-9


# --- extension ------------------------------------------------------------


def _tame_on_j(seed: int, n: int, eps: float, rim: float):
    return random_tame_map(np.random.default_rng(seed), n, eps, space_eps=rim)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extend_tame_reproduces_input(n):
    eps, sigma = 0.25, 0.1
    f = _tame_on_j(n, n, eps, 0.5 * (eps + 0.5))
    g = extend_tame(f, eps=eps, sigma=sigma, cfg=QUICK)
    pts = complex_grid(j_complex(n), 17)
    assert np.max(np.abs(g.eval_many(pts) - f.on_unit_box().eval_many(pts))) <= 1e-9
    assert check_tame(g, full_cube(n), sigma, QUICK).passed
    bottom = CubicalComplex(n, (Face(n, ((n, 0),)),))
    assert check_tame(g, bottom, 0.5 * (sigma + eps), QUICK).passed


def test_extend_tame_constant():
    g = extend_tame(const(4.0, 2), eps=0.25, sigma=0.1, cfg=QUICK)
    pts = np.random.default_rng(0).uniform(size=(40, 2))
    assert np.all(g.eval_many(pts) == 4.0)


def test_extend_tame_point_value_n1():
    f = _tame_on_j(9, 1, 0.25, 0.25)
    g = extend_tame(f, eps=0.25, sigma=0.1, cfg=QUICK)
    assert g.eval([1.0])[0] == pytest.approx(f.eval([1.0])[0], abs=1e-12)
    assert check_tame(g, full_cube(1), 0.1, QUICK).passed


def test_extend_tame_rejects_bad_params_and_untame_input():
    f = _tame_on_j(3, 2, 0.25, 0.375)
    with pytest.raises(DomainError):
        extend_tame(f, eps=0.25, sigma=0.3)
    with pytest.raises(DomainError):
        extend_tame(f, eps=0.25, sigma=0.1, eps_prime=0.2)
    with pytest.raises(TamenessError):
        extend_tame(random_smooth_map(np.random.default_rng(0), 2), eps=0.25, sigma=0.1, cfg=QUICK)


# --- collared boundary extension -------------------------------------------


def test_jdelta_collar_widths():
    assert jdelta_collar(3, 0.3) == (0.3**2, 0.3, 0.3**2)
    assert jdelta_collar(4, 0.3) == (0.3**3, 0.3**2, 0.3**3)
    assert jdelta_collar(2, 0.3) == (0.09, 0.3, 0.09)


def test_extend_to_jdelta_n2_collar_value():
    f = random_tame_map(np.random.default_rng(4), 2, 0.3)
    fe = extend_to_jdelta(f, 0.3, cfg=QUICK)
    # on the bottom collar the value comes from the squashed coordinate,
    # which lands (to double precision) on the corner
    got = fe.eval([0.1, 0.0])
    assert np.max(np.abs(got - f.eval([0.0, 0.0]))) <= 1e-9
    band = SmashParams(0.09, 0.3)
    from tamecube.kernels import smash

    assert np.max(np.abs(got - f.eval([smash(0.1, band.sigma, band.tau), 0.0]))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_extend_to_jdelta_properties(n):
    eps = 0.3
    f = random_tame_map(np.random.default_rng(40 + n), n, eps)
    fe = extend_to_jdelta(f, eps, cfg=QUICK)
    pts = complex_grid(j_complex(n), 17)
    assert np.max(np.abs(fe.eval_many(pts) - f.on_unit_box().eval_many(pts))) <= 1e-9
    delta = jdelta_collar(n, eps)[2]
    region = j_delta_region(n, delta)
    assert check_admissible(fe, region, eps, QUICK).passed
    # pieces agree on the bottom rim
    rim = CubicalComplex(n, tuple(Face(n, ((j, v), (n, 0))) for j in range(1, n) for v in (0, 1)))
    rim_pts = complex_grid(rim, 9)
    bottom_vals = fe.eval_many(rim_pts)
    assert np.max(np.abs(bottom_vals - f.on_unit_box().eval_many(rim_pts))) <= 1e-9


def test_extend_to_jdelta_n1_is_identity():
    f = random_tame_map(np.random.default_rng(8), 1, 0.3)
    assert extend_to_jdelta(f, 0.3, cfg=QUICK) is f


# --- concatenation ----------------------------------------------------------


def _homotopy_pair(seed: int, n: int = 2):
    f = random_tame_map(np.random.default_rng(seed), n, 0.25)
    g1, h1 = tame_replace(f, 0.1, 0.25)
    g2, h2 = tame_replace(g1, 0.05, 0.1)
    return h1, h2


def test_concat_homotopy_seam_and_endpoints():
    h1, h2 = _homotopy_pair(0)
    hh = concat_homotopy(h1, h2)
    n = hh.space_dim
    pts = np.random.default_rng(1).uniform(size=(50, n))
    # value at the seam equals the shared middle stage
    mid = np.concatenate([pts, np.full((50, 1), 0.5)], axis=1)
    assert np.max(np.abs(hh.map.eval_many(mid) - h1.slice(1.0).eval_many(pts))) <= 1e-9
    assert np.max(np.abs(hh.slice(0.0).eval_many(pts) - h1.slice(0.0).eval_many(pts))) <= 1e-12
    assert np.max(np.abs(hh.slice(1.0).eval_many(pts) - h2.slice(1.0).eval_many(pts))) <= 1e-12
    val, fd, ok = seam_report(hh.map)
    assert ok and val <= 1e-9 and fd <= 1e-6


def test_concat_homotopy_constant():
    f = const(1.5, 2)
    from tamecube.maps import constant_homotopy

    hh = concat_homotopy(constant_homotopy(f), constant_homotopy(f))
    pts = np.random.default_rng(2).uniform(size=(30, 3))
    assert np.all(hh.map.eval_many(pts) == 1.5)


def test_concat_homotopy_rejects_mismatch():
    f1 = const(0.0, 2)
    f2 = const(1.0, 2)
    from tamecube.maps import constant_homotopy

    with pytest.raises(DomainError):
        concat_homotopy(constant_homotopy(f1), constant_homotopy(f2))


def _boundary_constant_map(seed: int, n: int = 2):
    base = random_tame_map(np.random.default_rng(seed), n, 0.2)
    c0 = base.eval([0.0] * n)
    gates = []
    for k in range(1, n + 1):
        gates.append(lambda_map(affine_row(n, {k: 5.0}, -1.0)))
        gates.append(lambda_map(affine_row(n, {k: -5.0}, 4.0)))
    delta = add(base, const(tuple(-c0), n))
    return add(const(tuple(c0), n), mul(*gates, delta)), c0


def test_concat_maps_group_law_carrier():
    phi, c0 = _boundary_constant_map(3)
    star = concat_maps(phi, phi)
    # endpoints take the values of the factors
    assert np.max(np.abs(star.eval([0.0, 0.3]) - phi.eval([0.0, 0.3]))) <= 1e-12
    assert np.max(np.abs(star.eval([0.5, 0.3]) - phi.eval([1.0, 0.3]))) <= 1e-9
    bpts = complex_grid(boundary_complex(2), 17)
    assert np.max(np.abs(star.eval_many(bpts) - np.asarray(c0))) <= 1e-9
    val, fd, ok = seam_report(star)
    assert ok


def test_concat_maps_constant():
    f = const((2.0, -1.0), 2)
    star = concat_maps(f, f)
    pts = np.random.default_rng(0).uniform(size=(20, 2))
    assert np.all(star.eval_many(pts) == np.array([2.0, -1.0]))


def test_concat_maps_rejects_face_mismatch():
    with pytest.raises(DomainError):
        concat_maps(const(0.0, 2), const(1.0, 2))


# --- factoring through the band map ----------------------------------------


def test_fiber_constant():
    band = SmashParams(0.2, 0.35)
    f = tup(smash_map(band, coord(1, 2)), smash_map(band, coord(2, 2))).on_unit_box()
    rep = check_fiber_constant(f, 0.2, 0.35, QUICK)
    assert rep.passed
    assert check_fiber_constant(const(1.0, 1), 0.2, 0.35, QUICK).passed
    with pytest.raises(TamenessError):
        check_fiber_constant(Coord(1, 1).on_unit_box(), 0.2, 0.35, QUICK)


def test_collar_scan_pinned_values():
    # sample counts, worst gaps and witnesses fix the grid, the seeded draws
    # and the scan order; a change to any of them moves these values
    f = random_smooth_map(np.random.default_rng(11), 3).on_unit_box()
    cfg = ToleranceConfig(grid_res=9)
    cases = [
        (check_admissible(f, boundary_complex(3), 0.2, cfg, seed=4),
         1840, 0.5741267706151589, Witness((0.1776925857619811, 0.0, 0.0), 1, 0)),
        (check_tame(f, j_delta_region(3, 0.2), 0.2, cfg, seed=4),
         1433, 1.0207321780187129, Witness((0.0, 0.125, 0.25), 2, 0)),
        (check_tame(f, full_cube(3), 0.2, cfg, seed=4),
         985, 1.0882512359908554, Witness((0.125, 0.125, 0.375), 2, 0)),
    ]
    for rep, samples, worst, witness in cases:
        assert (rep.samples_checked, rep.worst_violation, rep.witness) == (samples, worst, witness)
    band = SmashParams(0.2, 0.35)
    fc = tup(smash_map(band, coord(1, 2)), smash_map(band, coord(2, 2))).on_unit_box()
    rep = check_fiber_constant(fc, 0.2, 0.35, cfg, 0)
    assert (rep.samples_checked, rep.worst_violation) == (415, 0.0)
