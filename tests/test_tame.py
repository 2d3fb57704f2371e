import numpy as np
import pytest

import tamecube.tame as tame_module
from tamecube.cubes import (
    MEMBERSHIP_TOL,
    Box,
    BoxRegion,
    CubicalComplex,
    Face,
    boundary_complex,
    chamber_region,
    complex_grid,
    dist_to_region,
    full_cube,
    intersect_complex_face,
    j_complex,
    j_delta_region,
    positive_faces,
    region_grid,
    region_random,
    unique_rows,
)
from tamecube.errors import DimensionError, DomainError, TamenessError
from tamecube.genmaps import random_smooth_map, random_tame_map
from tamecube.kernels import SmashParams
from tamecube.maps import (
    Coord,
    SmoothMap,
    add,
    affine_row,
    compose,
    const,
    coord,
    lambda_map,
    mul,
    piecewise,
    smash_map,
    tup,
)
from tamecube.tame import (
    _bottom_rim_face,
    _collar_rows,
    TamenessReport,
    ToleranceConfig,
    Witness,
    check_admissible,
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
    rep = check_tame(const(3.0, 2), full_cube(2), 0.4)
    assert rep.passed and rep.worst_violation == 0.0 and rep.witness is None


def test_identity_fails_with_collar_witness():
    rep = check_tame(Coord(1, 1), full_cube(1), 0.1)
    assert not rep.passed
    w = rep.witness
    assert w is not None
    moved = w.depth if w.alpha == 0 else 1.0 - w.depth
    assert rep.worst_violation == pytest.approx(abs(w.point[w.axis - 1] - moved), abs=1e-15)
    assert rep.worst_violation <= 0.1


def test_shifted_step_is_tame():
    # constant on [0, 0.2] and on [0.8, 1]
    f = lambda_map(affine_row(1, {1: 1 / 0.6}, -(0.2 / 0.6)))
    assert check_tame(f, full_cube(1), 0.2).passed


def test_tameness_monotone_in_eps():
    f = random_smooth_map(np.random.default_rng(0), 2)
    worst_small = check_tame(f, full_cube(2), 0.05, QUICK).worst_violation
    worst_big = check_tame(f, full_cube(2), 0.25, QUICK).worst_violation
    assert worst_small <= worst_big + 1e-15


def test_tame_implies_admissible_and_ladder():
    f = random_tame_map(np.random.default_rng(1), 2, 0.25)
    assert check_tame(f, full_cube(2), 0.25, QUICK).passed
    assert check_admissible(f, full_cube(2), 0.25, QUICK).passed
    # graded tameness implies plain tameness at the deepest exponent
    assert check_tame(f, full_cube(2), 0.25**2, QUICK).passed


def test_admissibility_counterexample():
    f = Coord(1, 2)
    rep = check_admissible(f, full_cube(2), 0.2, QUICK)
    assert not rep.passed
    assert any(not ok for (_, _, _, ok) in rep.per_face)


def test_report_json_shape():
    rep = TamenessReport(False, 0.1, 0.5, Witness((0.1, 0.2), 1, 0, 0.05), 42)
    js = rep.to_json()
    assert set(js) == {"passed", "eps", "worst", "witness", "samples"}
    assert js["witness"] == {"point": [0.1, 0.2], "axis": 1, "alpha": 0, "depth": 0.05}


def test_check_tame_validation():
    with pytest.raises(DomainError):
        check_tame(const(1.0, 1), full_cube(1), 0.0)
    with pytest.raises(DimensionError):
        check_tame(const(1.0, 1), full_cube(2), 0.1)


def test_empty_domain_passes_with_no_comparisons():
    # an empty complex or region has nothing to compare; a complex still checks its ambient dimension
    f = Coord(1, 2)
    for check in (check_tame, check_admissible):
        for K in (CubicalComplex(2, ()), BoxRegion(())):
            rep = check(f, K, 0.2)
            assert (rep.passed, rep.worst_violation, rep.witness, rep.samples_checked) == (True, 0.0, None, 0)
        with pytest.raises(DimensionError, match="map has in_dim 2, domain has ambient 3"):
            check(f, CubicalComplex(3, ()), 0.2)


def test_tame_replace_constant():
    g, H = tame_replace(const(2.5, 2), 0.1, 0.25)
    pts = np.random.default_rng(0).uniform(size=(20, 2))
    assert np.all(g.eval_many(pts) == 2.5)
    up = np.concatenate([pts, np.full((20, 1), 0.7)], axis=1)
    assert np.all(H.map.eval_many(up) == 2.5)


def test_tame_replace_identity_line():
    f = Coord(1, 1)
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
    g1 = compose(f, tup(smash_map(band, coord(1, 1))))
    g2 = compose(
        f, tup(smash_map(band, smash_map(SmashParams(0.05, 0.1), coord(1, 1))))
    )
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
    assert np.max(np.abs(g.eval_many(pts) - f.eval_many(pts))) <= 1e-9
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
    with pytest.raises(TamenessError, match="walls-plus-top"):
        extend_tame(random_smooth_map(np.random.default_rng(0), 2), eps=0.25, sigma=0.1, cfg=QUICK)
    # varies in t_1 only on [0.25, 0.35]: eps-tame on the walls and top, but
    # not eps_prime-tame on the bottom rim
    step = lambda_map(affine_row(3, {1: 10.0}, -2.5))
    with pytest.raises(TamenessError, match="bottom rim"):
        extend_tame(step, eps=0.25, sigma=0.1, eps_prime=0.375, cfg=QUICK)


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
    assert np.max(np.abs(fe.eval_many(pts) - f.eval_many(pts))) <= 1e-9
    delta = jdelta_collar(n, eps)[2]
    region = j_delta_region(n, delta)
    assert check_admissible(fe, region, eps, QUICK).passed
    # pieces agree on the bottom rim
    rim = CubicalComplex(n, tuple(Face(n, ((j, v), (n, 0))) for j in range(1, n) for v in (0, 1)))
    rim_pts = complex_grid(rim, 9)
    bottom_vals = fe.eval_many(rim_pts)
    assert np.max(np.abs(bottom_vals - f.eval_many(rim_pts))) <= 1e-9


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


def test_seam_report_evaluates_each_piece_once_per_breakpoint(monkeypatch):
    pieces = tuple(lambda_map(affine_row(2, {1: a, 2: 1.0}, 0.0)) for a in (0.5, 1.0, 2.0))
    pw = piecewise(1, (0.3, 0.6), pieces)
    calls = []
    eval_many = SmoothMap.eval_many

    def counted(self, pts):
        calls.append(len(pts))
        return eval_many(self, pts)

    monkeypatch.setattr(SmoothMap, "eval_many", counted)
    seam_report(pw)
    # the seam and its offset, 33 points each, per piece and breakpoint
    assert calls == [66] * 4


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

    with pytest.raises(DomainError, match="^homotopy endpoints disagree by 1.000e[+]00"):
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
    with pytest.raises(DomainError, match="^face values disagree by 1.000e[+]00"):
        concat_maps(const(0.0, 2), const(1.0, 2))


# --- factoring through the band map ----------------------------------------


def test_fiber_constant():
    # a map factors through the coordinatewise smash with widths (0.2, 0.35)
    # exactly when it is 0.2-tame on the cube
    band = SmashParams(0.2, 0.35)
    f = tup(smash_map(band, coord(1, 2)), smash_map(band, coord(2, 2)))
    rep = check_tame(f, full_cube(2), 0.2, QUICK)
    assert rep.passed and rep.worst_violation == 0.0 and rep.samples_checked > 0
    assert check_tame(const(1.0, 1), full_cube(1), 0.2, QUICK).passed
    rep = check_tame(Coord(1, 1), full_cube(1), 0.2, QUICK)
    assert not rep.passed and rep.witness is not None


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("w", [0.008, 0.04])
def test_collar_only_defect_fails(n, w):
    # lambda(2 t_1 / w) varies only inside [0, w/2]: a comparison at depth 0
    # alone misses it at w = 0.008, the deeper collar depths do not
    f = lambda_map(affine_row(n, {1: 2.0 / w}, 0.0))
    rep = check_tame(f, full_cube(n), w, CFG)
    assert not rep.passed and rep.worst_violation == 1.0
    wit = rep.witness
    assert wit.axis == 1
    assert abs(wit.point[0] - wit.alpha) <= w and 0.0 <= wit.depth <= w


def test_collar_scan_evaluates_once(monkeypatch):
    # a check stacks the samples and moved points of all its parts, drops
    # duplicate rows once and evaluates once
    calls, sorts = [], []
    eval_many = SmoothMap.eval_many

    def counted(self, pts):
        calls.append(len(pts))
        return eval_many(self, pts)

    def counted_unique(pts):
        sorts.append(len(pts))
        return unique_rows(pts)

    monkeypatch.setattr(SmoothMap, "eval_many", counted)
    monkeypatch.setattr(tame_module, "unique_rows", counted_unique)
    f = random_smooth_map(np.random.default_rng(11), 3)
    for K in (full_cube(3), boundary_complex(3), j_delta_region(3, 0.2)):
        calls.clear()
        sorts.clear()
        check_tame(f, K, 0.2, QUICK, seed=4)
        assert len(calls) == 1 and len(sorts) == 1
    for K in (boundary_complex(3), j_complex(3)):
        calls.clear()
        sorts.clear()
        rep = check_admissible(f, K, 0.2, QUICK, seed=4)
        assert len(calls) == 1 and len(sorts) == 1 and len(rep.per_face) > 1
    # extend_tame checks the walls-plus-top and the bottom rim in one scan
    g = _tame_on_j(3, 3, 0.25, 0.375)
    calls.clear()
    sorts.clear()
    extend_tame(g, eps=0.25, sigma=0.1, cfg=QUICK, seed=4)
    assert len(calls) == 1 and len(sorts) == 1


def test_collar_scan_pinned_values():
    # sample counts, worst gaps and witnesses fix the grid, the seeded draws
    # and the scan order; a change to any of them moves these values
    f = random_smooth_map(np.random.default_rng(11), 3)
    cfg = ToleranceConfig(grid_res=9)
    cases = [
        (check_admissible(f, boundary_complex(3), 0.2, cfg, seed=4),
         2168, 0.6039420579003054, Witness((0.0, 0.0, 0.0), 1, 0, 0.2)),
        (check_tame(f, j_delta_region(3, 0.2), 0.2, cfg, seed=4),
         4095, 1.5977324061258003, Witness((0.0, 0.0, 0.25), 2, 0, 0.2)),
        (check_tame(f, full_cube(3), 0.2, cfg, seed=4),
         4439, 1.5977324061258003, Witness((0.0, 0.0, 0.25), 2, 0, 0.2)),
    ]
    for rep, samples, worst, witness in cases:
        assert (rep.samples_checked, rep.worst_violation, rep.witness) == (samples, worst, witness)
    band = SmashParams(0.2, 0.35)
    fc = tup(smash_map(band, coord(1, 2)), smash_map(band, coord(2, 2)))
    rep = check_tame(fc, full_cube(2), 0.2, cfg, 0)
    assert (rep.samples_checked, rep.worst_violation) == (379, 0.0)


# --- collar membership per box ----------------------------------------------


def _collar_rows_by_distance(R, eps, cfg, seed):
    """``_collar_rows`` as it was written first: a full distance to R per move."""
    pts = region_grid(R, cfg.grid_res)
    extra = region_random(R, cfg.grid_res, np.random.default_rng(seed))
    if len(extra):
        pts = np.concatenate([pts, extra], axis=0)
    rng = np.random.default_rng(seed)
    blocks, chunks = [], [pts]
    for j in range(1, R.ambient_dim + 1):
        for alpha in (0, 1):
            near = np.flatnonzero(np.abs(pts[:, j - 1] - alpha) <= eps)
            if len(near) == 0:
                continue
            for d in (0.0, eps / 3.0, 2.0 * eps / 3.0, eps, None):
                if d is None:
                    d = float(rng.uniform(0, eps))
                Q = pts[near]
                Q[:, j - 1] = d if alpha == 0 else 1.0 - d
                inside = dist_to_region(R, Q) <= MEMBERSHIP_TOL
                if np.any(inside):
                    blocks.append((j, alpha, d, near[inside]))
                    chunks.append(Q[inside])
    return len(pts), blocks, np.concatenate(chunks, axis=0)


def _assert_same_collar_rows(R, eps, cfg, seed):
    count, blocks, stacked = _collar_rows(R, eps, cfg, seed)
    ref_count, ref_blocks, ref_stacked = _collar_rows_by_distance(R, eps, cfg, seed)
    assert count == ref_count
    assert [(j, a, d) for j, a, d, _ in blocks] == [(j, a, d) for j, a, d, _ in ref_blocks]
    for (*_, idx), (*_, ref_idx) in zip(blocks, ref_blocks):
        assert np.array_equal(idx, ref_idx)
    assert stacked.shape == ref_stacked.shape and stacked.tobytes() == ref_stacked.tobytes()
    return sum(len(idx) for *_, idx in blocks)


def _random_region(rng, n, boxes):
    out = []
    for _ in range(boxes):
        ends = np.sort(rng.uniform(0.0, 1.0, (n, 2)), axis=1)
        ends[rng.uniform(size=n) < 0.3] = 0.0  # some intervals pinned to the face 0
        ends[rng.uniform(size=n) < 0.2] = 1.0  # and some to the face 1
        flat = rng.uniform(size=n) < 0.2
        ends[flat, 1] = ends[flat, 0]  # and some degenerate inside
        out.append(Box(tuple((float(lo), float(hi)) for lo, hi in ends)))
    return BoxRegion(tuple(out))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_collar_rows_match_distance_membership_on_random_regions(n):
    rng = np.random.default_rng(40 + n)
    cfg = ToleranceConfig(grid_res=7 if n < 4 else 4)
    for trial in range(6):
        R = _random_region(rng, n, int(rng.integers(1, 6)))
        for eps in (0.05, 0.2, 0.5):
            _assert_same_collar_rows(R, eps, cfg, seed=trial)


def test_collar_rows_match_distance_membership_at_the_tolerance():
    # a second box with a face within a float of MEMBERSHIP_TOL from the
    # depths 0.125, 0.25, 0.375 or their mirrors, and from the first box's
    # faces along the other axis
    cfg = ToleranceConfig(grid_res=5)
    moved = set()
    for x in (0.125, 0.25, 0.375):
        for lo in (x + MEMBERSHIP_TOL, x - MEMBERSHIP_TOL):
            for face in (np.nextafter(lo, 0.0), lo, np.nextafter(lo, 1.0)):
                face = float(face)
                for b in (
                    Box(((0.0, face), (0.5, 1.0))),
                    Box(((1.0 - face, 1.0), (0.5 + MEMBERSHIP_TOL, 1.0))),
                    Box(((face, face), (float(np.nextafter(0.5 - MEMBERSHIP_TOL, 1.0)), 0.75))),
                ):
                    for other in (Box(((0.5, 1.0), (0.0, 0.5))), Box(((0.0, 0.5), (0.5, 0.5)))):
                        R = BoxRegion((other, b))
                        moved.add(_assert_same_collar_rows(R, 0.375, cfg, seed=2))
    assert len(moved) > 2  # where the faces sit changes which moves stay in R
    # a face exactly MEMBERSHIP_TOL from the coordinate 0 of a move: along
    # the moved axis and along the other one; one float further is outside
    edge = Box(((0.25, 0.5), (0.0, 0.0)))
    for a, b in (((0.5, 1.0), (None, 1.0)), ((None, 0.2), (0.0, 0.0))):
        counts = []
        for face in (MEMBERSHIP_TOL, float(np.nextafter(MEMBERSHIP_TOL, 1.0))):
            box = Box(tuple((face if lo is None else lo, hi) for lo, hi in (a, b)))
            counts.append(_assert_same_collar_rows(BoxRegion((edge, box)), 0.5, cfg, seed=2))
        assert counts[0] > counts[1]


def test_collar_rows_match_distance_membership_on_scanned_regions():
    cfg = ToleranceConfig(grid_res=9)
    for n in (1, 2, 3):
        regions = [j_complex(n).region, boundary_complex(n).region, full_cube(n).region]
        if n >= 2:
            rim = CubicalComplex(n, tuple(_bottom_rim_face(n, j, v) for j in range(1, n) for v in (0, 1)))
            regions += [rim.region, j_delta_region(n, 0.2)]
        regions += [intersect_complex_face(j_complex(n), F).region for F in positive_faces(n)]
        for R in regions:
            if R.boxes:
                for eps in (0.25, 0.375, 0.2**2):
                    assert _assert_same_collar_rows(R, eps, cfg, seed=5) > 0
