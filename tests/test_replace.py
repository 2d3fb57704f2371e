import dataclasses
import json

import numpy as np
import pytest

from tamecube.cubes import (
    CubicalComplex,
    Face,
    boundary_complex,
    complex_grid,
    full_cube,
    positive_faces,
    skeleton,
)
from tamecube.errors import DomainError, ReplacementError, TamenessError
from tamecube.genmaps import random_map_admissible_on, random_smooth_map, random_tame_map
from tamecube.maps import Coord, compose
import tamecube.replace as replace_mod
from tamecube import tame
from tamecube.replace import admissible_replace, face_chart
from tamecube.tame import ToleranceConfig, _extensions, check_admissible, check_tame

QUICK = ToleranceConfig(grid_res=11)
MID = ToleranceConfig(grid_res=17)


def test_face_chart_round_trip():
    rng = np.random.default_rng(0)
    for n, pins in ((2, ((2, 0),)), (3, ((1, 1),)), (3, ((2, 0), (3, 1)))):
        F = Face(n, pins)
        if F.dim == 0:
            continue
        ch = face_chart(F, n)
        pts = rng.uniform(size=(50, F.dim + 1))
        back = compose(ch.inverse, ch.forward)
        assert np.array_equal(back.eval_many(pts), pts)


def test_face_chart_round_trip_bounds():
    # the face coordinates come back exactly, the time to within 2^-54:
    # 1 - (1 - w) rounds at w = 0.1 and 0.3
    grid = np.array([0.0, 0.1, 0.2, 0.3, 0.7, 0.9, 1.0])
    rng = np.random.default_rng(1)
    for n in range(1, 5):
        for F in positive_faces(n):
            ch = face_chart(F, n)
            assert ch.inverse.matrix == tuple(zip(*ch.forward.matrix))
            pts = np.concatenate([np.tile(grid[:, None], F.dim + 1), rng.uniform(size=(20, F.dim + 1))])
            back = compose(ch.inverse, ch.forward).eval_many(pts)
            assert np.array_equal(back[:, :-1], pts[:, :-1])
            assert np.max(np.abs(back[:, -1] - pts[:, -1])) <= 2.0**-54
            assert back[1, -1] != 0.1 and back[3, -1] != 0.3


def test_face_chart_carries_face_start_to_chart_bottom():
    F = Face(2, ((2, 0),))
    ch = face_chart(F, 2)
    # chart point (s, w=1) lands on the face at original time u = 0
    out = ch.forward.eval([0.3, 1.0])
    assert tuple(out) == (0.3, 0.0, 0.0)
    # chart bottom w = 0 is the face at time 1, where the new map lives
    out = ch.forward.eval([0.3, 0.0])
    assert tuple(out) == (0.3, 0.0, 1.0)


def test_face_chart_rejects_vertices():
    with pytest.raises(DomainError):
        face_chart(Face(2, ((1, 0), (2, 0))), 2)


def test_replace_trivial_when_L_is_K():
    K = boundary_complex(2)
    f = random_tame_map(np.random.default_rng(0), 2, 0.2)
    g, H, trace = admissible_replace(f, K, K, 0.2, QUICK)
    pts = complex_grid(K, 11)
    assert np.array_equal(g.eval_many(pts), f.eval_many(pts))
    assert trace.steps == ()
    up = np.concatenate([pts, np.full((len(pts), 1), 0.37)], axis=1)
    assert np.array_equal(H.map.eval_many(up), f.eval_many(pts))


def test_replace_zero_dimensional_complex():
    K = skeleton(boundary_complex(2), 0)
    f = random_smooth_map(np.random.default_rng(1), 2)
    g, H, trace = admissible_replace(f, K, CubicalComplex(2, ()), 0.2, QUICK)
    assert trace.steps == ()
    pts = complex_grid(K, 3)
    assert np.array_equal(g.eval_many(pts), f.eval_many(pts))


def test_replace_empty_complex():
    f = random_smooth_map(np.random.default_rng(2), 2)
    empty = CubicalComplex(2, ())
    g, H, trace = admissible_replace(f, empty, empty, 0.2, QUICK)
    assert g == f
    assert trace.steps == ()
    assert trace.final_report.passed and trace.final_report.samples_checked == 0


def _untame_face_extension(fs, *widths):
    # the first chart coordinate for each map whose input passed: the
    # identity along the face, so its time-0 face is not tame
    return [
        ext if isinstance(ext, TamenessError) else Coord(1, f.in_dim)
        for f, ext in zip(fs, _extensions(fs, *widths))
    ]


def _failing_extension(fs, *widths):
    return [TamenessError("synthetic extension failure") for _ in fs]


@pytest.mark.parametrize("fake", [_failing_extension, _untame_face_extension])
def test_failed_extension_step_raises(monkeypatch, fake):
    # a stage checks every face's input, builds the extensions and checks
    # their time-0 faces: one fake fails the first face's input check, the
    # other builds an extension whose face check fails
    monkeypatch.setattr(replace_mod, "_extensions", fake)
    f = random_smooth_map(np.random.default_rng(7), 2)
    with pytest.raises(ReplacementError, match=r"^extension over face t1=0 \(dim 1\)") as info:
        admissible_replace(f, boundary_complex(2), CubicalComplex(2, ()), 0.2, QUICK)
    if fake is _failing_extension:
        assert isinstance(info.value.__cause__, TamenessError)
        assert str(info.value).endswith("failed: synthetic extension failure")
    else:
        # the identity moves by at most the width 0.2 within the collar
        assert str(info.value).endswith("is not 0.2-tame on the face (worst 2.000e-01)")


def test_earlier_failed_face_check_is_raised_before_a_later_failed_input(monkeypatch):
    # the faces are walked in order after both scans of a stage: the second
    # face's failed input is raised only while the first face's check passes
    scan = tame._collar_scan

    def second_input_fails(fs, parts, cfg, seed):
        reports = scan(fs, parts, cfg, seed)
        if len(parts) == 2:  # the inputs' scan: walls-plus-top complex and bottom rim
            reports[1][0] = dataclasses.replace(reports[1][0], passed=False, worst_violation=1.0)
        return reports

    monkeypatch.setattr(tame, "_collar_scan", second_input_fails)
    f = random_smooth_map(np.random.default_rng(7), 2)
    args = (f, boundary_complex(2), CubicalComplex(2, ()), 0.2, QUICK)
    with pytest.raises(ReplacementError) as info:
        admissible_replace(*args)
    assert str(info.value).startswith("extension over face t1=1 (dim 1) failed: input map is not ")
    monkeypatch.setattr(replace_mod, "_extensions", _untame_face_extension)
    with pytest.raises(ReplacementError) as info:
        admissible_replace(*args)
    assert str(info.value) == "extension over face t1=0 (dim 1) is not 0.2-tame on the face (worst 2.000e-01)"


def test_stage_scans_its_faces_together(monkeypatch):
    # one scan of all the faces' inputs and one of their time-0 faces per
    # skeleton dimension, between the check on L and the final check
    scans = []
    for module in (tame, replace_mod):
        def recording(fs, parts, cfg, seed, scan=module._collar_scan, name=module.__name__):
            scans.append((name.rsplit(".", 1)[1], len(fs), len(parts)))
            return scan(fs, parts, cfg, seed)

        monkeypatch.setattr(module, "_collar_scan", recording)
    n = 3
    L = CubicalComplex(n, (Face(n, ((1, 0),)),))
    f = random_map_admissible_on(np.random.default_rng(4), n, L, 0.2)
    g, H, trace = admissible_replace(f, boundary_complex(n), L, 0.2, QUICK)
    # 12 edges less the 4 of L, then 6 facets less L; of the 19 positive
    # faces of I^3, 14 meet L (all but t1=1 and its 4 edges) and 19 the boundary
    assert scans == [
        ("tame", 1, 14),
        ("tame", 8, 2),
        ("replace", 8, 1),
        ("tame", 5, 2),
        ("replace", 5, 1),
        ("tame", 1, 19),
    ]
    assert [s.dim for s in trace.steps] == [1] * 8 + [2] * 5


def test_taming_widths_follow_the_dimension_of_L():
    # the replacement first tames at eps^max(dim L, 1), with half of that as
    # the flat width: L empty, a vertex or a facet of I^2, then a facet of I^3
    eps = 0.2
    for n, l_pins, power in ((2, None, 1), (2, ((1, 0), (2, 0)), 1), (2, ((1, 0),), 1), (3, ((1, 0),), 2)):
        L = CubicalComplex(n, () if l_pins is None else (Face(n, l_pins),))
        f = random_map_admissible_on(np.random.default_rng(n), n, L, eps)
        g, H, trace = admissible_replace(f, boundary_complex(n), L, eps, QUICK)
        assert trace.taming_eps == eps ** max(L.dim, 1) == eps**power
        assert trace.taming_sigma == trace.taming_eps / 2


def test_replace_interval_identity():
    f = Coord(1, 1)
    K = full_cube(1)
    g, H, trace = admissible_replace(f, K, CubicalComplex(1, ()), 0.25, MID)
    assert trace.final_report.passed
    assert check_admissible(g, K, 0.25, MID).passed


def _assert_contract(f, K, L, eps, cfg, seed):
    """Replace f on K rel L and assert the contract: the final report passes,
    H is f and g at times 0 and 1 on K's grid and f on L at five times, and
    g passes an independent check on a finer grid with another seed.  Any
    error of the replacement is raised as an ``AssertionError`` naming the pair."""
    try:
        g, H, trace = admissible_replace(f, K, L, eps, cfg, seed)
    except Exception as e:
        raise AssertionError(f"{K.describe()} rel {L.describe()}, eps {eps}: {e!r}") from e
    assert trace.final_report.passed

    def gap(u, pts, want):
        at_u = np.concatenate([pts, np.full((len(pts), 1), u)], axis=1)
        return np.max(np.abs(H.map.eval_many(at_u) - want.eval_many(pts)), initial=0.0)

    pts = complex_grid(K, cfg.grid_res)
    assert gap(0.0, pts, f) <= 1e-9 and gap(1.0, pts, g) <= 1e-9
    lpts = complex_grid(L, cfg.grid_res)
    assert all(gap(u, lpts, f) <= 1e-9 for u in (0.0, 0.25, 0.5, 0.75, 1.0))
    assert check_admissible(g, K, eps, ToleranceConfig(grid_res=2 * cfg.grid_res - 1), seed + 1).passed


@pytest.mark.parametrize(
    "n,l_pins",
    [(2, ((1, 0),)), (2, ((2, 1),)), (3, ((1, 0),)), (3, ((3, 1),))],
)
def test_replace_boundary_cases(n, l_pins):
    eps = 0.2
    L = CubicalComplex(n, (Face(n, l_pins),))
    f = random_map_admissible_on(np.random.default_rng(10 * n + l_pins[0][0]), n, L, eps)
    _assert_contract(f, boundary_complex(n), L, eps, QUICK if n == 3 else MID, seed=3)


def test_replace_with_a_maximal_vertex_outside_L():
    # the vertex (1, 1) has no face to extend over: its points keep the
    # tamed map's constant homotopy
    K = CubicalComplex(2, (Face(2, ((1, 1), (2, 1))), Face(2, ((2, 0),))))
    f = random_smooth_map(np.random.default_rng(8), 2)
    _assert_contract(f, K, CubicalComplex(2, ()), 0.2, MID, seed=0)


def _random_face(rng, n):
    return Face(n, tuple((a, int(v)) for a, v in enumerate(rng.integers(0, 3, n), 1) if v < 2))


def _random_pair_case(i):
    """Case i of the sweep: n = 1-3 at grid 17 for i < 60, then n = 4 at grid
    9; K a union of 1-3 random faces, L a union of 0-2 faces of K."""
    rng = np.random.default_rng(i)
    n, grid = (1 + i % 3, 17) if i < 60 else (4, 9)
    eps = (0.05, 0.1, 0.2, 0.3, 0.45)[i % 5]
    K = CubicalComplex(n, tuple(_random_face(rng, n) for _ in range(rng.integers(1, 4))))
    faces = K.faces()
    L = CubicalComplex(n, tuple(faces[k] for k in rng.integers(0, len(faces), rng.integers(0, 3))))
    return random_map_admissible_on(rng, n, L, eps), K, L, eps, ToleranceConfig(grid_res=grid), i


def test_random_pairs_meet_the_contract():
    # every case either meets the contract or is reported, all at once
    failures = []
    for i in range(64):
        try:
            _assert_contract(*_random_pair_case(i))
        except AssertionError as e:
            failures.append(f"case {i}: {e}")
    assert not failures, "\n".join(failures)


def test_random_map_admissible_on_the_full_cube():
    # I^n pins no axis, so no gate leaves room for a wild part
    for n in (1, 2, 3):
        for seed in range(10):
            f = random_map_admissible_on(np.random.default_rng(seed), n, full_cube(n), 0.2)
            assert check_admissible(f, full_cube(n), 0.2).passed, (n, seed)


def test_replace_with_empty_L():
    K = boundary_complex(2)
    f = random_smooth_map(np.random.default_rng(3), 2, out_dim=2)
    g, H, trace = admissible_replace(f, K, CubicalComplex(2, ()), 0.2, MID)
    assert trace.final_report.passed
    assert check_admissible(g, K, 0.2, ToleranceConfig(grid_res=33)).passed


def test_trace_structure():
    n = 3
    K = boundary_complex(n)
    L = CubicalComplex(n, (Face(n, ((1, 0),)),))
    f = random_map_admissible_on(np.random.default_rng(4), n, L, 0.2)
    g, H, trace = admissible_replace(f, K, L, 0.2, QUICK)
    dims = [s.dim for s in trace.steps]
    assert dims == sorted(dims)
    # every face of K of dimension <= dim K outside L appears exactly once
    expected = {
        F.describe()
        for j in (1, 2)
        for F in K.faces(min_dim=j)
        if F.dim == j and not any(F.subface_of(M) for M in L.maximal_faces)
    }
    assert {s.face for s in trace.steps} == expected
    assert len(trace.steps) == len(expected)
    js = trace.to_json()
    assert set(js) == {"taming_sigma", "taming_eps", "steps", "final"}
    # processed faces stay graded-tame at their own exponent
    for s in trace.steps:
        assert s.sigma < 0.2**s.dim
        assert s.face_check_worst <= 1e-9


def test_scan_reports_keep_plain_python_types():
    # json writes no numpy scalar: the reports that a scan's vectorized
    # reduction gives hold plain Python values, failed or passed, and so
    # does a replacement's trace
    f = random_smooth_map(np.random.default_rng(5), 2, out_dim=2)
    L = CubicalComplex(2, (Face(2, ((1, 0),)),))
    h = random_map_admissible_on(np.random.default_rng(2), 2, L, 0.2)
    g, H, trace = admissible_replace(h, boundary_complex(2), L, 0.2, QUICK)
    reports = [check_tame(f, full_cube(2), 0.2, QUICK), check_admissible(f, boundary_complex(2), 0.2, QUICK)]
    assert [rep.passed for rep in reports + [trace.final_report]] == [False, False, True]
    for rep in reports + [trace.final_report]:
        assert type(rep.passed) is bool and type(rep.worst_violation) is float and type(rep.samples_checked) is int
        json.dumps(rep.to_json())
    for rep in reports:
        w = rep.witness
        assert type(w.axis) is int and type(w.alpha) is int and type(w.depth) is float
        assert all(type(x) is float for x in w.point)
    assert all(type(worst) is float and type(passed) is bool for _, _, worst, passed in reports[1].per_face)
    assert all(type(s.face_check_worst) is float for s in trace.steps) and trace.steps
    json.dumps(trace.to_json())


def test_replace_validations():
    K = boundary_complex(2)
    L = CubicalComplex(2, (Face(2, ((1, 0),)),))
    f = random_smooth_map(np.random.default_rng(5), 2)
    with pytest.raises(TamenessError):
        # the second coordinate is the identity along L, hence not tame there
        admissible_replace(Coord(2, 2), K, L, 0.2, QUICK)
    with pytest.raises(DomainError):
        admissible_replace(f, K, CubicalComplex(2, ()), 0.5, QUICK)
    bad_L = CubicalComplex(2, (Face(2, ()),))  # the full square is not in K
    with pytest.raises(DomainError):
        admissible_replace(f, K, bad_L, 0.2, QUICK)


def test_overlapping_faces_agree():
    # formulas of adjacent processed faces agree on their shared edge
    n = 2
    K = boundary_complex(n)
    L = CubicalComplex(n, ())
    f = random_smooth_map(np.random.default_rng(6), n)
    g, H, trace = admissible_replace(f, K, L, 0.2, MID)
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    for u in (0.0, 0.5, 1.0):
        su = np.concatenate([corners, np.full((4, 1), u)], axis=1)
        vals = H.map.eval_many(su)
        assert np.all(np.isfinite(vals))
    assert check_admissible(g, K, 0.2, ToleranceConfig(grid_res=33)).passed
