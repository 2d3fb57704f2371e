import dataclasses

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
from tamecube.replace import admissible_replace, face_chart
from tamecube.tame import ToleranceConfig, check_admissible

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


def _untame_face_extension(f, *widths):
    # the first chart coordinate: the identity along the face, so its time-0 face is not tame
    return Coord(1, f.in_dim)


def _failing_extension(reps):
    raise TamenessError("synthetic extension failure")


@pytest.mark.parametrize("fake", [_failing_extension, _untame_face_extension])
def test_failed_extension_step_raises(monkeypatch, fake):
    # a stage checks every face's input, builds the extensions and checks
    # their time-0 faces: one fake fails the first face's input check, the
    # other builds an extension whose face check fails
    seam = "_require_extension_input" if fake is _failing_extension else "_extension_tree"
    monkeypatch.setattr(replace_mod, seam, fake)
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
    scan = replace_mod._collar_scan

    def second_input_fails(fs, parts, cfg, seed):
        reports = scan(fs, parts, cfg, seed)
        if len(parts) == 2:  # the inputs' scan: walls-plus-top complex and bottom rim
            reports[1][0] = dataclasses.replace(reports[1][0], passed=False, worst_violation=1.0)
        return reports

    monkeypatch.setattr(replace_mod, "_collar_scan", second_input_fails)
    f = random_smooth_map(np.random.default_rng(7), 2)
    args = (f, boundary_complex(2), CubicalComplex(2, ()), 0.2, QUICK)
    with pytest.raises(ReplacementError) as info:
        admissible_replace(*args)
    assert str(info.value).startswith("extension over face t1=1 (dim 1) failed: input map is not ")
    monkeypatch.setattr(replace_mod, "_extension_tree", _untame_face_extension)
    with pytest.raises(ReplacementError) as info:
        admissible_replace(*args)
    assert str(info.value) == "extension over face t1=0 (dim 1) is not 0.2-tame on the face (worst 2.000e-01)"


def test_stage_scans_its_faces_together(monkeypatch):
    # one scan of all the faces' inputs and one of their time-0 faces per
    # skeleton dimension, between the check on L and the final check
    from tamecube import tame

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
        ("replace", 8, 2),
        ("replace", 8, 1),
        ("replace", 5, 2),
        ("replace", 5, 1),
        ("tame", 1, 19),
    ]
    assert [s.dim for s in trace.steps] == [1] * 8 + [2] * 5


def test_replace_interval_identity():
    f = Coord(1, 1)
    K = full_cube(1)
    g, H, trace = admissible_replace(f, K, CubicalComplex(1, ()), 0.25, MID)
    assert trace.final_report.passed
    assert check_admissible(g, K, 0.25, MID).passed


@pytest.mark.parametrize(
    "n,l_pins",
    [(2, ((1, 0),)), (2, ((2, 1),)), (3, ((1, 0),)), (3, ((3, 1),))],
)
def test_replace_boundary_cases(n, l_pins):
    eps = 0.2
    K = boundary_complex(n)
    L = CubicalComplex(n, (Face(n, l_pins),))
    rng = np.random.default_rng(10 * n + l_pins[0][0])
    f = random_map_admissible_on(rng, n, L, eps)
    cfg = QUICK if n == 3 else MID
    g, H, trace = admissible_replace(f, K, L, eps, cfg, seed=3)
    assert trace.final_report.passed
    # endpoints
    pts = complex_grid(K, cfg.grid_res)
    assert np.max(np.abs(H.slice(0.0).eval_many(pts) - f.eval_many(pts))) <= 1e-9
    assert np.max(np.abs(H.slice(1.0).eval_many(pts) - g.eval_many(pts))) <= 1e-9
    # relative to L
    lpts = complex_grid(L, cfg.grid_res)
    fl = f.eval_many(lpts)
    for u in (0.0, 0.25, 0.5, 0.75, 1.0):
        su = np.concatenate([lpts, np.full((len(lpts), 1), u)], axis=1)
        assert np.max(np.abs(H.map.eval_many(su) - fl)) <= 1e-9


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
