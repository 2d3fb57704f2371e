import numpy as np
import pytest

from tamecube.cubes import (
    MEMBERSHIP_TOL,
    Box,
    BoxRegion,
    CubicalComplex,
    Face,
    boundary_complex,
    box_grid,
    chamber_region,
    complex_grid,
    dist_to_complex,
    dist_to_region,
    full_cube,
    intersect_region_face,
    j_complex,
    j_delta_region,
    positive_faces,
    region_grid,
    region_random,
    skeleton,
    unique_rows,
)
from tamecube.errors import DimensionError, DomainError


def test_boundary_complex_counts():
    assert len(boundary_complex(1).maximal_faces) == 2
    assert len(boundary_complex(2).maximal_faces) == 4
    assert len(boundary_complex(3).maximal_faces) == 6
    assert all(f.dim == 2 for f in boundary_complex(3).maximal_faces)
    with pytest.raises(DomainError):
        boundary_complex(0)


def test_j_complex_shape():
    assert [f.pinned for f in j_complex(1).maximal_faces] == [((1, 1),)]
    assert set(f.pinned for f in j_complex(2).maximal_faces) == {
        ((1, 0),),
        ((1, 1),),
        ((2, 1),),
    }
    faces3 = j_complex(3).maximal_faces
    assert len(faces3) == 5
    assert ((3, 0),) not in [f.pinned for f in faces3]


def test_skeleton():
    sk0 = skeleton(boundary_complex(2), 0)
    assert len(sk0.maximal_faces) == 4 and all(f.dim == 0 for f in sk0.maximal_faces)
    assert skeleton(j_complex(2), 1) == j_complex(2)
    sk1 = skeleton(boundary_complex(3), 1)
    assert len(sk1.maximal_faces) == 12 and all(f.dim == 1 for f in sk1.maximal_faces)
    assert skeleton(boundary_complex(2), 5) == boundary_complex(2)


def test_chamber_region():
    ch = chamber_region(full_cube(2), 0.25)
    assert ch.boxes == (Box(((0.25, 0.75), (0.25, 0.75))),)
    chj = chamber_region(j_complex(2), 0.25)
    assert set(b.intervals for b in chj.boxes) == {
        ((0.0, 0.0), (0.25, 0.75)),
        ((1.0, 1.0), (0.25, 0.75)),
        ((0.25, 0.75), (1.0, 1.0)),
    }
    center = chamber_region(full_cube(2), 0.5)
    assert center.boxes[0].intervals == ((0.5, 0.5), (0.5, 0.5))
    with pytest.raises(DomainError):
        chamber_region(full_cube(2), 0.0)


def test_chamber_contained_in_complex():
    for n in (1, 2, 3):
        K = j_complex(n)
        pts = region_grid(chamber_region(K, 0.2), 5)
        assert np.all(dist_to_complex(K, pts) <= 1e-12)


def test_j_delta_region_membership():
    r = j_delta_region(3, 0.2)
    d = dist_to_region(r, [(0.5, 0.5, 0.0), (0.1, 0.5, 0.0), (0.5, 0.95, 0.0)])
    assert d[0] > MEMBERSHIP_TOL
    assert d[1] <= MEMBERSHIP_TOL  # bottom collar
    assert d[2] <= MEMBERSHIP_TOL
    assert np.all(dist_to_region(r, complex_grid(j_complex(3), 5)) <= MEMBERSHIP_TOL)
    with pytest.raises(DomainError):
        j_delta_region(3, 0.5)


def test_downward_closure_membership():
    for n in (2, 3):
        K = j_complex(n)
        for f in K.faces():
            assert np.all(dist_to_complex(K, box_grid(f.box(), 3)) <= MEMBERSHIP_TOL)


def test_j_union_bottom_equals_boundary():
    for n in (1, 2, 3):
        bottom = CubicalComplex(n, (Face(n, ((n, 0),)),))
        union = j_complex(n).union(bottom)
        res = 5 if n == 3 else 33
        pts = complex_grid(boundary_complex(n), res)
        assert np.all(dist_to_complex(union, pts) <= 1e-12)
        pts2 = complex_grid(union, res)
        assert np.all(dist_to_complex(boundary_complex(n), pts2) <= 1e-12)


def test_normalization_drops_dominated_faces():
    big = Face(2, ((1, 0),))
    small = Face(2, ((1, 0), (2, 1)))
    K = CubicalComplex(2, (small, big, big))
    assert K.maximal_faces == (big,)


def test_positive_faces_count():
    assert len(positive_faces(2)) == 5  # 4 edges + the square
    assert len(positive_faces(3)) == 19  # 12 edges + 6 squares + the cube


def test_intersect_complex_face():
    # the two vertices on t2=0 lie in that edge and are dropped
    got = intersect_region_face(boundary_complex(2).region, Face(2, ((2, 0),)))
    assert got.boxes == (Face(2, ((2, 0),)).box(),)
    empty = intersect_region_face(CubicalComplex(2, (Face(2, ((1, 0),)),)).region, Face(2, ((1, 1),)))
    assert empty.boxes == ()
    # a repeated box is kept once, and the boxes are ordered by their degenerate axes
    top, bottom, left = (Face(2, (pin,)).box() for pin in ((2, 1), (2, 0), (1, 0)))
    got = intersect_region_face(BoxRegion(2, (top, bottom, bottom, left)), full_cube(2).maximal_faces[0])
    assert got.boxes == (left, bottom, top)


def _complex_meet_face(K: CubicalComplex, F: Face) -> CubicalComplex:
    """K meet F as a complex: each maximal face of K that agrees with F's pins,
    with F's pins merged in, normalized by ``CubicalComplex``."""
    fpins = dict(F.pinned)
    faces = []
    for g in K.maximal_faces:
        gpins = dict(g.pinned)
        if all(gpins.get(a, v) == v for a, v in fpins.items()):
            faces.append(Face(K.ambient_dim, tuple({**gpins, **fpins}.items())))
    return CubicalComplex(K.ambient_dim, tuple(faces))


def _package_complexes(n: int) -> list[CubicalComplex]:
    """The complexes the package builds on I^n, their skeleta, and the bottom rim."""
    found = [full_cube(n), boundary_complex(n), j_complex(n)]
    found += [skeleton(K, j) for K in found for j in range(K.dim)]
    found += [CubicalComplex(n, (F,)) for F in boundary_complex(n).maximal_faces]
    if n >= 2:
        found.append(CubicalComplex(n, tuple(Face(n, ((j, v), (n, 0))) for j in range(1, n) for v in (0, 1))))
    return found


def _random_complexes(n: int, count: int, seed: int) -> list[CubicalComplex]:
    """``count`` complexes on I^n, each spanned by 1 to 5 seeded faces of I^n."""
    rng = np.random.default_rng(seed)
    faces = full_cube(n).faces()
    return [
        CubicalComplex(n, tuple(faces[i] for i in rng.choice(len(faces), size=rng.integers(1, 6))))
        for _ in range(count)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_region_meet_face_is_the_complex_meet_face(n):
    for K in _package_complexes(n) + _random_complexes(n, 60, seed=n):
        for F in positive_faces(n):
            assert intersect_region_face(K.region, F) == _complex_meet_face(K, F).region, (K.describe(), F.describe())


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
@pytest.mark.parametrize("what", ["region"])
def test_intersect_refuses_a_face_of_another_cube(what, n, m):
    with pytest.raises(DimensionError, match=f"^face t{m}=1 has ambient {m}, {what} has {n}$"):
        intersect_region_face(full_cube(n).region, Face(m, ((m, 1),)))


def test_subcomplex_relation():
    assert j_complex(2).is_subcomplex_of(boundary_complex(2))
    assert not boundary_complex(2).is_subcomplex_of(j_complex(2))


@pytest.mark.parametrize("n,m", [(3, 2), (2, 3)])
def test_subcomplex_relation_refuses_another_dimension(n, m):
    # an empty complex too, which has no face to test against the other's
    for K in (CubicalComplex(n, ()), boundary_complex(n)):
        with pytest.raises(DimensionError, match="^subcomplex test of complexes with different ambient dimensions$"):
            K.is_subcomplex_of(boundary_complex(m))


def test_face_fields_are_plain_ints():
    # a numpy integer is an integer: it is stored as an int, so the face
    # describes, compares and hashes as the one built from ints
    F = Face(np.int64(3), ((np.int64(2), np.int64(1)),))
    K = CubicalComplex(np.int32(3), (F,))
    assert F == Face(3, ((2, 1),)) and hash(F) == hash(Face(3, ((2, 1),)))
    assert F.describe() == "t2=1" and K == CubicalComplex(3, (Face(3, ((2, 1),)),))
    assert {type(v) for v in (F.ambient_dim, K.ambient_dim, *F.pinned[0])} == {int}


def test_region_validation():
    for bad in ((0.5, 0.2), (0.0, float("inf")), (-0.5, 0.5), (0.5, 1.5), (float("nan"), 0.5)):
        with pytest.raises(DomainError, match="bad interval"):
            Box(((0.0, 1.0), bad))
    r = BoxRegion(1, (Box(((0.0, 1.0),)),))
    with pytest.raises(DimensionError, match="box has ambient 1, region has 2"):
        BoxRegion(2, r.boxes)
    d = dist_to_region(r, [(0.5,), (1.5,)])
    assert d[0] <= MEMBERSHIP_TOL < d[1]


def test_face_box_and_complex_region():
    f = Face(3, ((3, 1), (1, 0)))
    assert f.box() == Box(((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    assert f.box(0.2, 0.8) == Box(((0.0, 0.0), (0.2, 0.8), (1.0, 1.0)))
    K = boundary_complex(2)
    assert K.region == BoxRegion(2, tuple(g.box() for g in K.maximal_faces))
    assert CubicalComplex(2, ()).region.boxes == ()


def test_empty_complex_grid_and_distance():
    empty = CubicalComplex(3, ())
    assert complex_grid(empty, 5).shape == (0, 3)
    assert np.all(np.isinf(dist_to_complex(empty, np.zeros((2, 3)))))


def test_chamber_containment_at_spec_resolution():
    for n in (1, 2, 3):
        K = j_complex(n)
        pts = region_grid(chamber_region(K, 0.2), 33 if n <= 2 else 17)
        assert np.all(dist_to_complex(K, pts) <= 1e-12)
    # full-resolution point-set identity between the two boundary builds
    for n in (1, 2, 3):
        bottom = CubicalComplex(n, (Face(n, ((n, 0),)),))
        union = j_complex(n).union(bottom)
        pts = complex_grid(boundary_complex(n), 33)
        assert np.all(dist_to_complex(union, pts) <= 1e-12)


def test_unique_rows_matches_np_unique():
    rng = np.random.default_rng(2)
    cases = [box_grid(b, 9) for b in boundary_complex(3).region.boxes]
    cases.append(rng.integers(0, 3, size=(200, 4)).astype(float))
    cases.append(np.concatenate(cases[:6]))
    cases += [np.zeros((0, 2)), np.zeros((3, 0))]
    for pts in cases:
        rows, inverse = unique_rows(pts)
        expected = np.unique(pts, axis=0)
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
        assert rows[inverse].tobytes() == pts.tobytes()


def _region_random_per_box(R, count, rng):
    """``region_random`` as it was written first: one draw per box."""
    if not R.boxes or count <= 0:
        return np.zeros((0, R.ambient_dim))
    chunks = []
    for b in R.boxes:
        lo = np.array([iv[0] for iv in b.intervals])
        hi = np.array([iv[1] for iv in b.intervals])
        chunks.append(lo + rng.uniform(size=(count, len(b.intervals))) * (hi - lo))
    return np.concatenate(chunks, axis=0)


def test_region_random_matches_a_draw_per_box():
    # one draw for all boxes gives the same points, bit for bit, and leaves
    # the generator where the per-box draws leave it
    rng = np.random.default_rng(7)
    regions = [boundary_complex(3).region, full_cube(0).region, BoxRegion(3, ())]
    for n in (1, 2, 3, 4):
        for boxes in (1, 2, 5):
            ends = np.sort(rng.uniform(size=(boxes, n, 2)), axis=2)
            ends[rng.uniform(size=(boxes, n)) < 0.3] = 0.0  # pinned to the face 0
            flat = rng.uniform(size=(boxes, n)) < 0.3
            ends[flat, 1] = ends[flat, 0]  # degenerate inside
            regions.append(BoxRegion(n, tuple(Box(tuple(map(tuple, box.tolist()))) for box in ends)))
    for seed, R in enumerate(regions):
        for count in (0, 1, 7):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            pts, ref = region_random(R, count, new), _region_random_per_box(R, count, old)
            assert pts.shape == ref.shape == (len(R.boxes) * count, R.ambient_dim)
            assert pts.tobytes() == ref.tobytes()
            assert new.uniform() == old.uniform()
