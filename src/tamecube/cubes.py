"""Faces of the unit cube, cubical subcomplexes, and box regions.

A ``Face`` pins a subset of coordinates of ``I^n`` to 0 or 1; a
``CubicalComplex`` is a downward-closed union of faces stored by its
maximal faces.  ``BoxRegion`` is a finite union of axis-aligned closed
boxes and carries the shrunken chambers and boundary collars, which are
not unions of faces.  A face is a box whose pinned axes are degenerate,
so grids, random draws and distances are defined on box regions only and
a complex is read as its ``region``.  All values are immutable after
construction and safe to share between threads.

Coordinate axes are 1-based throughout the public surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError, DimensionError, _is_number

__all__ = [
    "Face",
    "CubicalComplex",
    "Box",
    "BoxRegion",
    "full_cube",
    "boundary_complex",
    "j_complex",
    "skeleton",
    "chamber_region",
    "j_delta_region",
    "positive_faces",
    "intersect_region_face",
    "dist_to_complex",
    "dist_to_region",
    "complex_grid",
    "region_grid",
    "region_random",
    "unique_rows",
]

MEMBERSHIP_TOL = 1e-12


def _plain_int(v, what: str) -> int:
    """``v`` as an ``int``, refusing a non-integer and a bool: ``True`` would
    describe as ``t1=True`` and ``2.0`` pass as a dimension."""
    if not _is_number(v, Integral):
        raise DomainError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _ambient(n) -> int:
    n = _plain_int(n, "ambient dimension")
    if n < 0:
        raise DomainError(f"ambient dimension must be non-negative, got {n}")
    return n


@dataclass(frozen=True)
class Face:
    """A face of I^n: coordinates in ``pinned`` are fixed to 0 or 1."""

    ambient_dim: int
    pinned: tuple[tuple[int, int], ...]  # sorted ((axis, value), ...), axes 1-based

    def __post_init__(self):
        n = _ambient(self.ambient_dim)
        pinned = tuple((_plain_int(a, "pinned axis"), _plain_int(v, "pinned value")) for a, v in self.pinned)
        axes = [a for a, _ in pinned]
        if len(set(axes)) != len(axes):
            raise DomainError(f"duplicate pinned axes in {self.pinned!r}")
        for a, v in pinned:
            if not 1 <= a <= n:
                raise DomainError(f"pinned axis {a} out of range 1..{n}")
            if v not in (0, 1):
                raise DomainError(f"pinned value must be 0 or 1, got {v!r}")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "pinned", tuple(sorted(pinned)))

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.pinned)

    @property
    def free_axes(self) -> tuple[int, ...]:
        fixed = {a for a, _ in self.pinned}
        return tuple(a for a in range(1, self.ambient_dim + 1) if a not in fixed)

    def subface_of(self, other: "Face") -> bool:
        """True when this face is contained in ``other`` (more pins, same values)."""
        if self.ambient_dim != other.ambient_dim:
            return False
        mine = dict(self.pinned)
        return all(mine.get(a) == v for a, v in other.pinned)

    def box(self, lo: float = 0.0, hi: float = 1.0) -> "Box":
        """The face as a box: pinned axes are degenerate, free axes span [lo, hi]."""
        pins = dict(self.pinned)
        return Box(
            tuple(
                (float(pins[a]), float(pins[a])) if a in pins else (lo, hi)
                for a in range(1, self.ambient_dim + 1)
            )
        )

    def describe(self) -> str:
        if not self.pinned:
            return f"I^{self.ambient_dim}"
        return "&".join(f"t{a}={v}" for a, v in self.pinned)


def _require_face_in(F: Face, ambient_dim: int, what: str) -> None:
    if F.ambient_dim != ambient_dim:
        raise DimensionError(f"face {F.describe()} has ambient {F.ambient_dim}, {what} has {ambient_dim}")


def _maximal(items, holds, key) -> tuple:
    """The distinct ``items`` that no other one ``holds``, sorted by ``key``."""
    unique = dict.fromkeys(items)
    keep = [b for b in unique if not any(c is not b and holds(c, b) for c in unique)]
    return tuple(sorted(keep, key=key))


@dataclass(frozen=True)
class CubicalComplex:
    """A downward-closed union of faces of I^n, stored by maximal faces."""

    ambient_dim: int
    maximal_faces: tuple[Face, ...]

    def __post_init__(self):
        object.__setattr__(self, "ambient_dim", _ambient(self.ambient_dim))
        for f in self.maximal_faces:
            _require_face_in(f, self.ambient_dim, "complex")
        maximal = _maximal(self.maximal_faces, lambda g, f: f.subface_of(g), key=lambda f: f.pinned)
        object.__setattr__(self, "maximal_faces", maximal)

    @property
    def dim(self) -> int:
        if not self.maximal_faces:
            return -1
        return max(f.dim for f in self.maximal_faces)

    @property
    def region(self) -> "BoxRegion":
        """One box per maximal face, in maximal-face order."""
        return BoxRegion(self.ambient_dim, tuple(f.box() for f in self.maximal_faces))

    def faces(self, min_dim: int = 0) -> tuple[Face, ...]:
        """All subfaces of the complex with dimension >= min_dim."""
        seen = set()
        for f in self.maximal_faces:
            free = f.free_axes
            for r in range(len(free) + 1):
                if f.dim - r < min_dim:
                    continue
                for axes in itertools.combinations(free, r):
                    for vals in itertools.product((0, 1), repeat=r):
                        pins = tuple(sorted(f.pinned + tuple(zip(axes, vals))))
                        seen.add(Face(self.ambient_dim, pins))
        return tuple(sorted(seen, key=lambda f: (f.dim, f.pinned)))

    def is_subcomplex_of(self, other: "CubicalComplex") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subcomplex test of complexes with different ambient dimensions")
        return all(
            any(f.subface_of(g) for g in other.maximal_faces) for f in self.maximal_faces
        )

    def union(self, other: "CubicalComplex") -> "CubicalComplex":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("union of complexes with different ambient dimensions")
        return CubicalComplex(self.ambient_dim, self.maximal_faces + other.maximal_faces)

    def describe(self) -> str:
        if not self.maximal_faces:
            return "(empty)"
        return " | ".join(f.describe() for f in self.maximal_faces)


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box inside [0, 1]^n."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not 0.0 <= lo <= hi <= 1.0:
                raise DomainError(f"bad interval [{lo}, {hi}]: need 0 <= lo <= hi <= 1")

    @property
    def ambient_dim(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class BoxRegion:
    """A finite union of boxes in I^n; carrier for chambers and boundary collars."""

    ambient_dim: int
    boxes: tuple[Box, ...]

    def __post_init__(self):
        for b in self.boxes:
            if b.ambient_dim != self.ambient_dim:
                raise DimensionError(f"box has ambient {b.ambient_dim}, region has {self.ambient_dim}")


def full_cube(n: int) -> CubicalComplex:
    if n < 0:
        raise DomainError("dimension must be non-negative")
    return CubicalComplex(n, (Face(n, ()),))


def boundary_complex(n: int) -> CubicalComplex:
    """The 2n codimension-1 faces of I^n."""
    if _ambient(n) < 1:
        raise DomainError("boundary needs dimension >= 1")
    faces = [Face(n, ((j, v),)) for j in range(1, n + 1) for v in (0, 1)]
    return CubicalComplex(n, tuple(faces))


def j_complex(n: int) -> CubicalComplex:
    """The boundary of I^n minus the open bottom face: side walls plus the top.

    The top is the face with the last coordinate pinned to 1; the walls pin
    any earlier coordinate.  For n = 1 this degenerates to the point t1 = 1.
    """
    if n < 1:
        raise DomainError("need dimension >= 1")
    faces = [Face(n, ((n, 1),))]
    faces += [Face(n, ((j, v),)) for j in range(1, n) for v in (0, 1)]
    return CubicalComplex(n, tuple(faces))


def skeleton(K: CubicalComplex, j: int) -> CubicalComplex:
    """All faces of K with dimension <= j."""
    if not _is_number(j, Integral) or j < 0:
        raise DomainError(f"skeleton dimension must be an integer >= 0, got {j!r}")
    faces = [f for f in K.faces() if f.dim <= j]
    return CubicalComplex(K.ambient_dim, tuple(faces))


def chamber_region(K: CubicalComplex, eps: float) -> BoxRegion:
    """Per maximal face, shrink the free coordinates to [eps, 1-eps]."""
    if not 0.0 < eps <= 0.5:
        raise DomainError(f"chamber width must satisfy 0 < eps <= 1/2, got {eps!r}")
    return BoxRegion(K.ambient_dim, tuple(f.box(eps, 1.0 - eps) for f in K.maximal_faces))


def j_delta_region(n: int, delta: float) -> BoxRegion:
    """The boundary of I^n minus the open core of the bottom face.

    Equals ``j_complex(n)`` as boxes plus, for each of the first n-1 axes,
    the closed bottom-face collars where that axis is within delta of 0
    or 1.
    """
    if n < 1:
        raise DomainError("need dimension >= 1")
    if not 0.0 < delta < 0.5:
        raise DomainError(f"collar width must satisfy 0 < delta < 1/2, got {delta!r}")
    boxes = list(j_complex(n).region.boxes)
    for k in range(1, n):
        for lo, hi in ((0.0, delta), (1.0 - delta, 1.0)):
            ivals = [(0.0, 1.0)] * n
            ivals[k - 1] = (lo, hi)
            ivals[n - 1] = (0.0, 0.0)
            boxes.append(Box(tuple(ivals)))
    return BoxRegion(n, tuple(boxes))


def positive_faces(n: int) -> tuple[Face, ...]:
    """All faces of I^n of positive dimension, I^n itself included."""
    return full_cube(n).faces(min_dim=1)


def intersect_region_face(R: BoxRegion, F: Face) -> BoxRegion:
    """R meet F: the boxes of R that reach F, pinned to it, each once and none
    inside another, ordered by their degenerate axes ``((axis, value), ...)``
    as a complex orders its maximal faces by ``pinned``; so ``K.region`` meets
    F in the boxes of the complex K meet F, in their order."""
    _require_face_in(F, R.ambient_dim, "region")
    met = []
    for b in R.boxes:
        ivals = list(b.intervals)
        for a, v in F.pinned:
            lo, hi = ivals[a - 1]
            if not lo - MEMBERSHIP_TOL <= v <= hi + MEMBERSHIP_TOL:
                break
            ivals[a - 1] = (float(v), float(v))
        else:
            met.append(tuple(ivals))
    keep = _maximal(
        met,
        lambda c, b: all(p <= lo and hi <= q for (lo, hi), (p, q) in zip(b, c)),
        key=lambda b: [(a, lo) for a, (lo, hi) in enumerate(b, 1) if lo == hi],
    )
    return BoxRegion(R.ambient_dim, tuple(map(Box, keep)))


# ---------------------------------------------------------------------------
# vectorized distances and sampling


def dist_to_complex(K: CubicalComplex, pts) -> np.ndarray:
    return dist_to_region(K.region, pts)


def _dist_to_box(b: Box, pts: np.ndarray) -> np.ndarray:
    d = np.zeros(len(pts))
    for i, (lo, hi) in enumerate(b.intervals):
        d = np.maximum(d, np.maximum(lo - pts[:, i], pts[:, i] - hi))
    return np.maximum(d, 0.0)


def dist_to_region(R: BoxRegion, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if not R.boxes:
        return np.full(len(pts), np.inf)
    return np.min([_dist_to_box(b, pts) for b in R.boxes], axis=0)


def box_grid(b: Box, res: int) -> np.ndarray:
    """Row-major grid over a box; degenerate axes contribute a single value."""
    axes = [
        np.array([lo]) if lo == hi else np.linspace(lo, hi, res) for lo, hi in b.intervals
    ]
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    if not mesh:
        return np.zeros((1, 0))
    return np.stack([m.ravel() for m in mesh], axis=1)


def complex_grid(K: CubicalComplex, res: int) -> np.ndarray:
    return region_grid(K.region, res)


def region_grid(R: BoxRegion, res: int) -> np.ndarray:
    if not R.boxes:
        return np.zeros((0, R.ambient_dim))
    pts = np.concatenate([box_grid(b, res) for b in R.boxes], axis=0)
    return unique_rows(pts)[0]


def unique_rows(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``pts`` in lexicographic order, and the inverse.

    ``rows[inverse]`` equals ``pts``.  Rows are compared by value and come
    out in the order ``np.unique(pts, axis=0)`` gives, which sorts far
    slower: one stable lexsort, then neighbours compared column by column.
    """
    order = np.lexsort(pts.T[::-1]) if pts.shape[1] else np.arange(len(pts))
    new = np.zeros(len(pts), dtype=bool)
    new[:1] = True
    for col in pts.T:  # no sorted copy of every row
        ordered = col[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(len(pts), dtype=np.intp)
    inverse[order] = np.cumsum(new)
    inverse -= 1
    return pts[order[new]], inverse


def region_random(R: BoxRegion, count: int, rng: np.random.Generator) -> np.ndarray:
    if not R.boxes or count <= 0:
        return np.zeros((0, R.ambient_dim))
    # one draw for every box gives the numbers, in order, of one draw per box
    n = R.ambient_dim
    ends = np.array([b.intervals for b in R.boxes]).reshape(len(R.boxes), 1, n, 2)
    lo, hi = ends[..., 0], ends[..., 1]
    pts = rng.uniform(size=(len(R.boxes), count, n))
    return (lo + pts * (hi - lo)).reshape(len(R.boxes) * count, n)
