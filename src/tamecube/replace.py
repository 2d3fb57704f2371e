"""Skeleton-induction replacement of a smooth map by a graded-tame one.

Starting from a smooth map on a cubical complex K that is already
eps-admissible on a subcomplex L, this produces a homotopy, constant on
L, to a map that is eps-admissible on all of K.  The algorithm first
flattens the map with a coordinatewise smash, then walks the skeleta of
K: every face not inside L gets its partial homotopy extended over
face x time through the walls-plus-top extension, with the flat width
graded as a power of eps in the face dimension.  Each face is extended
once, and its time-0 face is checked to be tame at its graded width; a
failed extension or check raises ``ReplacementError`` naming the face.

The union of the per-face extensions is represented as a nested
piecewise tree that routes a point to a face containing it, with
breakpoints inside the common flat collar of all pieces; on the complex
this routing is value-exact because every piece is collar-constant at
that width.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .cubes import CubicalComplex, Face, full_cube, skeleton
from .errors import DimensionError, DomainError, ReplacementError, TamenessError
from .maps import (
    Affine,
    Homotopy,
    SmoothMap,
    compose,
    constant_homotopy,
    piecewise,
)
from .tame import (
    DEFAULT_TOLERANCES,
    TamenessReport,
    ToleranceConfig,
    check_admissible,
    check_tame,
    concat_homotopy,
    extend_tame,
    tame_replace,
)

__all__ = [
    "FaceChart",
    "face_chart",
    "ExtensionStep",
    "ReplacementTrace",
    "admissible_replace",
]

@dataclass(frozen=True)
class FaceChart:
    """Affine identification of (face x time) with a cube carrying the walls-plus-top pair.

    ``forward`` maps chart coordinates (s_1..s_j, w) into ambient
    (t_1..t_n, u) with the face's pinned values filled in and u = 1 - w,
    so the boundary-and-start data of the face sits exactly on the
    walls-plus-top complex of the chart cube.  ``inverse`` projects back;
    its matrix is the transpose of ``forward``'s.  inverse o forward
    returns the face coordinates exactly and the time to within 2^-54, the
    rounding of 1 - (1 - w).
    """

    forward: SmoothMap
    inverse: SmoothMap


def face_chart(F: Face, n: int) -> FaceChart:
    if F.ambient_dim != n:
        raise DimensionError(f"face has ambient {F.ambient_dim}, expected {n}")
    j = F.dim
    if j == 0:
        raise DomainError("a vertex needs no chart; use the constant homotopy")
    # a 1 from each free axis to its ambient axis, and -1 from w to u
    matrix = [[0.0] * (j + 1) for _ in range(n + 1)]
    for i, axis in enumerate(F.free_axes):
        matrix[axis - 1][i] = 1.0
    matrix[n][j] = -1.0
    pins = dict(F.pinned)
    forward = Affine(tuple(map(tuple, matrix)), tuple(pins.get(a, 0.0) for a in range(1, n + 1)) + (1.0,))
    return FaceChart(forward=forward, inverse=Affine(tuple(zip(*matrix)), (0.0,) * j + (1.0,)))


@dataclass(frozen=True)
class ExtensionStep:
    face: str
    dim: int
    sigma: float
    input_eps: float
    eps_prime: float
    sigma_prime: float
    retries: int  # always 0: each face is extended once
    face_check_worst: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReplacementTrace:
    taming_sigma: float
    taming_eps: float
    steps: tuple[ExtensionStep, ...]
    final_report: TamenessReport

    def to_json(self) -> dict:
        return {
            "taming_sigma": self.taming_sigma,
            "taming_eps": self.taming_eps,
            "steps": [s.to_json() for s in self.steps],
            "final": self.final_report.to_json(),
        }


def _route_union(
    complex_: CubicalComplex, formulas: dict[Face, SmoothMap], collar: float, fallback: SmoothMap
) -> SmoothMap:
    """Piecewise tree evaluating, on the complex, the union of per-face formulas.

    Split axes carry breakpoints at (collar, 1-collar); a leaf signature
    pins the non-middle axes and the leaf evaluates the formula of the
    first maximal face containing that pinned face.  Off the complex the
    value is whichever formula the routing lands on; nothing samples
    there.
    """
    n = complex_.ambient_dim
    split_axes = sorted({a for f in complex_.maximal_faces for a, _ in f.pinned})

    def build(axis_pos: int, pins: tuple[tuple[int, int], ...]) -> SmoothMap:
        if axis_pos == len(split_axes):
            leaf = Face(n, pins)
            for M in complex_.maximal_faces:
                if leaf.subface_of(M):
                    return formulas[M]
            return fallback
        axis = split_axes[axis_pos]
        low = build(axis_pos + 1, pins + ((axis, 0),))
        mid = build(axis_pos + 1, pins)
        high = build(axis_pos + 1, pins + ((axis, 1),))
        if low is mid and mid is high:
            return mid
        return piecewise(axis, (collar, 1.0 - collar), (low, mid, high))

    return build(0, ())


def admissible_replace(
    f: SmoothMap,
    K: CubicalComplex,
    L: CubicalComplex,
    eps: float,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> tuple[SmoothMap, Homotopy, ReplacementTrace]:
    """Homotope f, relative to L, to a map that is eps-admissible on K.

    Returns (g, H, trace); H runs from f at time 0 to g at time 1 and is
    constant in time on L.  Requires f to be eps-admissible on L.
    """
    n = K.ambient_dim
    if f.in_dim != n:
        raise DimensionError(f"map has in_dim {f.in_dim}, complex has ambient {n}")
    if not 0.0 < eps < 0.5:
        raise DomainError(
            f"replacement needs 0 < eps < 1/2 (the edge-step width eps**1 must "
            f"stay below the auxiliary cap 1/2), got {eps!r}"
        )
    if not L.is_subcomplex_of(K):
        raise DomainError("L is not a subcomplex of K")
    # cheap internal config for per-step verification; the caller's cfg is
    # used for the final admissibility report
    quick = cfg.capped(11)
    check_admissible(f, L, eps, quick, seed).require(f"{eps}-admissible on L")
    if K.dim <= 0 or K.is_subcomplex_of(L):
        final = check_admissible(f, K, eps, cfg, seed)
        return f, constant_homotopy(f), ReplacementTrace(0.0, 0.0, (), final)

    dim_l = max(L.dim, 1)
    eps0 = eps**dim_l
    sigma0 = 0.5 * eps0
    f0, h_tame = tame_replace(f, sigma0, eps0)

    cert = sigma0
    union = constant_homotopy(f0).map
    fallback = union
    formulas: dict[Face, SmoothMap] = {M: union for M in L.maximal_faces}
    steps: list[ExtensionStep] = []
    for j in range(1, K.dim + 1):
        faces_j = [
            F
            for F in K.faces(min_dim=j)
            if F.dim == j and not any(F.subface_of(M) for M in L.maximal_faces)
        ]
        eps_p = min(eps ** (j - 1), 0.5)
        sigma_p = eps**j
        sigma_j = 0.5 * min(eps ** (j + 1), cert)
        for F in faces_j:
            chart = face_chart(F, n)
            try:
                ext = extend_tame(
                    compose(union, chart.forward),
                    eps=cert,
                    sigma=sigma_j,
                    eps_prime=eps_p,
                    sigma_prime=sigma_p,
                    cfg=quick,
                    seed=seed,
                )
            except TamenessError as exc:
                raise ReplacementError(f"extension over face {F.describe()} (dim {j}) failed: {exc}") from exc
            rep = check_tame(Homotopy(ext).slice(0.0), full_cube(j), sigma_p, quick, seed)
            if not rep.passed:
                raise ReplacementError(
                    f"extension over face {F.describe()} (dim {j}) is not {sigma_p}-tame "
                    f"on the face (worst {rep.worst_violation:.3e})"
                )
            formulas[F] = compose(ext, chart.inverse)
            steps.append(
                ExtensionStep(
                    face=F.describe(), dim=j, sigma=sigma_j, input_eps=cert, eps_prime=eps_p,
                    sigma_prime=sigma_p, retries=0, face_check_worst=rep.worst_violation,
                )
            )
        if faces_j:
            cert = min(cert, sigma_j)
        union = _route_union(L.union(skeleton(K, j)), formulas, cert, fallback)

    h_ind = Homotopy(union)
    H = concat_homotopy(h_tame, h_ind, cfg)
    g = h_ind.slice(1.0)
    final = check_admissible(g, K, eps, cfg, seed)
    trace = ReplacementTrace(sigma0, eps0, tuple(steps), final)
    return g, H, trace
