"""Skeleton-induction replacement of a smooth map by a graded-tame one.

Starting from a smooth map on a cubical complex K that is already
eps-admissible on a subcomplex L, this produces a homotopy, constant on
L, to a map that is eps-admissible on all of K.  The algorithm first
flattens the map with a coordinatewise smash, then walks the skeleta of
K: every face not inside L gets its partial homotopy extended over
face x time through the walls-plus-top extension, with the flat width
graded as a power of eps in the face dimension.  Each face is extended
once, and its time-0 face is checked to be tame at its graded width.  The
faces of one dimension are checked in one scan per kind: one collar scan
checks the extension inputs of all of them, and one more the time-0 faces
of those whose input passed.  The faces are then walked in order, and the
first whose extension input or face check failed raises
``ReplacementError`` naming the face.

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
    _collar_scan,
    _extension_parts,
    _extension_tree,
    _extension_widths,
    _require_extension_input,
    check_admissible,
    concat_homotopy,
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


def _extend_stage(
    union: SmoothMap, faces: list[Face], cert: float, eps: float, cfg: ToleranceConfig, seed: int
) -> tuple[float, dict[Face, SmoothMap], list[ExtensionStep]]:
    """Extend ``union`` over face x time for the faces of one skeleton dimension j.

    Each face's chart input must be cert-tame on the walls-plus-top complex
    and eps^(j-1)-tame (capped at 1/2) on the bottom rim; one collar scan
    checks all inputs.  The faces that pass get their extension at flat
    width sigma_j, and one second scan checks each one's time-0 face for
    eps^j-tameness.  The faces are then walked in order, and the first that
    failed either check raises ``ReplacementError``.  Returns sigma_j, each
    face's formula in ambient coordinates and the faces' trace steps.
    """
    n, j = faces[0].ambient_dim, faces[0].dim
    eps_p = min(eps ** (j - 1), 0.5)
    sigma_p = eps**j
    sigma_j = 0.5 * min(eps ** (j + 1), cert)
    _extension_widths(cert, sigma_j, eps_p, sigma_p)
    charts = [face_chart(F, n) for F in faces]
    inputs = tuple(compose(union, chart.forward) for chart in charts)
    inputs_reps = _collar_scan(inputs, _extension_parts(j + 1, cert, eps_p), cfg, seed)
    exts = [
        _extension_tree(g, cert, sigma_j, eps_p, sigma_p) if all(rep.passed for rep in reps) else None
        for g, reps in zip(inputs, inputs_reps)
    ]
    slices = tuple(Homotopy(ext).slice(0.0) for ext in exts if ext is not None)
    # in face order: every face before the first failed input has a report here
    face_reps = iter(_collar_scan(slices, ((full_cube(j).region, sigma_p),), cfg, seed))
    formulas, steps = {}, []
    for F, chart, reps, ext in zip(faces, charts, inputs_reps, exts):
        try:
            _require_extension_input(reps)
        except TamenessError as exc:
            raise ReplacementError(f"extension over face {F.describe()} (dim {j}) failed: {exc}") from exc
        (rep,) = next(face_reps)
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
    return sigma_j, formulas, steps


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
        if faces_j:
            sigma_j, stage_formulas, stage_steps = _extend_stage(union, faces_j, cert, eps, quick, seed)
            formulas |= stage_formulas
            steps += stage_steps
            cert = min(cert, sigma_j)
        union = _route_union(L.union(skeleton(K, j)), formulas, cert, fallback)

    h_ind = Homotopy(union)
    H = concat_homotopy(h_tame, h_ind, cfg)
    g = h_ind.slice(1.0)
    final = check_admissible(g, K, eps, cfg, seed)
    trace = ReplacementTrace(sigma0, eps0, tuple(steps), final)
    return g, H, trace
