"""Collar-constancy checking and the operators built on it.

A map on a subset of I^n is eps-tame when it is constant along the
collars: its value at a point whose coordinate j is within eps of a face
value equals its value at every depth in [0, eps] from that face, where
the moved point stays in the subset.  Admissibility grades the width by
the dimension of the face being tested.  Every check is one collar scan
over (box region, width) parts, a complex read as one box per maximal
face: a grid per box plus seeded random points, each compared with its
moves to the depths (0, w/3, 2w/3, w) and one seeded draw, with exact max
reduction so the worst violation and its witness are deterministic.  A
scan draws its seeded numbers once and hands them to every part; each
part reads the numbers that two ``default_rng(seed)`` streams of its own
would give it, scaled into its boxes by the bounds its membership tests
read.  A part's comparisons are one table of sample and (axis, side,
depth) key indices, reduced per map in one pass.  A move stays in the
region when some box holds both the
sample's other coordinates and the new coordinate; per axis and side this
is one (box, sample) test per other coordinate and one (depth, box) test,
so its cost in array operations does not grow with the boxes or depths.  A
scan checks one or more maps of one input dimension on the same parts: it
evaluates their tuple once, in fixed-size slices of the distinct rows
that its parts' real comparisons read, so a subtree that the maps share
is evaluated once per row, and reduces each map's columns on its own.  A
comparison is real when its moved point differs from its sample; a move
to the sample's own coordinate is dropped, and a sample that no kept move
reads is not evaluated, so a value that is not finite there raises nothing.
A side whose boxes all pin its axis at one value, with no other depth in
the region, has no real comparison and is skipped before any sample test.

The operators: ``tame_replace`` composes with a coordinatewise smash to
produce a tame map together with the straight-line homotopy; ``extend_tame``
extends a tame map from the walls-plus-top complex over the whole cube via
an approximate retraction with time-modulated band widths (one function
checks and builds the extensions of many maps in one scan, so that the
replacement extends all faces of a dimension at once);
``extend_to_jdelta`` pushes a map outward onto the collared boundary
region; the concatenation operators splice homotopies (along time) and
maps (along the first axis) through one splice, flat at the seam 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .cubes import (
    Box,
    BoxRegion,
    CubicalComplex,
    Face,
    box_grid,
    intersect_region_face,
    j_complex,
    positive_faces,
    region_grid,
    unique_rows,
    MEMBERSHIP_TOL,
)
from .errors import DimensionError, DomainError, TamenessError, _is_number
from .kernels import SmashParams
from .maps import (
    Homotopy,
    PiecewiseAxis,
    SmoothMap,
    affine_row,
    compose,
    coord,
    lambda_map,
    piecewise,
    smash_map,
    straight_line,
    tup,
)
from .retract import squeezed_retraction

__all__ = [
    "ToleranceConfig",
    "Witness",
    "TamenessReport",
    "check_tame",
    "check_admissible",
    "tame_replace",
    "extend_tame",
    "jdelta_collar",
    "extend_to_jdelta",
    "concat_homotopy",
    "concat_maps",
    "seam_report",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Comparison tolerances and per-axis grid resolution for the checkers."""

    eq_tol: float = 1e-9
    deriv_tol: float = 1e-6
    grid_res: int = 33

    def __post_init__(self):
        if not all(_is_number(t, Real) and 0 < t < np.inf for t in (self.eq_tol, self.deriv_tol)):
            raise DomainError("tolerances must be positive and finite")
        if not _is_number(self.grid_res, Integral) or self.grid_res < 3:
            raise DomainError(f"grid_res must be an integer of at least 3, got {self.grid_res!r}")
        # store plain Python numbers: json cannot write numpy scalars into a report
        for name, kind in (("eq_tol", float), ("deriv_tol", float), ("grid_res", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))

    def capped(self, k: int) -> "ToleranceConfig":
        """This configuration with its grid at most ``k`` points per axis."""
        return replace(self, grid_res=min(self.grid_res, k))


DEFAULT_TOLERANCES = ToleranceConfig()


def _require_seed(seed) -> None:
    """Refuse a seed that is no integer >= 0; ``None`` would draw from OS entropy."""
    if not _is_number(seed, Integral) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class Witness:
    point: tuple[float, ...]
    axis: int
    alpha: int
    depth: float  # the moved point has coordinate ``axis`` at depth (or 1 - depth)


@dataclass(frozen=True)
class TamenessReport:
    """Verdict of a tameness or admissibility check."""

    passed: bool
    eps_tested: float
    worst_violation: float
    witness: Witness | None
    samples_checked: int
    per_face: tuple | None = None

    def to_json(self) -> dict:
        w = None
        if self.witness is not None:
            w = {
                "point": list(self.witness.point),
                "axis": self.witness.axis,
                "alpha": self.witness.alpha,
                "depth": self.witness.depth,
            }
        return {
            "passed": self.passed,
            "eps": self.eps_tested,
            "worst": self.worst_violation,
            "witness": w,
            "samples": self.samples_checked,
        }

    def require(self, what: str) -> None:
        """Raise ``TamenessError`` with this report unless it passed: the input
        map is not ``what``."""
        if not self.passed:
            raise TamenessError(f"input map is not {what} (worst violation {self.worst_violation:.3e})", self)


def _collar_draws(parts: tuple[tuple[BoxRegion, float], ...], cfg: ToleranceConfig, seed: int):
    """The seed's two streams, drawn once for all parts of a scan: the uniform
    numbers of the part with the most boxes, and one fraction per axis and side."""
    n = max(R.ambient_dim for R, _ in parts)
    boxes = max(len(R.boxes) for R, _ in parts)
    uniform = np.random.default_rng(seed).random(boxes * cfg.grid_res * n)
    return uniform, np.random.default_rng(seed).random(2 * n)


def _collar_rows(R: BoxRegion, eps: float, cfg: ToleranceConfig, uniform: np.ndarray, fractions: np.ndarray):
    """Samples of R and their moves into the eps-collars, as one table.

    R is sampled on a per-box grid plus ``cfg.grid_res`` uniform points per
    box, made from the first numbers of ``uniform``.  For every axis j and
    side alpha, each sample whose coordinate j lies within eps of alpha is
    moved to depth d from that face (coordinate j set to d or 1 - d) for d
    in (0, eps/3, 2eps/3, eps) and eps times the next of ``fractions``;
    moves that leave R, that is lie farther than ``MEMBERSHIP_TOL`` from
    every box, are skipped, and so is a move to the sample's own
    coordinate, which compares nothing.  A side whose boxes all pin
    coordinate j at one value u, with no depth other than u in R, has only
    such moves and is skipped whole.  ``_collar_draws`` gives the numbers,
    which are those of two ``default_rng(seed)`` streams drawn per part.
    Returns the count of samples that a kept move reads; the (axis, side,
    depth) keys, five per side with any comparison; per comparison its
    sample index and key index, the comparisons in key order; and those
    samples, in sample order, stacked over the moved points in the same
    order.
    """
    n = R.ambient_dim
    lo, hi = np.array([box.intervals for box in R.boxes]).reshape(len(R.boxes), n, 2).T  # [axis, box]
    unit = uniform[: len(R.boxes) * cfg.grid_res * n].reshape(len(R.boxes), cfg.grid_res, n)
    extra = (lo.T[:, None] + unit * (hi - lo).T[:, None]).reshape(-1, n)  # box by box
    pts = np.concatenate([region_grid(R, cfg.grid_res), extra])
    key_type = np.min_scalar_type(10 * n)  # holds every key index of the part
    draws = iter(fractions)
    keys = []
    # a part with no comparison gives empty tables
    samples, key_chunks, chunks = [np.zeros(0, np.intp)], [np.zeros(0, key_type)], []
    for j in range(1, n + 1):
        for alpha in (0, 1):
            near = np.flatnonzero(np.abs(pts[:, j - 1] - alpha) <= eps)
            if len(near) == 0:
                continue
            depths = np.array([0.0, eps / 3.0, 2.0 * eps / 3.0, eps, eps * next(draws)])
            x = depths[:, None] if alpha == 0 else 1.0 - depths[:, None]
            hit = np.maximum(lo[j - 1] - x, x - hi[j - 1]) <= MEMBERSHIP_TOL  # [depth, box]
            u = hi[j - 1, 0]
            if np.all(lo[j - 1] == u) and np.all(hi[j - 1] == u) and np.all(x[hit.any(axis=1), 0] == u):
                continue  # every move is onto its own sample
            # fits[b, s]: the coordinates of near sample s other than j lie
            # in box b; a move changes only coordinate j
            P = pts[near]
            fits = np.ones((len(R.boxes), len(near)), dtype=bool)
            for i in range(n):
                if i != j - 1:
                    fits &= np.maximum(lo[i, :, None] - P[:, i], P[:, i] - hi[i, :, None]) <= MEMBERSHIP_TOL
            di, k = np.nonzero(hit @ fits)  # depth-major
            real = x[di, 0] != P[k, j - 1]
            di, k = di[real], k[real]
            if len(k):
                Q = P[k]
                Q[:, j - 1] = x[di, 0]
                key_chunks.append((di + len(keys)).astype(key_type))
                keys += [(j, alpha, float(d)) for d in depths]
                samples.append(near[k])
                chunks.append(Q)
    sample, key = np.concatenate(samples), np.concatenate(key_chunks)
    used = np.zeros(len(pts), dtype=bool)
    used[sample] = True
    renumber = np.cumsum(used) - 1  # of a used sample among the used ones
    return int(np.count_nonzero(used)), keys, renumber[sample], key, np.concatenate([pts[used]] + chunks, axis=0)


def _collar_scan(
    fs: tuple[SmoothMap, ...],
    parts: tuple[tuple[BoxRegion, float], ...],
    cfg: ToleranceConfig,
    seed: int,
) -> list[list[TamenessReport]]:
    """Check each map of fs for w-tameness on each (region, width w) part, in one evaluation.

    The maps share one input dimension.  The parts' samples and moved points
    (``_collar_rows``) are stacked, reduced to their distinct rows, and
    ``tup(*fs)`` is evaluated on those in one ``eval_many`` call, which
    evaluates a node that several maps share once per row.  Evaluation does
    not depend on the batch a row sits in, so each map's columns are its
    values of one call per comparison.  Each part's comparisons, in
    (axis, side, depth) order, are then reduced in one pass, per map on its
    own columns: a report counts the comparisons, each real as its moved
    point differs from its sample, and keeps the first worst one as the
    witness.  Returns one report list, in part order, per map.  The seed
    must be an integer >= 0: every checker and construction scans, so this
    is where it is refused.
    """
    _require_seed(seed)
    if not fs or not parts:
        return [[] for _ in fs]
    draws = _collar_draws(parts, cfg, seed)
    tables = []  # per part: width, sample count, keys, sample and key per comparison, offset of its rows
    part_rows = []
    offset = 0
    for R, eps in parts:
        count, keys, sample, key, rows = _collar_rows(R, eps, cfg, *draws)
        tables.append((eps, count, keys, sample, key, offset))
        part_rows.append(rows)
        offset += len(rows)
    stacked = np.concatenate(part_rows, axis=0)
    del part_rows
    rows, inverse = unique_rows(stacked)
    del stacked
    values = tup(*fs).eval_many(rows)
    first_cols = np.cumsum([0] + [f.out_dim for f in fs[:-1]])  # of each map in ``values``
    reports = [[] for _ in fs]
    for eps, count, keys, sample, key, offset in tables:
        if len(sample) == 0:
            for report_list in reports:
                report_list.append(TamenessReport(True, eps, 0.0, None, 0))
            continue
        index = inverse[offset:]
        here, moved = index[sample], index[count : count + len(sample)]
        gaps = np.maximum.reduceat(np.abs(values[here] - values[moved]), first_cols, axis=1)  # [comparison, map]
        for m, k in enumerate(np.argmax(gaps, axis=0)):  # the first worst comparison
            worst = float(gaps[k, m])
            passed = worst <= cfg.eq_tol
            witness = None if passed else Witness(tuple(float(x) for x in rows[here[k]]), *keys[key[k]])
            reports[m].append(TamenessReport(passed, eps, worst, witness, len(sample)))
    return reports


def _domain(f: SmoothMap, K) -> BoxRegion:
    """The box region of K, a complex or a region, checked against f's input dimension."""
    if f.in_dim != K.ambient_dim:
        raise DimensionError(f"map has in_dim {f.in_dim}, domain has ambient {K.ambient_dim}")
    return K.region if isinstance(K, CubicalComplex) else K


def check_tame(
    f: SmoothMap,
    K,
    eps: float,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> TamenessReport:
    """Sampled check that f is eps-tame on K (a complex, region, or full cube).

    For every sampled point, axis, and side with the coordinate within eps
    of the face value, compares f there with f at the collar depths
    (0, eps/3, 2eps/3, eps, a seeded draw) whose points stay in K, in max
    norm.  The worst discrepancy, its witness, and the number of real
    comparisons are reported.
    """
    if not 0.0 < eps <= 0.5:
        raise DomainError(f"tameness width must satisfy 0 < eps <= 1/2, got {eps!r}")
    return _collar_scan((f,), ((_domain(f, K), eps),), cfg, seed)[0][0]


def check_admissible(
    f: SmoothMap,
    K,
    eps: float,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> TamenessReport:
    """Check graded tameness: width eps**dim(F) on K meet F, per positive face F."""
    if not 0.0 < eps <= 0.5:
        raise DomainError(f"admissibility width must satisfy 0 < eps <= 1/2, got {eps!r}")
    R = _domain(f, K)
    faces, parts = [], []
    for F in positive_faces(R.ambient_dim):
        RF = intersect_region_face(R, F)
        if RF.boxes:
            faces.append(F)
            parts.append((RF, eps**F.dim))
    (reps,) = _collar_scan((f,), tuple(parts), cfg, seed)
    # the first face with the largest violation gives the verdict and witness
    top = max(reps, key=lambda r: r.worst_violation, default=TamenessReport(True, eps, 0.0, None, 0))
    breakdown = tuple(
        (F.describe(), r.eps_tested, r.worst_violation, r.passed) for F, r in zip(faces, reps)
    )
    samples = sum(r.samples_checked for r in reps)
    return TamenessReport(top.passed, eps, top.worst_violation, top.witness, samples, breakdown)


def _coordwise_smash(params: SmashParams, n: int) -> SmoothMap:
    return tup(*[smash_map(params, coord(k, n)) for k in range(1, n + 1)])


def tame_replace(f: SmoothMap, sigma: float, eps: float) -> tuple[SmoothMap, Homotopy]:
    """Flatten f along all collars of width sigma, keeping it fixed on the chamber.

    Returns the flattened map g and the straight-line homotopy from f to g;
    the homotopy is constant wherever the coordinatewise smash is the
    identity, in particular on the eps-chamber.
    """
    if not 0.0 < sigma < eps <= 0.5:
        raise DomainError(
            f"need 0 < sigma < eps <= 1/2, got sigma={sigma!r}, eps={eps!r}"
        )
    n = f.in_dim
    params = SmashParams(sigma, eps)
    g = compose(f, _coordwise_smash(params, n))
    dim = n + 1
    u = coord(dim, dim)
    moved = [straight_line(u, coord(k, dim), smash_map(params, coord(k, dim))) for k in range(1, n + 1)]
    return g, Homotopy(compose(f, tup(*moved)))


def _extensions(
    fs: tuple[SmoothMap, ...],
    eps: float,
    sigma: float,
    eps_prime: float | None,
    sigma_prime: float | None,
    cfg: ToleranceConfig,
    seed: int,
) -> list[SmoothMap | TamenessError]:
    """``extend_tame`` of each map of fs, all of one input dimension: per map its
    extension, or the ``TamenessError`` that ``extend_tame`` raises for it.

    The widths are checked, and their defaults filled in, once; both
    preconditions of every map are checked in one collar scan, and the
    squeezed retraction is built once.
    """
    if eps_prime is None:
        eps_prime = 0.5 * (eps + 0.5)
    if sigma_prime is None:
        sigma_prime = 0.5 * (sigma + eps)
    if not 0.0 < sigma < eps < eps_prime <= 0.5:
        raise DomainError(
            f"need 0 < sigma < eps < eps_prime <= 1/2, got "
            f"sigma={sigma!r}, eps={eps!r}, eps_prime={eps_prime!r}"
        )
    if not sigma < sigma_prime < eps_prime:
        raise DomainError(
            f"need sigma < sigma_prime < eps_prime, got "
            f"sigma={sigma!r}, sigma_prime={sigma_prime!r}, eps_prime={eps_prime!r}"
        )
    n = fs[0].in_dim
    parts = [(j_complex(n).region, eps)]
    if n >= 2:
        # the wider bottom-boundary tameness is what lets the relaxed
        # widths near the bottom reproduce f on the walls there
        rim = CubicalComplex(n, tuple(Face(n, ((j, v), (n, 0))) for j in range(1, n) for v in (0, 1)))
        parts.append((rim.region, eps_prime))
    scans = _collar_scan(fs, tuple(parts), cfg, seed)
    # widths relax from (sigma', eps') at the bottom to (sigma, eps) once the
    # smashed time leaves its flat band; driving the ramp by the smashed time
    # (not the raw time) freezes the widths on both collars, which is what
    # makes the result exactly sigma-tame in the time direction
    squashed_time = smash_map(SmashParams(sigma, eps), coord(n, n))
    ramp = lambda_map(compose(affine_row(1, {1: -1.0 / sigma}, 1.0), squashed_time))
    retraction = squeezed_retraction(n, eps, (sigma, sigma_prime), (eps, eps_prime), ramp, squashed_time)
    extensions = []
    for f, reps in zip(fs, scans):
        try:
            for rep, where in zip(reps, ("walls-plus-top complex", "bottom rim")):
                rep.require(f"{rep.eps_tested}-tame on the {where}")
        except TamenessError as exc:
            extensions.append(exc)
        else:
            extensions.append(compose(f, retraction))
    return extensions


def extend_tame(
    f: SmoothMap,
    eps: float,
    sigma: float,
    eps_prime: float | None = None,
    sigma_prime: float | None = None,
    *,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> SmoothMap:
    """Extend an eps-tame map on the walls-plus-top complex over the whole cube.

    The result is sigma-tame everywhere and sigma_prime-tame on the bottom
    face.  Default auxiliary widths: eps_prime = (eps + 1/2)/2 and
    sigma_prime = (sigma + eps)/2.  The input must be eps-tame on the
    walls-plus-top complex and eps_prime-tame on the bottom rim, both
    checked in one scan.
    """
    (extension,) = _extensions((f,), eps, sigma, eps_prime, sigma_prime, cfg, seed)
    if isinstance(extension, TamenessError):
        raise extension
    return extension


def jdelta_collar(n: int, eps: float) -> tuple[float, float]:
    """(flat width, identity-band start) for the boundary push-out.

    The graded widths are (eps^(n-1), eps^(n-2)); when the identity band
    start would exceed 1/2 (only at n = 2) both exponents shift up by one.
    The collar is as deep as the flat width, so it collapses onto the
    boundary exactly.
    """
    if n < 2:
        raise DomainError("collar widths need dimension >= 2")
    if not 0.0 < eps <= 0.5:
        raise DomainError(f"need 0 < eps <= 1/2, got {eps!r}")
    if n == 2:
        return eps**2, eps
    return eps ** (n - 1), eps ** (n - 2)


def extend_to_jdelta(
    f: SmoothMap,
    eps: float,
    *,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> SmoothMap:
    """Extend an eps-admissible map on walls-plus-top over the collared boundary.

    On the bottom-face collar the map factors through a coordinatewise
    smash that collapses the collar onto the walls; elsewhere it is f.
    """
    n = f.in_dim
    check_admissible(f, j_complex(n), eps, cfg, seed).require(f"{eps}-admissible on the walls-plus-top complex")
    if n == 1:
        return f
    flat, band = jdelta_collar(n, eps)
    params = SmashParams(flat, band)
    bottom = compose(
        f, tup(*[smash_map(params, coord(k, n)) for k in range(1, n)], coord(n, n))
    )
    return piecewise(n, (flat,), (bottom, f))


def _hyperplanes(n: int, axis: int, values: tuple[float, ...], cfg: ToleranceConfig) -> np.ndarray:
    """The hyperplanes t_axis = v of R^n, v in ``values``, stacked: each on one grid of
    the other axes, ``cfg.grid_res`` points per axis (at most 9 from n >= 4)."""
    rest = box_grid(Box(((0.0, 1.0),) * (n - 1)), (cfg.capped(9) if n >= 4 else cfg).grid_res)
    return np.concatenate([np.insert(rest, axis - 1, v, axis=1) for v in values])


def _splice(f: SmoothMap, g: SmoothMap, axis: int, cfg: ToleranceConfig, what: str) -> SmoothMap:
    """Run f then g along ``axis``, each reparametrized by lambda to be flat at the seam 1/2.

    Requires f on t_axis = 1 to match g on t_axis = 0 on the ``_hyperplanes`` grid.
    """
    n = f.in_dim
    at1, at0 = np.split(_hyperplanes(n, axis, (1.0, 0.0), cfg), 2)
    gap = float(np.max(np.abs(f.eval_many(at1) - g.eval_many(at0))))
    if gap > cfg.eq_tol:
        raise DomainError(f"{what} disagree by {gap:.3e} (> eq_tol {cfg.eq_tol})")
    xs = [coord(k, n) for k in range(1, n + 1)]
    halves = []
    for h, offset in ((f, 0.0), (g, -2.0)):
        xs[axis - 1] = lambda_map(affine_row(n, {axis: 3.0}, offset))
        halves.append(compose(h, tup(*xs)))
    return piecewise(axis, (0.5,), tuple(halves))


def concat_homotopy(F: Homotopy, G: Homotopy, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Homotopy:
    """Splice two homotopies end to start, reparametrized to be flat at the seam."""
    if G.space_dim != F.space_dim or F.map.out_dim != G.map.out_dim:
        raise DimensionError("homotopies do not share space and target dimensions")
    return Homotopy(_splice(F.map, G.map, F.map.in_dim, cfg, "homotopy endpoints"))


def concat_maps(phi: SmoothMap, psi: SmoothMap, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SmoothMap:
    """Splice two maps along the first coordinate, flat at the seam.

    Requires the value of phi on the face t1 = 1 to match psi on t1 = 0.
    """
    if psi.in_dim != phi.in_dim or phi.out_dim != psi.out_dim:
        raise DimensionError("maps do not share input and target dimensions")
    return _splice(phi, psi, 1, cfg, "face values")


# step of the one-sided finite differences in ``seam_report``
SEAM_STEP = 1e-4


def _finite_or_inf(gap) -> float:
    return float(gap) if np.isfinite(gap) else np.inf


def seam_report(pw: PiecewiseAxis, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[float, float, bool]:
    """Worst value gap and one-sided derivative gap across all breakpoints.

    This is the smoothness gate for spliced constructions: neighbouring
    pieces must agree at the breakpoint to eq_tol and their one-sided
    finite differences, of step ``SEAM_STEP``, to deriv_tol, on the
    ``_hyperplanes`` grid.  Each piece is evaluated once per breakpoint, on
    the seam and its offset stacked.  A gap that is not finite, such as
    ``inf - inf`` between two overflowing slopes, is reported as ``inf`` and
    fails the gate.
    """
    n, axis = pw.in_dim, pw.axis
    worst_val = worst_fd = 0.0
    for i, b in enumerate(pw.breakpoints):
        left = pw.pieces[i].eval_many(_hyperplanes(n, axis, (b, b - SEAM_STEP), cfg))
        right = pw.pieces[i + 1].eval_many(_hyperplanes(n, axis, (b, b + SEAM_STEP), cfg))
        (lv, before), (rv, after) = np.split(left, 2), np.split(right, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            dl = (lv - before) / SEAM_STEP
            dr = (after - rv) / SEAM_STEP
            worst_val = max(worst_val, _finite_or_inf(np.max(np.abs(lv - rv))))
            worst_fd = max(worst_fd, _finite_or_inf(np.max(np.abs(dl - dr))))
    passed = worst_val <= cfg.eq_tol and worst_fd <= cfg.deriv_tol
    return worst_val, worst_fd, passed
