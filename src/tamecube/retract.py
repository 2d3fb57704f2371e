"""Approximate retractions of I^n onto the open-box boundary.

There is no smooth retraction of the cube onto the union of its side
walls and top face, but there are smooth maps that restrict to the
identity on the shrunken chamber of that union.  ``approx_retraction``
builds such a map as a combinator tree; its band widths are modulated
along the last coordinate, which is where the dynamic-parameter smash
node comes in.  ``deformation_retraction_homotopy`` interpolates the
identity with a retraction whose band schedule is graded by powers of
the chamber width.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .kernels import SmashParams
from .maps import (
    Homotopy,
    _plain_ints,
    SmoothMap,
    affine_row,
    add,
    compose,
    const,
    coord,
    drop_time,
    lambda_map,
    mul,
    one_minus,
    recip_map,
    smash_map,
    smashdyn_map,
    straight_line,
    tup,
)

__all__ = [
    "RetractionParams",
    "approx_retraction",
    "deformation_schedule",
    "deformation_retraction_homotopy",
]


@dataclass(frozen=True)
class RetractionParams:
    """Widths of an approximate retraction: 0 < sigma < eps_prime < eps < 1/2."""

    n: int
    eps: float
    sigma: float
    eps_prime: float

    def __post_init__(self):
        _plain_ints(self, "retraction", "n")
        if self.n < 1:
            raise DomainError("retraction needs dimension >= 1")
        if not (0.0 < self.sigma < self.eps_prime < self.eps < 0.5):
            raise DomainError(
                f"need 0 < sigma < eps_prime < eps < 1/2, got "
                f"sigma={self.sigma!r}, eps_prime={self.eps_prime!r}, eps={self.eps!r}"
            )

    @classmethod
    def from_eps(cls, n: int, eps: float) -> "RetractionParams":
        """Default internal widths: sigma = eps/2, eps_prime = 3 eps/4."""
        return cls(n=n, eps=eps, sigma=0.5 * eps, eps_prime=0.75 * eps)


def approx_retraction(p: RetractionParams) -> SmoothMap:
    """Smooth map I^n -> I^n landing on the walls-plus-top boundary complex.

    Fixes every point of the eps-chamber of that complex pointwise; the
    last output hits 1 whenever no side output is pinned, which is what
    keeps the image inside the complex.
    """
    n = p.n
    band = SmashParams(p.sigma, p.eps)
    u = coord(n, n)
    t_of_u = smash_map(band, u)
    t_of_1mu = smash_map(band, one_minus(u))
    if n == 1:
        # no side coordinates: the whole interval collapses to the top point
        return tup(add(t_of_u, t_of_1mu))
    # interpolated inner band width, bounded below by sigma
    m_u = affine_row(n, {n: p.sigma - p.eps_prime}, p.eps_prime)
    inv_m = recip_map(m_u)
    gates = []
    for k in range(1, n):
        gates.append(lambda_map(mul(coord(k, n), inv_m)))
        gates.append(lambda_map(mul(one_minus(coord(k, n)), inv_m)))
    last = add(t_of_u, mul(t_of_1mu, *gates))
    sides = [smashdyn_map(coord(k, n), m_u, const(p.eps, n)) for k in range(1, n)]
    return tup(*sides, last)


def ramped(start: float, end: float, ramp: SmoothMap) -> SmoothMap:
    """start + (end - start) * ramp, for a scalar-valued ramp: a width that
    moves from start to end as the ramp runs from 0 to 1."""
    return compose(affine_row(1, {1: end - start}, start), ramp)


def squeezed_retraction(n: int, eps: float, sigma, tau, ramp: SmoothMap, last: SmoothMap) -> SmoothMap:
    """The width-eps approximate retraction after (the smashed side coordinates, last).

    Each side coordinate is smashed with widths ``ramped`` from sigma[0] to sigma[1]
    and from tau[0] to tau[1]; the map runs on the inputs of ``last``."""
    d = last.in_dim
    sigma_u, tau_u = ramped(*sigma, ramp), ramped(*tau, ramp)
    sides = [smashdyn_map(coord(k, d), sigma_u, tau_u) for k in range(1, n)]
    return compose(approx_retraction(RetractionParams.from_eps(n, eps)), tup(*sides, last))


def deformation_schedule(n: int, eps: float) -> dict:
    """Band-width endpoints used by the deformation homotopy.

    The wide endpoint of the identity-band width is clamped to 1/2 when
    the graded power exceeds it (only possible for n <= 2); the clamp is
    reported so callers can surface it.
    """
    if n < 1:
        raise DomainError("deformation needs dimension >= 1")
    if not 0.0 < eps <= 0.5:
        raise DomainError(f"need 0 < eps <= 1/2, got {eps!r}")
    if n == 1:
        return {"n": 1, "eps": eps, "retraction_eps": 1.0, "clamped": False}
    tau_wide_raw = eps ** (n - 2)
    tau_wide = min(tau_wide_raw, 0.5)
    sched = {
        "n": n,
        "eps": eps,
        "retraction_eps": eps ** (n - 1),
        "sigma_wide": eps ** (n - 1),
        "sigma_narrow": eps**n,
        "tau_wide": tau_wide,
        "tau_narrow": eps ** (n - 1),
        "ramp_scale": eps**n,
        "clamped": tau_wide_raw > 0.5,
    }
    if not sched["sigma_wide"] < sched["tau_wide"]:
        raise DomainError(
            f"deformation infeasible: sigma endpoint {sched['sigma_wide']!r} "
            f"not below tau endpoint {sched['tau_wide']!r} (n={n}, eps={eps!r})"
        )
    return sched


def deformation_retraction_homotopy(n: int, eps: float) -> Homotopy:
    """Homotopy on I^n x I from the identity to an approximate retraction.

    Every time slice maps the collared boundary region into itself and
    fixes the chamber of the walls-plus-top complex pointwise; the slice
    at time 1 lands on that complex.
    """
    sched = deformation_schedule(n, eps)
    dim = n + 1  # inputs (s_1..s_{n-1}, t, u)
    u = coord(dim, dim)
    if n == 1:
        h = add(mul(one_minus(u), coord(1, dim)), u)
        return Homotopy(h)
    ramp = lambda_map(affine_row(dim, {n: 1.0 / sched["ramp_scale"]}, 0.0))
    sigma, tau = (sched["sigma_wide"], sched["sigma_narrow"]), (sched["tau_wide"], sched["tau_narrow"])
    retracted = squeezed_retraction(n, sched["retraction_eps"], sigma, tau, ramp, coord(n, dim))
    return Homotopy(straight_line(u, drop_time(n), retracted))
