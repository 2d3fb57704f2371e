"""Smooth kernels that every other construction composes, vectorized.

``gamma_many`` is the classical flat exponential (identically zero for
t <= 0, exp(-1/t) for t > 0, all derivatives vanishing at 0) and
``lambda_many`` the smooth monotone step built from it.  ``smash`` is the
smash function T_{sigma,tau}: a non-decreasing smooth surjection
R -> [0, 1] that is 0 up to ``sigma``, the identity on [tau, 1-tau], 1 from
``1-sigma`` on, and symmetric about 1/2.

In the transition band sigma < t <= 1/2 the substitution
r = (t - sigma) / (tau - sigma) turns the smash integral into

    T(t) = (tau - sigma) * Lambda(r) + (tau + sigma) / 2 * lambda(r),

where Lambda(s) = int_0^s lambda is a single function with no parameters;
the other half follows from T(t) = 1 - T(1 - t).  ``lambda_integral``
evaluates Lambda from a table of panel sums built once at import
(composite Gauss-Legendre, 64 panels x 12 nodes) plus a 12-node rule over
the partial panel.  Outside the transition band ``smash`` short-circuits
to exact values, so the flat zones are exact in floating point.  Within
one call the band quadrature runs once per distinct r: sampled grids and
collar scans send the same r many times.  Lambda(r) and lambda(r) of those
r come from one pass of the lambda formula, over the 12 nodes of each r's
partial panel and r itself.

Everything here is a pure function of its arguments.  Kernels take scalars
(0-d in, 0-d out) or arrays and raise ``DomainError`` on a non-finite t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SmashParams",
    "gamma_many",
    "lambda_many",
    "lambda_integral",
    "smash",
    "smash_F",
]


@dataclass(frozen=True)
class SmashParams:
    """Band parameters of a smash function.

    ``sigma`` is the half-width of the flat bands at 0 and 1, ``tau`` the
    start of the identity band.  Requires 0 <= sigma < tau <= 1/2.
    """

    sigma: float
    tau: float

    def __post_init__(self):
        if not (0.0 <= self.sigma < self.tau <= 0.5):
            raise DomainError(
                f"smash parameters need 0 <= sigma < tau <= 1/2, "
                f"got sigma={self.sigma!r}, tau={self.tau!r}"
            )


def _finite_reals(ts) -> np.ndarray:
    """ts as a float array; raises ``DomainError`` unless every value is finite."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise DomainError("expected finite reals")
    return ts


def gamma_many(ts) -> np.ndarray:
    """Flat exponential, elementwise: 0 for t <= 0, exp(-1/t) for t > 0.

    Underflows silently to 0 for tiny positive t, the correct limit value.
    """
    ts = _finite_reals(ts)
    out = np.zeros_like(ts)
    pos = ts > 0.0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / ts[pos])
    return out


def lambda_many(ts) -> np.ndarray:
    """Smooth non-decreasing step, elementwise: 0 for t <= 0, 1 for t >= 1.

    Defined as gamma(t) / (gamma(t) + gamma(1-t)).  The symmetry
    lambda(1-t) = 1 - lambda(t) holds to rounding, not exactly (a few ulp);
    the suites check it at 1e-12.
    """
    ts = _finite_reals(ts)
    out = np.zeros_like(ts)
    out[ts >= 1.0] = 1.0
    mid = (ts > 0.0) & (ts < 1.0)
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / ts[mid])
    b = np.exp(-1.0 / (1.0 - ts[mid]))
    out[mid] = a / (a + b)
    return out


_PANELS = 64
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gauss(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """12-node Gauss-Legendre value of int_a^b lambda, and lambda(b),
    elementwise, from one pass of lambda over the nodes and b."""
    half = 0.5 * (b - a)
    # the nodes, then b, as one array: no second copy of them while lambda runs
    x = np.append((0.5 * (a + b))[..., None] + half[..., None] * _NODES, b[..., None], axis=-1)
    lam = lambda_many(x)
    # a reduction per row, not a BLAS product, so that a value does not
    # depend on the batch it is computed in
    return half * (lam[..., :-1] * _WEIGHTS).sum(axis=-1), lam[..., -1]


_EDGES = np.arange(_PANELS + 1) / _PANELS
# _CUMULATIVE[k] = Lambda(k / _PANELS)
_CUMULATIVE = np.concatenate([[0.0], np.cumsum(_gauss(_EDGES[:-1], _EDGES[1:])[0])])


def _lambda_pair(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lambda(s) and lambda(s) for s in [0, 1], elementwise: the table's
    panels below s plus the 12-node rule over the partial panel."""
    k = np.minimum((s * _PANELS).astype(int), _PANELS - 1)
    partial, lam = _gauss(_EDGES[k], s)
    return _CUMULATIVE[k] + partial, lam


def lambda_integral(s) -> np.ndarray:
    """Lambda(s) = int_0^s lambda, vectorized.

    Exactly 0 for s <= 0 and Lambda(1) + (s - 1) for s >= 1, where
    Lambda(1) = 1/2 to rounding.  Satisfies Lambda(1 - s) = 1/2 - s + Lambda(s).
    """
    s = _finite_reals(s)
    return _lambda_pair(np.clip(s, 0.0, 1.0))[0] + np.maximum(s - 1.0, 0.0)


def smash(ts, sigma, tau) -> np.ndarray:
    """The smash function T_{sigma,tau}, vectorized.

    ``sigma`` and ``tau`` are scalars or per-element arrays; all three
    arguments broadcast together.  Values in the flat and identity bands
    are exact; transition values are clamped into [0, 1].  Raises
    ``DomainError`` if a parameter pair violates 0 <= sigma < tau <= 1/2,
    which guards construction bugs in parameter schedules.
    """
    ts = np.asarray(ts, dtype=float)
    if np.ndim(sigma) == 0 and np.ndim(tau) == 0 and 0.0 <= sigma < tau <= 0.5:
        # one valid pair for every element: no broadcast, no per-element check
        sigma, tau = float(sigma), float(tau)
    else:
        ts, sigma, tau = np.broadcast_arrays(
            ts, np.asarray(sigma, dtype=float), np.asarray(tau, dtype=float)
        )
        valid = (sigma >= 0.0) & (sigma < tau) & (tau <= 0.5)
        if not np.all(valid):
            bad = int(np.argmin(valid.ravel()))
            raise DomainError(
                f"smash parameter schedule out of range at element {bad}: "
                f"sigma={sigma.flat[bad]!r}, tau={tau.flat[bad]!r}"
            )
    _finite_reals(ts)
    out = np.where(ts >= 1.0 - sigma, 1.0, 0.0)
    ident = (ts >= tau) & (ts <= 1.0 - tau)
    out[ident] = ts[ident]
    band = (ts > sigma) & (ts < 1.0 - sigma) & ~ident
    if np.any(band):
        t = ts[band]
        s = sigma[band] if np.ndim(sigma) else sigma
        w = tau[band] if np.ndim(tau) else tau
        low = t <= 0.5
        r = (np.where(low, t, 1.0 - t) - s) / (w - s)
        # a grid or a collar scan repeats r; both kernels are elementwise,
        # so evaluating them once per distinct bit pattern changes no value
        bits, inverse = np.unique(r.view(np.uint64), return_inverse=True)
        big, lam = _lambda_pair(bits.view(np.float64))  # r lies in (0, 1]
        val = (w - s) * big[inverse] + 0.5 * (w + s) * lam[inverse]
        out[band] = np.clip(np.where(low, val, 1.0 - val), 0.0, 1.0)
    return out


def smash_F(p: SmashParams, t: float) -> float:
    """Integral form of the smash function, T(tau * t) / tau.

    Non-decreasing; exactly 0 for t <= sigma/tau and exactly t for t >= 1.
    """
    # smash runs before the t >= 1 branch so that it rejects t = inf
    value = float(smash(p.tau * t, p.sigma, p.tau)) / p.tau
    return float(t) if t >= 1.0 else value
