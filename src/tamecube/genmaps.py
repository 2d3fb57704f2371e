"""Seeded generators for test maps.

Random smooth maps are sums of products of smooth steps of affine
functionals, so they are bounded with moderate derivatives.  Tame
variants compose a coordinatewise smash on top, which makes the collar
flatness exact rather than approximate.  Everything is a deterministic
function of the supplied generator.
"""

from __future__ import annotations

import numpy as np

from .cubes import CubicalComplex
from .kernels import SmashParams
from .maps import (
    SmoothMap,
    add,
    affine_row,
    compose,
    const,
    coord,
    lambda_map,
    mul,
    smash_map,
    tup,
)

__all__ = [
    "random_smooth_map",
    "random_tame_map",
    "random_map_admissible_on",
]


def _random_term(rng: np.random.Generator, n: int) -> SmoothMap:
    factors = []
    for _ in range(rng.integers(1, 3)):
        coeffs = {k: float(rng.uniform(-3.0, 3.0)) for k in range(1, n + 1)}
        offset = float(rng.uniform(-1.0, 1.5))
        factors.append(lambda_map(affine_row(n, coeffs, offset)))
    scale = const(float(rng.uniform(-2.0, 2.0)), n)
    return mul(scale, *factors)


def random_smooth_map(rng: np.random.Generator, n: int, out_dim: int = 1) -> SmoothMap:
    """A bounded smooth map I^n -> R^out_dim with no tameness structure."""
    comps = []
    for _ in range(out_dim):
        terms = [const(float(rng.uniform(-1.0, 1.0)), n)]
        terms += [_random_term(rng, n) for _ in range(rng.integers(1, 4))]
        comps.append(add(*terms))
    return comps[0] if out_dim == 1 else tup(*comps)


def _band(rng: np.random.Generator, width: float) -> SmashParams:
    hi = min(0.5, width + 0.25)
    lo = min(width + 0.02, 0.5 * (width + hi))
    return SmashParams(width, float(rng.uniform(lo, hi)))


def random_tame_map(
    rng: np.random.Generator,
    n: int,
    eps: float,
    out_dim: int = 1,
    space_eps: float | None = None,
) -> SmoothMap:
    """An exactly eps-tame map on I^n (flat on all collars of width eps).

    ``space_eps`` widens the flat collars of the first n-1 coordinates,
    which also makes the map space_eps-tame on the bottom rim; extension
    tests need that extra width.
    """
    base = random_smooth_map(rng, n, out_dim)
    widths = [space_eps if space_eps is not None else eps] * (n - 1) + [eps]
    squash = tup(*[smash_map(_band(rng, widths[k - 1]), coord(k, n)) for k in range(1, n + 1)])
    return compose(base, squash)


def random_map_admissible_on(
    rng: np.random.Generator,
    n: int,
    L: CubicalComplex,
    eps: float,
    out_dim: int = 1,
) -> SmoothMap:
    """A smooth map on I^n that is eps-admissible on L but wild elsewhere.

    Built as an exactly eps-tame map plus a perturbation gated to vanish
    (with all derivatives) on a collar around every face of L.  An L that
    holds I^n leaves no room for the perturbation: the map is the tame part.
    """
    tame_part = random_tame_map(rng, n, eps, out_dim)
    if any(not F.pinned for F in L.maximal_faces):
        return tame_part
    wild = random_smooth_map(rng, n, out_dim)
    gates = []
    for F in L.maximal_faces:
        for axis, val in F.pinned:
            arg = {axis: 1.0} if val == 0 else {axis: -1.0}
            off = -0.15 if val == 0 else 1.0 - 0.15
            gates.append(lambda_map(affine_row(n, {k: v / 0.25 for k, v in arg.items()}, off / 0.25)))
    if not gates:
        return add(tame_part, wild)
    return add(tame_part, mul(*gates, wild))
