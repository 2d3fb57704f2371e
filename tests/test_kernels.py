import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamecube.errors import DomainError
from tamecube.kernels import (
    SmashParams,
    gamma_many,
    lambda_integral,
    lambda_many,
    smash,
    smash_F,
)
from tamecube.suites import SMASH_PAIRS, SuiteConfig, _kernels_suite

P = SmashParams(0.1, 0.25)


def test_gamma_piecewise():
    assert gamma_many(0.0) == 0.0
    assert gamma_many(-3.7) == 0.0
    assert gamma_many(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_gamma_rejects_non_finite():
    kernels = (gamma_many, lambda_many, lambda_integral, lambda ts: smash(ts, P.sigma, P.tau))
    for kernel in kernels:
        for bad in (math.nan, math.inf, -math.inf):
            for ts in (bad, np.array([0.2, bad, 0.7])):
                with pytest.raises(DomainError, match="^expected finite reals$"):
                    kernel(ts)


def test_kernels_underflow_silently_below_smallest_normal():
    # -1/t overflows to -inf here; exp(-inf) = 0 is the right value
    ts = np.array([5e-324, 1e-310])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma_many(ts).tolist() == [0.0, 0.0]
        assert lambda_many(ts).tolist() == [0.0, 0.0]


def test_lambda_endpoints_and_midpoint():
    assert lambda_many(0.0) == 0.0
    assert lambda_many(-2.0) == 0.0
    assert lambda_many(1.0) == 1.0
    assert lambda_many(0.5) == pytest.approx(0.5, abs=1e-15)
    assert lambda_many(0.25) + lambda_many(0.75) == pytest.approx(1.0, abs=1e-14)


@given(st.floats(-0.5, 1.5))
@settings(max_examples=200, deadline=None)
def test_lambda_symmetry(t):
    assert abs(lambda_many(1.0 - t) - (1.0 - lambda_many(t))) <= 1e-12


@given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
@settings(max_examples=200, deadline=None)
def test_lambda_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert lambda_many(lo) <= lambda_many(hi) + 1e-12


def test_lambda_integral_against_simpson():
    panels = 4096
    xs = np.linspace(0.0, 1.0, 2 * panels + 1)
    ys = lambda_many(xs)
    h = 1.0 / (2 * panels)
    integral = h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())
    assert integral == pytest.approx(0.5, abs=1e-8)


def test_lambda_flat_at_ends():
    for t0, sgn in ((0.0, 1.0), (1.0, -1.0)):
        slopes = [abs(lambda_many(t0 + sgn * h) - lambda_many(t0)) / h for h in (1e-2, 1e-3)]
        assert slopes[1] <= slopes[0]
        assert slopes[1] <= 1e-6


def test_smash_params_validation():
    with pytest.raises(DomainError):
        SmashParams(0.3, 0.2)
    with pytest.raises(DomainError):
        SmashParams(0.2, 0.2)
    with pytest.raises(DomainError):
        SmashParams(-0.1, 0.2)
    with pytest.raises(DomainError):
        SmashParams(0.1, 0.6)
    SmashParams(0.0, 0.3)  # zero flat width is allowed


def test_smash_F_examples():
    assert smash_F(P, 0.3) == 0.0  # below sigma/tau = 0.4
    assert smash_F(P, 1.3) == 1.3
    assert smash_F(P, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_smash_F_rejects_non_finite():
    # the exact t >= 1 branch must not let t = inf through
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            smash_F(P, t)


def test_smash_F_quadrature_path_matches_shortcut():
    # value just below 1 must approach the exact short-circuit at 1
    assert smash_F(P, 1.0 - 1e-9) == pytest.approx(1.0, abs=1e-8)
    assert smash_F(P, 0.4 + 1e-9) == pytest.approx(0.0, abs=1e-10)


def test_smash_F_monotone():
    ts = np.linspace(-0.2, 1.2, 141)
    vals = [smash_F(P, float(t)) for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_smash_F_interior_against_simpson():
    # cumulative composite Simpson on 10^5 panels of the integrand of smash_F
    panels = 10**5
    for sigma, tau in SMASH_PAIRS:
        lo = sigma / tau
        xs = np.linspace(lo, 1.0, 2 * panels + 1)
        ys = lambda_many((tau * xs - sigma) / (tau - sigma))
        h = (1.0 - lo) / (2 * panels)
        steps = h / 3.0 * (ys[0:-2:2] + 4.0 * ys[1:-1:2] + ys[2::2])
        integral = np.concatenate([[0.0], np.cumsum(steps)])
        nodes = xs[::2]
        pick = np.linspace(1, panels - 1, 64).astype(int)
        for k in pick:
            t = float(nodes[k])
            oracle = integral[k] + (tau + sigma) / (2.0 * tau) * lambda_many((tau * t - sigma) / (tau - sigma))
            assert abs(smash_F(SmashParams(sigma, tau), t) - oracle) <= 1e-10, (sigma, tau, t)


def test_lambda_integral_reflection():
    s = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(lambda_integral(1.0 - s) - (0.5 - s + lambda_integral(s)))) <= 1e-14


def test_smash_F_riemann_oracle():
    for sigma, tau in ((0.1, 0.25), (0.05, 0.5), (0.0, 0.3)):
        x = (np.arange(200000) + 0.5) / 200000
        oracle = float(
            lambda_many((tau * x - sigma) / (tau - sigma)).mean()
            + (tau + sigma) / (2.0 * tau)
        )
        assert smash_F(SmashParams(sigma, tau), 1.0) == pytest.approx(oracle, abs=1e-8)


def test_kernels_suite_peak_memory():
    # every oracle of the suite is a 4,096-panel Simpson sum; the suite peaks near 0.5 MiB
    cfg = SuiteConfig("kernels", seed=3)
    tracemalloc.start()
    try:
        _kernels_suite(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_smash_T_examples():
    assert smash(0.5, P.sigma, P.tau) == 0.5
    assert smash(0.05, P.sigma, P.tau) == 0.0
    assert smash(0.93, P.sigma, P.tau) == 1.0
    assert smash(0.3, P.sigma, P.tau) == 0.3  # identity band


def test_smash_T_bands_exact():
    for t in np.linspace(-0.5, 0.1, 20):
        assert smash(float(t), P.sigma, P.tau) == 0.0
    for t in np.linspace(0.9, 1.5, 20):
        assert smash(float(t), P.sigma, P.tau) == 1.0
    for t in np.linspace(0.25, 0.75, 21):
        assert smash(float(t), P.sigma, P.tau) == float(t)


@pytest.mark.parametrize("sigma,tau", [(0.1, 0.25), (0.05, 0.5), (0.0, 0.3), (0.2, 0.45), (0.15, 0.3)])
def test_smash_T_symmetry_and_monotone(sigma, tau):
    p = SmashParams(sigma, tau)
    ts = np.linspace(-0.5, 1.5, 401)
    vals = smash(ts, p.sigma, p.tau)
    mirror = smash(1.0 - ts, p.sigma, p.tau)
    assert np.max(np.abs(mirror - (1.0 - vals))) <= 1e-9
    order = np.sort(ts)
    ovals = smash(order, p.sigma, p.tau)
    assert np.all(np.diff(ovals) >= -1e-9)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_smash_T_seam_consistency():
    for sigma, tau in ((0.1, 0.25), (0.05, 0.5), (0.2, 0.45)):
        p = SmashParams(sigma, tau)
        fv = tau * smash_F(p, 0.5 / tau)
        assert abs(fv - (1.0 - fv)) <= 1e-9


def test_smash_scalar_vector_agree():
    # a kernel value must not depend on the batch it is computed in
    ts = np.linspace(-0.2, 1.2, 57)
    vec = smash(ts, P.sigma, P.tau)
    one = np.array([smash(ts[i : i + 1], P.sigma, P.tau)[0] for i in range(len(ts))])
    assert vec.tobytes() == one.tobytes()


def _smash_one_by_one(ts, sigma, tau):
    ts, sigma, tau = np.broadcast_arrays(ts, sigma, tau)
    return np.array([smash(t, s, w) for t, s, w in zip(ts.tolist(), sigma.tolist(), tau.tolist())])


def test_smash_repeated_band_arguments_match_one_by_one():
    # the band quadrature runs once per distinct argument of a call; the
    # values must be those of one call per element, bit for bit
    rng = np.random.default_rng(12)
    s, w = P.sigma, P.tau
    band = np.concatenate([rng.uniform(s, w, 40), rng.uniform(1.0 - w, 1.0 - s, 40)])
    edges = (-0.5, 0.0, s, w, 0.5, 1.0 - w, 1.0 - s, 1.0, 1.5)
    mixed = np.concatenate([rng.uniform(lo, hi, 30) for lo, hi in zip(edges, edges[1:])] + [np.array(edges)])
    grid = np.linspace(0.0, 1.0, 41)
    for ts in (np.tile(band, 7), np.repeat(grid, 5), rng.permutation(np.tile(mixed, 3))):
        assert smash(ts, s, w).tobytes() == _smash_one_by_one(ts, s, w).tobytes()
    # per-element parameters, as SmashDyn passes them: equal t with different
    # (sigma, tau) has different band arguments, and equal band arguments
    # come from different t
    t = np.tile(np.concatenate([band[:10], [0.2, 0.8]]), 6)
    sigma = np.repeat([0.05, 0.1, 0.1, 0.15, 0.05, 0.0], 12)
    tau = np.repeat([0.25, 0.25, 0.4, 0.3, 0.25, 0.5], 12)
    assert smash(t, sigma, tau).tobytes() == _smash_one_by_one(t, sigma, tau).tobytes()
    assert len(np.unique(smash(t, sigma, tau)[t == 0.2])) > 1
    same_r = np.array([0.1 + 0.5 * 0.15, 0.2 + 0.5 * 0.1, 1.0 - (0.1 + 0.5 * 0.15)])
    args = (same_r, [0.1, 0.2, 0.1], [0.25, 0.3, 0.25])
    assert smash(*args).tobytes() == _smash_one_by_one(*args).tobytes()


def test_smash_permutes_and_duplicates_with_its_input():
    rng = np.random.default_rng(13)
    ts = np.concatenate([rng.uniform(-0.2, 1.2, 200), np.linspace(0.0, 1.0, 21)])
    sigma, tau = rng.uniform(0.0, 0.2, len(ts)), rng.uniform(0.25, 0.5, len(ts))
    for args in ((ts, P.sigma, P.tau), (ts, sigma, tau)):
        ref = smash(*args)
        for index in (rng.permutation(len(ts)), rng.integers(0, len(ts), 3 * len(ts)), np.arange(len(ts))[::-1]):
            picked = [a[index] if np.ndim(a) else a for a in args]
            assert smash(*picked).tobytes() == ref[index].tobytes()


def test_smash_zero_d_in_zero_d_out():
    for t in (0.0, 0.05, 0.15, 0.3, 0.85, 0.95, 1.2):
        out = smash(t, P.sigma, P.tau)
        assert out.shape == () and out.tobytes() == smash(np.array([t]), P.sigma, P.tau).tobytes()
    assert smash(np.float64(0.15), np.float64(0.1), np.float64(0.3)).shape == ()


def test_smash_dyn_matches_fixed_params():
    # scalar parameters skip the broadcast and the per-element check; the
    # values must be those of the per-element path, bit for bit, in every band
    rng = np.random.default_rng(5)
    s, w = P.sigma, P.tau
    edges = (-0.5, 0.0, s, w, 0.5, 1.0 - w, 1.0 - s, 1.0, 1.5)
    bands = [rng.uniform(lo, hi, 50) for lo, hi in zip(edges, edges[1:])]
    grid = np.linspace(0.0, 1.0, 31)
    for ts in (grid, *bands, np.concatenate(bands + [np.array(edges)])):
        sig = np.full_like(ts, s)
        tau = np.full_like(ts, w)
        assert smash(ts, sig, tau).tobytes() == smash(ts, s, w).tobytes()
    for t in edges:
        assert smash(t, np.float64(s), w).tobytes() == smash(np.array([t]), [s], [w]).tobytes()


def test_smash_dyn_rejects_bad_schedule():
    with pytest.raises(DomainError):
        smash(np.array([0.5]), np.array([0.3]), np.array([0.2]))
    for sigma, tau in ((0.3, 0.2), (0.2, 0.2), (-0.1, 0.2), (0.1, 0.6), (float("nan"), 0.2)):
        with pytest.raises(DomainError, match="out of range at element 0"):
            smash(np.array([0.5, 0.6]), sigma, tau)
    with pytest.raises(DomainError, match="finite"):
        smash(np.array([0.5, np.inf]), P.sigma, P.tau)
    # the schedule is checked first, whatever t holds
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="out of range at element 1"):
            smash(np.array([0.5, bad]), np.array([0.1, 0.3]), np.array([0.25, 0.2]))


def test_kernels_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    ts = np.linspace(-0.2, 1.2, 301)

    def work(_):
        return [smash(float(t), P.sigma, P.tau) for t in ts]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, range(8)))
    assert all(r == results[0] for r in results)
