import math
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
from tamecube.suites import SMASH_PAIRS

P = SmashParams(0.1, 0.25)


def test_gamma_piecewise():
    assert gamma_many(0.0) == 0.0
    assert gamma_many(-3.7) == 0.0
    assert gamma_many(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_gamma_rejects_non_finite():
    with pytest.raises(DomainError):
        gamma_many(float("nan"))
    with pytest.raises(DomainError):
        lambda_many(float("inf"))


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


def test_smash_dyn_matches_fixed_params():
    grid = np.linspace(0.0, 1.0, 31)
    band = np.random.default_rng(5).uniform(P.sigma, 1.0 - P.sigma, 200)
    for ts in (grid, band):
        sig = np.full_like(ts, P.sigma)
        tau = np.full_like(ts, P.tau)
        assert np.array_equal(smash(ts, sig, tau), smash(ts, P.sigma, P.tau))


def test_smash_dyn_rejects_bad_schedule():
    with pytest.raises(DomainError):
        smash(np.array([0.5]), np.array([0.3]), np.array([0.2]))


def test_kernels_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    ts = np.linspace(-0.2, 1.2, 301)

    def work(_):
        return [smash(float(t), P.sigma, P.tau) for t in ts]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, range(8)))
    assert all(r == results[0] for r in results)
