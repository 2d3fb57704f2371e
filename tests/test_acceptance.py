"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import json
import time

import numpy as np
import pytest

from tamecube.cli import main
from tamecube.cubes import (
    CubicalComplex,
    Face,
    boundary_complex,
    chamber_region,
    complex_grid,
    dist_to_complex,
    full_cube,
    j_complex,
    region_grid,
)
from tamecube.errors import DomainError
from tamecube.genmaps import random_map_admissible_on, random_tame_map
from tamecube.kernels import SmashParams, lambda_many, smash, smash_F
from tamecube.maps import Coord
from tamecube.replace import admissible_replace
from tamecube.retract import RetractionParams, approx_retraction, deformation_retraction_homotopy
from tamecube.tame import (
    ToleranceConfig,
    check_admissible,
    check_tame,
    concat_homotopy,
    seam_report,
    tame_replace,
)

CFG = ToleranceConfig()  # eq 1e-9, deriv 1e-6, grid 33


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_kernel_identities():
    t0 = time.time()
    rng = np.random.default_rng(1)
    ts = np.concatenate([np.linspace(-0.5, 1.5, 500), rng.uniform(-0.5, 1.5, 500)])
    lam_gap = float(np.max(np.abs(lambda_many(1.0 - ts) - (1.0 - lambda_many(ts)))))
    worst_sym = 0.0
    worst_band = 0.0
    exact_ok = True
    for sigma, tau in ((0.1, 0.25), (0.05, 0.5), (0.0, 0.3), (0.2, 0.45), (0.15, 0.3)):
        p = SmashParams(sigma, tau)
        vals = smash(ts, p.sigma, p.tau)
        worst_sym = max(worst_sym, float(np.max(np.abs(smash(1.0 - ts, p.sigma, p.tau) - (1.0 - vals)))))
        band = np.linspace(tau, 1.0 - tau, 201)
        worst_band = max(worst_band, float(np.max(np.abs(smash(band, p.sigma, p.tau) - band))))
        low = ts[ts <= sigma]
        high = ts[ts >= 1.0 - sigma]
        exact_ok &= bool(np.all(smash(low, p.sigma, p.tau) == 0.0))
        exact_ok &= bool(np.all(smash(high, p.sigma, p.tau) == 1.0))
    ok = lam_gap <= 1e-12 and worst_sym <= 1e-9 and worst_band <= 1e-9 and exact_ok
    _report(
        "criterion-1 kernel-identities",
        ok,
        f"lambda-sym {lam_gap:.1e}, T-sym {worst_sym:.1e}, band {worst_band:.1e}, bands-exact {exact_ok}",
        time.time() - t0,
        5.0,
    )


def _simpson(fn, a: float, b: float, panels: int = 2048) -> float:
    """Composite Simpson rule on [a, b]."""
    ys = fn(np.linspace(a, b, 2 * panels + 1))
    return float((b - a) / (6 * panels) * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()))


def test_criterion_2_quadrature_oracle():
    # smash_F(p, t) = int_{sigma/tau}^t lambda(r(x)) dx + (tau + sigma) / (2 tau) lambda(r(t)),
    # r(x) = (tau x - sigma) / (tau - sigma), at a quarter, half and three
    # quarters of the way from sigma/tau to 1, and at the end of the band
    t0 = time.time()
    worst = 0.0
    for sigma, tau in ((0.1, 0.25), (0.05, 0.5), (0.0, 0.3)):
        p = SmashParams(sigma, tau)
        lo = sigma / tau

        def lam_r(x):
            return lambda_many((tau * x - sigma) / (tau - sigma))

        for t in (*(lo + (1.0 - lo) * q for q in (0.25, 0.5, 0.75)), 1.0 - 1e-12, 1.0):
            oracle = _simpson(lam_r, lo, t) + (tau + sigma) / (2.0 * tau) * float(lam_r(t))
            worst = max(worst, abs(smash_F(p, t) - oracle))
    _report("criterion-2 quadrature-oracle", worst <= 1e-8, f"worst gap {worst:.1e}", time.time() - t0, 10.0)


def test_criterion_3_retraction_containment_identity():
    t0 = time.time()
    worst_dist = 0.0
    worst_fix = 0.0
    for n in (1, 2, 3):
        axes = [np.linspace(0.0, 1.0, 21)] * n
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        for eps in (0.1, 0.25, 0.4):
            R = approx_retraction(RetractionParams.from_eps(n, eps))
            worst_dist = max(worst_dist, float(dist_to_complex(j_complex(n), R.eval_many(pts)).max()))
            ch = region_grid(chamber_region(j_complex(n), eps), 9)
            worst_fix = max(worst_fix, float(np.max(np.abs(R.eval_many(ch) - ch))))
    ok = worst_dist <= 1e-9 and worst_fix <= 1e-12
    _report(
        "criterion-3 retraction",
        ok,
        f"containment {worst_dist:.1e}, chamber fix {worst_fix:.1e}",
        time.time() - t0,
        20.0,
    )


def test_criterion_4_tame_extension():
    t0 = time.time()
    from tamecube.tame import extend_tame

    eps, sigma = 0.25, 0.1
    eps_prime = 0.5 * (eps + 0.5)
    sigma_prime = 0.5 * (sigma + eps)
    worst_restrict = 0.0
    worst_tame = 0.0
    worst_bottom = 0.0
    count = 0
    for i in range(20):
        n = (1, 2, 3)[i % 3]
        rng = np.random.default_rng(1000 + i)
        f = random_tame_map(rng, n, eps, space_eps=eps_prime)
        g = extend_tame(f, eps=eps, sigma=sigma, cfg=CFG, seed=i)
        pts = complex_grid(j_complex(n), CFG.grid_res)
        worst_restrict = max(
            worst_restrict, float(np.max(np.abs(g.eval_many(pts) - f.eval_many(pts))))
        )
        worst_tame = max(worst_tame, check_tame(g, full_cube(n), sigma, CFG, seed=i).worst_violation)
        bottom = CubicalComplex(n, (Face(n, ((n, 0),)),))
        worst_bottom = max(
            worst_bottom, check_tame(g, bottom, sigma_prime, CFG, seed=i).worst_violation
        )
        count += 1
    ok = count == 20 and worst_restrict <= 1e-9 and worst_tame <= CFG.eq_tol and worst_bottom <= CFG.eq_tol
    _report(
        "criterion-4 tame-extension",
        ok,
        f"20 maps: restrict {worst_restrict:.1e}, tame {worst_tame:.1e}, bottom {worst_bottom:.1e}",
        time.time() - t0,
        60.0,
    )


def test_criterion_5_admissible_replacement():
    t0 = time.time()
    eps = 0.2
    cases = []
    for i in range(5):
        L = CubicalComplex(2, (Face(2, (((i % 2) + 1, i % 2),)),))
        cases.append((2, boundary_complex(2), L, 2000 + i))
    for i in range(5):
        L = CubicalComplex(3, (Face(3, (((i % 3) + 1, i % 2),)),))
        cases.append((3, boundary_complex(3), L, 3000 + i))
    worst_adm = 0.0
    worst_rel = 0.0
    worst_end = 0.0
    for n, K, L, seed in cases:
        f = random_map_admissible_on(np.random.default_rng(seed), n, L, eps)
        g, H, trace = admissible_replace(f, K, L, eps, CFG, seed=seed)
        worst_adm = max(worst_adm, trace.final_report.worst_violation)  # resolution 33
        rep65 = check_admissible(g, K, eps, ToleranceConfig(grid_res=65), seed=seed)
        worst_adm = max(worst_adm, rep65.worst_violation)
        pts = complex_grid(K, CFG.grid_res)
        worst_end = max(
            worst_end,
            float(np.max(np.abs(H.slice(0.0).eval_many(pts) - f.eval_many(pts)))),
            float(np.max(np.abs(H.slice(1.0).eval_many(pts) - g.eval_many(pts)))),
        )
        lpts = complex_grid(L, CFG.grid_res)
        fl = f.eval_many(lpts)
        for u in (0.0, 0.25, 0.5, 0.75, 1.0):
            su = np.concatenate([lpts, np.full((len(lpts), 1), u)], axis=1)
            worst_rel = max(worst_rel, float(np.max(np.abs(H.map.eval_many(su) - fl))))
    ok = worst_adm <= CFG.eq_tol and worst_rel <= 1e-9 and worst_end <= 1e-9
    _report(
        "criterion-5 admissible-replacement",
        ok,
        f"10 maps: admissible(33,65) {worst_adm:.1e}, relative {worst_rel:.1e}, endpoints {worst_end:.1e}",
        time.time() - t0,
        120.0,
    )


def test_criterion_6_deformation_homotopy():
    t0 = time.time()
    eps = 0.3
    worst_id = 0.0
    worst_dist = 0.0
    worst_fix = 0.0
    for n in (2, 3):
        H = deformation_retraction_homotopy(n, eps)
        axes = [np.linspace(0.0, 1.0, 21)] * n
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        z = np.concatenate([pts, np.zeros((len(pts), 1))], axis=1)
        o = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
        worst_id = max(worst_id, float(np.max(np.abs(H.map.eval_many(z) - pts))))
        worst_dist = max(worst_dist, float(dist_to_complex(j_complex(n), H.map.eval_many(o)).max()))
        delta = eps ** (n - 1)
        ch = region_grid(chamber_region(j_complex(n), delta), 7)
        for u in (0.0, 0.25, 0.5, 0.75, 1.0):
            su = np.concatenate([ch, np.full((len(ch), 1), u)], axis=1)
            worst_fix = max(worst_fix, float(np.max(np.abs(H.map.eval_many(su) - ch))))
    ok = worst_id <= 1e-12 and worst_dist <= 1e-9 and worst_fix <= 1e-12
    _report(
        "criterion-6 deformation-homotopy",
        ok,
        f"identity {worst_id:.1e}, containment {worst_dist:.1e}, chamber fix {worst_fix:.1e}",
        time.time() - t0,
        30.0,
    )


def test_criterion_7_concatenation_smoothness():
    t0 = time.time()
    worst_val = 0.0
    worst_fd = 0.0
    for i in range(10):
        n = 1 + (i % 2)
        f = random_tame_map(np.random.default_rng(4000 + i), n, 0.25)
        g1, h1 = tame_replace(f, 0.1, 0.25)
        g2, h2 = tame_replace(g1, 0.05, 0.1)
        hh = concat_homotopy(h1, h2, CFG)
        val, fd, _ = seam_report(hh.map, CFG)
        worst_val = max(worst_val, val)
        worst_fd = max(worst_fd, fd)
    ok = worst_val <= 1e-9 and worst_fd <= 1e-6
    _report(
        "criterion-7 concatenation-seam",
        ok,
        f"10 pairs: value {worst_val:.1e}, derivative {worst_fd:.1e}",
        time.time() - t0,
        10.0,
    )


def test_criterion_8_negative_controls():
    t0 = time.time()
    witness_ok = True
    detail = []
    for eps in (0.05, 0.1, 0.25):
        rep = check_tame(Coord(1, 1), full_cube(1), eps, CFG)
        w = rep.witness
        good = not rep.passed and w is not None
        if good:
            moved = w.depth if w.alpha == 0 else 1.0 - w.depth
            good = abs(rep.worst_violation - abs(w.point[w.axis - 1] - moved)) <= 1e-12
        witness_ok &= good
        detail.append(f"eps={eps}:{'fail-with-witness' if good else 'BROKEN'}")
    try:
        RetractionParams(2, eps=0.2, sigma=0.05, eps_prime=0.3)
        rejected = False
    except DomainError:
        rejected = True
    ok = witness_ok and rejected
    _report(
        "criterion-8 negative-controls",
        ok,
        ", ".join(detail) + f", broken retraction rejected {rejected}",
        time.time() - t0,
        5.0,
    )


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = main(["verify", "--suite", "all", "--seed", "7", "--out", str(a)])
    rc2 = main(["verify", "--suite", "all", "--seed", "7", "--out", str(b)])
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timestamp")
    rb.pop("timestamp")
    identical = json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    ok = rc1 == 0 and rc2 == 0 and identical
    _report(
        "criterion-9 cli-determinism",
        ok,
        f"exit codes ({rc1},{rc2}), reports identical modulo timestamp: {identical}",
        time.time() - t0,
        300.0,
    )
