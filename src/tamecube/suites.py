"""Named verification suites behind the command-line ``verify`` command.

Each suite runs a battery of properties over a configured parameter grid
and reports the worst violation per property.  All randomness flows from
the configured seed, so reports are reproducible; the reduction over
samples is an exact max, so they do not depend on evaluation order.  A
package error inside a suite replaces that suite's rows by one failing
row, ``<suite>-error``, that names the error.

``run_suite`` shares its suites among the workers of ``workers.count``,
one per CPU this process may use and at most one per suite: the calling
process and children from ``os.fork``, each running the next suite of one
queue until the queue is empty.  With one suite, one CPU, no ``os.fork`` or
another live Python thread, the caller runs every suite itself.  The rows
are put together in sorted-name order, so the report is the same for any
number of workers.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from numbers import Integral, Real

import numpy as np

from . import cubes as cb
from . import kernels as kr
from . import maps as mp
from . import workers
from .errors import DomainError, TameCubeError, _is_number
from .genmaps import random_map_admissible_on, random_tame_map
from .replace import admissible_replace
from .retract import RetractionParams, approx_retraction, deformation_retraction_homotopy, deformation_schedule
from .tame import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _require_seed,
    check_tame,
    concat_homotopy,
    concat_maps,
    extend_tame,
    extend_to_jdelta,
    seam_report,
    tame_replace,
)

__all__ = ["SuiteConfig", "PropertyResult", "SUITE_NAMES", "run_suite", "report_schema_version"]

SCHEMA_VERSION = "1.1.0"


def report_schema_version() -> str:
    return SCHEMA_VERSION


@dataclass(frozen=True)
class PropertyResult:
    name: str
    params: dict
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "worst": float(self.worst),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }


@dataclass(frozen=True)
class SuiteConfig:
    """Suite name, parameter grid, the checks' tolerances and grid, and seed.

    The rows of the ``tame`` and ``replace`` suites check on grids of
    ``tolerances.grid_res`` points per axis, capped per row with
    ``ToleranceConfig.capped``.
    """

    suite: str
    ns: tuple[int, ...] = (1, 2, 3)
    eps_list: tuple[float, ...] = (0.1, 0.25, 0.4)
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES
    seed: int = 0

    def __post_init__(self):
        if self.suite not in SUITE_NAMES and self.suite != "all":
            raise DomainError(f"unknown suite {self.suite!r}; known: {sorted(SUITE_NAMES)}")
        if not self.ns or any(not (_is_number(n, Integral) and 1 <= n <= 4) for n in self.ns):
            raise DomainError(f"dimensions must be a non-empty list of integers within 1..4, got {self.ns}")
        if not self.eps_list or any(not (_is_number(e, Real) and 0.0 < e < 0.5) for e in self.eps_list):
            raise DomainError(f"widths must be a non-empty list of reals within (0, 1/2), got {self.eps_list}")
        if not isinstance(self.tolerances, ToleranceConfig):
            raise DomainError(f"tolerances must be a ToleranceConfig, got {self.tolerances!r}")
        for what, values in (("dimensions", self.ns), ("widths", self.eps_list)):
            if len(set(values)) < len(values):
                raise DomainError(f"{what} must not repeat, got {values}")
        _require_seed(self.seed)
        # store plain Python numbers: json cannot write numpy scalars into a report
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))
        object.__setattr__(self, "seed", int(self.seed))


def _sample_ts(seed: int, count: int = 1000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    half = count // 2
    return np.concatenate([np.linspace(-0.5, 1.5, half), rng.uniform(-0.5, 1.5, count - half)])


SMASH_PAIRS = ((0.1, 0.25), (0.05, 0.5), (0.0, 0.3), (0.2, 0.45), (0.15, 0.3))
# where the kernel rows compare the quadrature table with Simpson: fractions of a band
INTERIOR = (0.25, 0.5, 0.75)


def _simpson_integral(fn, a: float, b: float, panels: int = 4096) -> float:
    """Composite Simpson rule; the independent oracle for kernel integrals."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = fn(xs)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()))


def _at_times(H: mp.Homotopy, pts: np.ndarray, times: tuple[float, ...]) -> np.ndarray:
    """H's slices at ``times`` on pts, shape (times, points, m), from one evaluation
    on pts with each time appended; a row's value does not depend on its batch."""
    rows = np.concatenate([np.insert(pts, pts.shape[1], u, axis=1) for u in times])
    return H.map.eval_many(rows).reshape(len(times), len(pts), H.map.out_dim)


def _kernels_suite(cfg: SuiteConfig) -> list[PropertyResult]:
    out = []
    ts = _sample_ts(cfg.seed)
    lam = kr.lambda_many(ts)
    lam_m = kr.lambda_many(1.0 - ts)
    sym = float(np.max(np.abs(lam_m - (1 - lam))))
    out.append(PropertyResult("lambda-symmetry", {"samples": len(ts)}, sym, 1e-12))
    order = np.sort(ts)
    drops = -np.diff(kr.lambda_many(order))
    worst = float(max(0.0, drops.max())) if len(drops) else 0.0
    out.append(PropertyResult("lambda-monotone", {"samples": len(ts)}, worst, 1e-12))
    integral = _simpson_integral(kr.lambda_many, 0.0, 1.0)
    gap = abs(integral - 0.5)
    out.append(PropertyResult("lambda-integral-half", {"panels": 4096}, gap, 1e-8))
    gap = max(abs(float(kr.lambda_integral(s)) - _simpson_integral(kr.lambda_many, 0.0, s)) for s in INTERIOR)
    out.append(PropertyResult("lambda-integral-interior", {"s": list(INTERIOR)}, gap, 1e-8))
    # one-sided slopes at 0 and 1 for steps 1e-2, 1e-3: the finer must not be larger
    steps = np.array([1e-2, 1e-3])
    slopes = np.abs(kr.lambda_many([steps, 1.0 - steps]) - kr.lambda_many([[0.0], [1.0]])) / steps
    worst_fd = float(max(0.0, np.max(slopes[:, 1] - slopes[:, 0])))
    out.append(PropertyResult("lambda-flat-ends", {"steps": [1e-2, 1e-3]}, worst_fd, 0.0))

    for sigma, tau in SMASH_PAIRS:
        p = kr.SmashParams(sigma, tau)
        tv = kr.smash(ts, sigma, tau)
        tv_m = kr.smash(1.0 - ts, sigma, tau)
        sym = float(np.max(np.abs(tv_m - (1.0 - tv))))
        out.append(PropertyResult("smash-symmetry", {"sigma": sigma, "tau": tau}, sym, 1e-9))
        tsort = kr.smash(order, sigma, tau)
        mono = float(max(0.0, (-np.diff(tsort)).max()))
        out.append(PropertyResult("smash-monotone", {"sigma": sigma, "tau": tau}, mono, 1e-9))
        band = np.linspace(tau, 1.0 - tau, 101)
        ident = float(np.max(np.abs(kr.smash(band, sigma, tau) - band)))
        out.append(PropertyResult("smash-identity-band", {"sigma": sigma, "tau": tau}, ident, 1e-9))
        if sigma > 0:
            flat = np.concatenate([np.linspace(-0.3, sigma, 41), np.linspace(1 - sigma, 1.3, 41)])
            vals = kr.smash(flat, sigma, tau)
            expected = np.where(flat <= 0.5, 0.0, 1.0)
            worst_flat = float(np.max(np.abs(vals - expected)))
            out.append(PropertyResult("smash-flat-bands-exact", {"sigma": sigma, "tau": tau}, worst_flat, 0.0))
        # smash_F(p, t) = int_{sigma/tau}^t lambda(r(x)) dx + (tau + sigma) / (2 tau) lambda(r(t))
        # with r(x) = (tau x - sigma) / (tau - sigma); t runs over interior points of the band
        def lam_r(x):
            return kr.lambda_many((tau * x - sigma) / (tau - sigma))

        lo = sigma / tau
        gap = 0.0
        for t in (lo + (1.0 - lo) * f for f in INTERIOR):
            oracle = _simpson_integral(lam_r, lo, t) + (tau + sigma) / (2.0 * tau) * float(lam_r(t))
            gap = max(gap, abs(kr.smash_F(p, t) - oracle))
        out.append(PropertyResult("smash-F-interior", {"sigma": sigma, "tau": tau}, gap, 1e-8))
    return out


def _retract_suite(cfg: SuiteConfig) -> list[PropertyResult]:
    out = []
    for n in cfg.ns:
        for eps in cfg.eps_list:
            R = approx_retraction(RetractionParams.from_eps(n, eps))
            pts = cb.box_grid(cb.Box(((0.0, 1.0),) * n), 21)
            dist = float(cb.dist_to_complex(cb.j_complex(n), R.eval_many(pts)).max())
            out.append(PropertyResult("retraction-containment", {"n": n, "eps": eps}, dist, 1e-9))
            ch = cb.region_grid(cb.chamber_region(cb.j_complex(n), eps), 9)
            dev = float(np.max(np.abs(R.eval_many(ch) - ch))) if len(ch) else 0.0
            out.append(PropertyResult("retraction-chamber-identity", {"n": n, "eps": eps}, dev, 1e-12))
    for n in [n for n in cfg.ns if n >= 2]:
        eps = 0.3
        H = deformation_retraction_homotopy(n, eps)
        delta = deformation_schedule(n, eps)["retraction_eps"]
        pts = cb.box_grid(cb.Box(((0.0, 1.0),) * n), 9 if n >= 3 else 21)
        at0, at1 = _at_times(H, pts, (0.0, 1.0))
        dev0 = float(np.max(np.abs(at0 - pts)))
        out.append(PropertyResult("deformation-identity-at-0", {"n": n, "eps": eps}, dev0, 1e-12))
        dist1 = float(cb.dist_to_complex(cb.j_complex(n), at1).max())
        out.append(PropertyResult("deformation-containment-at-1", {"n": n, "eps": eps}, dist1, 1e-9))
        ch = cb.region_grid(cb.chamber_region(cb.j_complex(n), delta), 7)
        worst = float(np.max(np.abs(_at_times(H, ch, (0.0, 0.25, 0.5, 0.75, 1.0)) - ch)))
        out.append(PropertyResult("deformation-chamber-fixed", {"n": n, "eps": eps}, worst, 1e-12))
        region = cb.j_delta_region(n, delta)
        rp = cb.region_grid(region, 9)
        moved = _at_times(H, rp, (0.25, 0.5, 0.75, 1.0)).reshape(-1, n)
        worst_in = float(cb.dist_to_region(region, moved).max())
        out.append(PropertyResult("deformation-collar-region-stable", {"n": n, "eps": eps}, worst_in, 1e-9))
    try:
        RetractionParams(2, eps=0.2, sigma=0.05, eps_prime=0.3)
        rejected = 1.0
    except DomainError:
        rejected = 0.0
    out.append(PropertyResult("retraction-bad-params-rejected", {}, rejected, 0.0))
    return out


def _tame_suite(cfg: SuiteConfig) -> list[PropertyResult]:
    out = []
    tol = cfg.tolerances
    for eps in (0.05, 0.1, 0.25):
        rep = check_tame(mp.Coord(1, 1), cb.full_cube(1), eps, tol, cfg.seed)
        witness_gap = 1.0
        if not rep.passed and rep.witness is not None:
            w = rep.witness
            moved = w.depth if w.alpha == 0 else 1.0 - w.depth
            witness_gap = abs(rep.worst_violation - abs(w.point[w.axis - 1] - moved))
        out.append(PropertyResult("identity-not-tame", {"eps": eps}, witness_gap, 1e-12))
    g, H = tame_replace(mp.Coord(1, 1), 0.1, 0.25)
    rep = check_tame(g, cb.full_cube(1), 0.1, tol, cfg.seed)
    out.append(
        PropertyResult("taming-produces-tame", {"sigma": 0.1, "eps": 0.25}, rep.worst_violation, tol.eq_tol)
    )
    ch = cb.region_grid(cb.chamber_region(cb.full_cube(1), 0.25), 9)
    worst = float(np.max(np.abs(_at_times(H, ch, (0.0, 0.5, 1.0)) - ch)))
    out.append(PropertyResult("taming-relative-to-chamber", {"sigma": 0.1, "eps": 0.25}, worst, tol.eq_tol))

    for i, n in enumerate([n for n in cfg.ns if n <= 3][:3]):
        eps, sigma = 0.25, 0.1
        rng = np.random.default_rng(cfg.seed + 100 + i)
        f = random_tame_map(rng, n, eps, space_eps=0.5 * (eps + 0.5))
        gext = extend_tame(f, eps=eps, sigma=sigma, cfg=tol, seed=cfg.seed)
        quick = tol.capped(17)
        pts = cb.complex_grid(cb.j_complex(n), quick.grid_res)
        gap = float(np.max(np.abs(gext.eval_many(pts) - f.eval_many(pts))))
        out.append(PropertyResult("extension-restriction", {"n": n, "eps": eps}, gap, tol.eq_tol))
        rep = check_tame(gext, cb.full_cube(n), sigma, quick, cfg.seed)
        out.append(PropertyResult("extension-tame", {"n": n, "sigma": sigma}, rep.worst_violation, tol.eq_tol))
        bottom = cb.CubicalComplex(n, (cb.Face(n, ((n, 0),)),))
        repb = check_tame(gext, bottom, 0.5 * (sigma + eps), quick, cfg.seed)
        out.append(PropertyResult("extension-bottom-tame", {"n": n}, repb.worst_violation, tol.eq_tol))

    rng = np.random.default_rng(cfg.seed + 200)
    f1 = random_tame_map(rng, 2, 0.25)
    g1, h1 = tame_replace(f1, 0.1, 0.25)
    g2, h2 = tame_replace(g1, 0.05, 0.1)
    hh = concat_homotopy(h1, h2, tol)
    val, fd, ok = seam_report(hh.map, tol)
    out.append(PropertyResult("concat-seam-value", {"n": 2}, val, tol.eq_tol))
    out.append(PropertyResult("concat-seam-derivative", {"n": 2}, fd, tol.deriv_tol))

    rng = np.random.default_rng(cfg.seed + 300)
    base = random_tame_map(rng, 2, 0.2)
    c0 = base.eval([0.0, 0.0])
    flat = mp.add(
        mp.const(tuple(c0), 2),
        mp.mul(
            mp.lambda_map(mp.affine_row(2, {1: 5.0}, -1.0)),
            mp.lambda_map(mp.affine_row(2, {1: -5.0}, 4.0)),
            mp.lambda_map(mp.affine_row(2, {2: 5.0}, -1.0)),
            mp.lambda_map(mp.affine_row(2, {2: -5.0}, 4.0)),
            mp.add(base, mp.const(tuple(-c0), 2)),
        ),
    )
    star = concat_maps(flat, flat, tol)
    bpts = cb.complex_grid(cb.boundary_complex(2), tol.capped(17).grid_res)
    worst = float(np.max(np.abs(star.eval_many(bpts) - np.asarray(c0))))
    out.append(PropertyResult("concat-constant-boundary", {"n": 2}, worst, tol.eq_tol))

    p = kr.SmashParams(0.2, 0.35)
    fc = mp.tup(*[mp.smash_map(p, mp.coord(k, 2)) for k in (1, 2)])
    rep = check_tame(fc, cb.full_cube(2), 0.2, tol.capped(9), cfg.seed)
    out.append(PropertyResult("fiber-constant-smash", {"eps": 0.2}, rep.worst_violation, tol.eq_tol))

    rng = np.random.default_rng(cfg.seed + 400)
    for n in [n for n in cfg.ns if 2 <= n <= 3][:2]:
        eps = 0.3
        # exactly eps-tame, hence eps-admissible; push onto the collared region
        f = random_tame_map(rng, n, eps)
        quick = tol.capped(9)
        fe = extend_to_jdelta(f, eps, cfg=quick, seed=cfg.seed)
        pts = cb.complex_grid(cb.j_complex(n), quick.grid_res)
        gap = float(np.max(np.abs(fe.eval_many(pts) - f.eval_many(pts))))
        out.append(PropertyResult("jdelta-agrees-on-walls", {"n": n, "eps": eps}, gap, tol.eq_tol))
    return out


def _replace_suite(cfg: SuiteConfig) -> list[PropertyResult]:
    out = []
    cases = [
        (2, cb.boundary_complex(2), cb.CubicalComplex(2, (cb.Face(2, ((1, 0),)),)), cfg.seed + 1),
        (2, cb.boundary_complex(2), cb.CubicalComplex(2, (cb.Face(2, ((2, 1),)),)), cfg.seed + 2),
        (3, cb.boundary_complex(3), cb.CubicalComplex(3, (cb.Face(3, ((1, 0),)),)), cfg.seed + 3),
    ]
    eps = 0.2
    tol = cfg.tolerances
    for n, K, L, seed in cases:
        rng = np.random.default_rng(seed)
        f = random_map_admissible_on(rng, n, L, eps)
        quick = tol.capped(17 if n == 3 else 33)
        g, H, trace = admissible_replace(f, K, L, eps, quick, seed=seed)
        out.append(
            PropertyResult(
                "replace-admissible",
                {"n": n, "L": L.describe(), "eps": eps},
                trace.final_report.worst_violation,
                tol.eq_tol,
            )
        )
        pts = cb.complex_grid(K, quick.grid_res)
        ends = np.stack([f.eval_many(pts), g.eval_many(pts)])
        worst = float(np.max(np.abs(_at_times(H, pts, (0.0, 1.0)) - ends)))
        out.append(PropertyResult("replace-endpoints", {"n": n, "L": L.describe()}, worst, tol.eq_tol))
        lpts = cb.complex_grid(L, quick.grid_res)
        fl = f.eval_many(lpts)
        worst = float(np.max(np.abs(_at_times(H, lpts, (0.0, 0.25, 0.5, 0.75, 1.0)) - fl)))
        out.append(PropertyResult("replace-relative-on-L", {"n": n, "L": L.describe()}, worst, tol.eq_tol))
    return out


SUITES = {
    "kernels": _kernels_suite,
    "retract": _retract_suite,
    "tame": _tame_suite,
    "replace": _replace_suite,
}
SUITE_NAMES = frozenset(SUITES)


def _run_one(name: str, cfg: SuiteConfig) -> list[PropertyResult]:
    try:
        return SUITES[name](cfg)
    except TameCubeError as exc:
        return [PropertyResult(f"{name}-error", {"error": f"{type(exc).__name__}: {exc}"}, 1.0, 0.0)]


def _take(queue: int, names: list[str], cfg: SuiteConfig) -> dict[int, list[PropertyResult]]:
    """Run the suite of each index read from ``queue``, one byte each, until it is empty."""
    done = {}
    while index := os.read(queue, 1):
        done[index[0]] = _run_one(names[index[0]], cfg)
    return done


def _run_all(names: list[str], cfg: SuiteConfig) -> list[PropertyResult]:
    """The rows of the suites ``names``, in that order, from ``workers.count`` workers."""
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(names))))
    os.close(feed)
    children = {}  # pid -> read end of its result pipe
    try:
        workers.fork(children, workers.count(len(names)), lambda i: _take(queue, names, cfg))
        done = _take(queue, names, cfg)
        for payload in workers.results(children):
            if payload is not None:  # a worker that ended without a result: its suites are missing below
                done.update(payload)
    finally:
        os.close(queue)
        workers.reap(children)
    missing = [names[i] for i in range(len(names)) if i not in done]
    if missing:
        raise RuntimeError(f"a suite worker ended without a result; suites not run: {', '.join(missing)}")
    return [r for i in range(len(names)) for r in done[i]]


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute a suite (or all of them) and assemble the JSON report."""
    names = sorted(SUITES) if cfg.suite == "all" else [cfg.suite]
    results = _run_all(names, cfg)
    failures = sum(1 for r in results if not r.passed)
    return {
        "schema": SCHEMA_VERSION,
        "suite": cfg.suite,
        "config": {"ns": list(cfg.ns), "eps": list(cfg.eps_list), **asdict(cfg.tolerances), "seed": cfg.seed},
        "results": [r.to_json() for r in results],
        "failures": failures,
        "passed": failures == 0,
    }
