"""The gates that refuse bad input, pinned by their exact messages.

Each row builds an input that a construction or a node must refuse and
names the error type, the exact message where one is pinned, and the
report the error must carry: a precondition failure hands back the very
report of the failed check, so it is compared with that check run on its
own.
"""

import math

import numpy as np
import pytest

from tamecube.cubes import (
    CubicalComplex,
    Face,
    boundary_complex,
    chamber_region,
    full_cube,
    j_complex,
    j_delta_region,
    skeleton,
)
from tamecube.errors import DimensionError, DomainError, TamenessError
from tamecube.genmaps import random_smooth_map
from tamecube.kernels import SmashParams, lambda_integral
from tamecube.maps import (
    Const,
    Coord,
    Homotopy,
    PiecewiseAxis,
    Product,
    Sum,
    TupleMap,
    add,
    affine_row,
    const,
    lambda_map,
    piecewise,
    tup,
)
from tamecube.replace import admissible_replace
from tamecube.retract import RetractionParams, deformation_retraction_homotopy
from tamecube.suites import SuiteConfig
from tamecube.tame import (
    ToleranceConfig,
    check_admissible,
    check_tame,
    concat_maps,
    extend_tame,
    extend_to_jdelta,
    jdelta_collar,
    seam_report,
    tame_replace,
)

QUICK = ToleranceConfig(grid_res=11)
EMPTY = CubicalComplex(2, ())
FACET = CubicalComplex(2, (Face(2, ((1, 0),)),))
RIM = CubicalComplex(3, tuple(Face(3, ((j, v), (3, 0))) for j in (1, 2) for v in (0, 1)))
# varies in t_1 only on [0.25, 0.35]: 0.25-tame on the walls and top, not
# 0.375-tame on the bottom rim
STEP = lambda_map(affine_row(3, {1: 10.0}, -2.5))
# the first component overflows to +inf where t_2 > 0.8; INF_G's second
# component is INF_F's plus 1, so a seam between them jumps by 1
BIG = affine_row(2, {2: 1e308}, 1e308)
INF_F = tup(BIG, Coord(1, 2))
INF_G = tup(BIG, add(Coord(1, 2), const(1.0, 2)))


def _smooth(seed, n):
    return random_smooth_map(np.random.default_rng(seed), n)


def _overflowing(call):
    """``call`` with numpy's overflow warning off: the gate, not the warning,
    must refuse the value."""

    def run():
        with np.errstate(over="ignore"):
            return call()

    return run


# every public checker and construction, with a seed; the empty complex
# is a domain with nothing to scan
SEEDED = {
    "check_tame": lambda seed: check_tame(Coord(1, 2), full_cube(2), 0.2, QUICK, seed),
    "check_tame-empty": lambda seed: check_tame(Coord(1, 2), EMPTY, 0.2, QUICK, seed),
    "check_admissible-empty": lambda seed: check_admissible(Coord(1, 2), EMPTY, 0.2, QUICK, seed),
    "extend_tame": lambda seed: extend_tame(Coord(1, 2), eps=0.25, sigma=0.1, cfg=QUICK, seed=seed),
    "extend_to_jdelta": lambda seed: extend_to_jdelta(Coord(1, 1), 0.3, cfg=QUICK, seed=seed),
    "admissible_replace-empty-L": lambda seed: admissible_replace(Coord(1, 2), FACET, EMPTY, 0.2, QUICK, seed),
}


def _params(field, value):
    widths = {"sigma": 0.1, "eps_prime": 0.15, "eps": 0.2}
    return lambda: RetractionParams(2, **{**widths, field: value})


# (id, call, error type, exact message or None, the failing check or None)
CASES = [
    (
        "extend_tame-walls-plus-top",
        lambda: extend_tame(_smooth(0, 2), eps=0.25, sigma=0.1, cfg=QUICK),
        TamenessError,
        "input map is not 0.25-tame on the walls-plus-top complex (worst violation 1.824e+00)",
        lambda: check_tame(_smooth(0, 2), j_complex(2), 0.25, QUICK),
    ),
    (
        "extend_tame-bottom-rim",
        lambda: extend_tame(STEP, eps=0.25, sigma=0.1, eps_prime=0.375, cfg=QUICK),
        TamenessError,
        "input map is not 0.375-tame on the bottom rim (worst violation 1.000e+00)",
        lambda: check_tame(STEP, RIM, 0.375, QUICK),
    ),
    (
        "extend_to_jdelta",
        lambda: extend_to_jdelta(_smooth(1, 2), 0.3, cfg=QUICK, seed=2),
        TamenessError,
        "input map is not 0.3-admissible on the walls-plus-top complex (worst violation 5.988e-01)",
        lambda: check_admissible(_smooth(1, 2), j_complex(2), 0.3, QUICK, seed=2),
    ),
    (
        "admissible_replace-L",
        lambda: admissible_replace(Coord(2, 2), boundary_complex(2), FACET, 0.2, QUICK, seed=3),
        TamenessError,
        "input map is not 0.2-admissible on L (worst violation 2.000e-01)",
        lambda: check_admissible(Coord(2, 2), FACET, 0.2, QUICK, seed=3),
    ),
    ("sum-empty", lambda: Sum(()), DimensionError, "sum needs at least one child", None),
    ("prod-empty", lambda: Product(()), DimensionError, "prod needs at least one child", None),
    ("tuple-empty", lambda: TupleMap(()), DimensionError, "tuple needs at least one child", None),
    (
        "tuple-in-dims",
        lambda: TupleMap((Coord(1, 1), Coord(1, 2))),
        DimensionError,
        "tuple: children in_dims [1, 2] differ",
        None,
    ),
    (
        "sum-in-dims",
        lambda: Sum((Coord(2, 2), Coord(1, 1))),
        DimensionError,
        "sum: children in_dims [1, 2] differ",
        None,
    ),
    (
        "concat_maps-non-finite-value",
        _overflowing(lambda: concat_maps(INF_F, INF_G)),
        DomainError,
        "value at point (1.0, 0.8125) is not finite",
        None,
    ),
    (
        "seam_report-non-finite-value",
        _overflowing(lambda: seam_report(piecewise(1, (0.5,), (INF_F, INF_G)))),
        DomainError,
        "value at point (0.5, 0.8125) is not finite",
        None,
    ),
    (
        "check_tame-non-finite-value",
        _overflowing(lambda: check_tame(INF_F, full_cube(2), 0.3, ToleranceConfig(grid_res=9))),
        DomainError,
        "value at point (0.0, 0.8) is not finite",
        None,
    ),
    *(
        (f"retraction-{field}-{value}", _params(field, value), DomainError, None, None)
        for field in ("sigma", "eps_prime", "eps")
        for value in (math.nan, math.inf, -math.inf)
    ),
    *(
        (
            f"lambda_integral-{value}",
            lambda value=value: lambda_integral(value),
            DomainError,
            "expected finite reals",
            None,
        )
        for value in (math.nan, math.inf, -math.inf)
    ),
    (
        "suite-config-repeated-dimension",
        lambda: SuiteConfig("retract", ns=(1, 2, 1)),
        DomainError,
        "dimensions must not repeat, got (1, 2, 1)",
        None,
    ),
    (
        "suite-config-repeated-width",
        lambda: SuiteConfig("retract", eps_list=(0.25, 0.1, 0.25)),
        DomainError,
        "widths must not repeat, got (0.25, 0.1, 0.25)",
        None,
    ),
    *(
        (
            f"tolerance-{field}-{value}",
            lambda field=field, value=value: ToleranceConfig(**{field: value}),
            DomainError,
            "tolerances must be positive and finite",
            None,
        )
        for field in ("eq_tol", "deriv_tol")
        for value in (math.nan, math.inf, -math.inf, "1", None, True)
    ),
    *(
        (
            f"tolerance-grid_res-{value}",
            lambda value=value: ToleranceConfig(grid_res=value),
            DomainError,
            f"grid_res must be an integer of at least 3, got {value!r}",
            None,
        )
        for value in (3.5, 33.0, "33", 2)
    ),
    (
        "suite-config-fractional-dimension",
        lambda: SuiteConfig("retract", ns=(2.5,)),
        DomainError,
        "dimensions must be a non-empty list of integers within 1..4, got (2.5,)",
        None,
    ),
    (
        "suite-config-width-not-real",
        lambda: SuiteConfig("retract", eps_list=("0.2",)),
        DomainError,
        "widths must be a non-empty list of reals within (0, 1/2), got ('0.2',)",
        None,
    ),
    (
        "suite-config-fractional-seed",
        lambda: SuiteConfig("tame", seed=1.5),
        DomainError,
        "seed must be an integer >= 0, got 1.5",
        None,
    ),
    (
        "suite-config-bool-dimension",
        lambda: SuiteConfig("retract", ns=(True,)),
        DomainError,
        "dimensions must be a non-empty list of integers within 1..4, got (True,)",
        None,
    ),
    *(
        (
            f"suite-config-bool-seed-{value}",
            lambda value=value: SuiteConfig("tame", seed=value),
            DomainError,
            f"seed must be an integer >= 0, got {value}",
            None,
        )
        for value in (True, False)
    ),
    *(
        (
            f"{where}-seed-{value}",
            lambda call=call, value=value: call(value),
            DomainError,
            f"seed must be an integer >= 0, got {value!r}",
            None,
        )
        for where, call in SEEDED.items()
        for value in (None, -1, 1.5, True)
    ),
    *(
        (f"{what.replace(' ', '-')}-{value}", call, DimensionError, f"{what} must be an integer, got {value!r}", None)
        for what, value, call in (
            ("coord index", True, lambda: Coord(True, 1)),
            ("coord index", 1.0, lambda: Coord(1.0, 2)),
            ("coord dim", 2.0, lambda: Coord(1, 2.0)),
            ("const dim", 2.0, lambda: Const((1.0,), 2.0)),
            ("const dim", True, lambda: Const((1.0,), True)),
            ("piece axis", 1.0, lambda: PiecewiseAxis(1.0, (0.5,), (Coord(1, 1), Coord(1, 1)))),
            ("retraction n", True, lambda: RetractionParams(True, 0.4, 0.1, 0.2)),
            ("retraction n", 2.0, lambda: RetractionParams(2.0, 0.4, 0.1, 0.2)),
        )
    ),
    *(
        (f"{where}-{what.replace(' ', '-')}-{value}", call, DomainError, f"{what} must be an integer, got {value!r}", None)
        for where, what, value, call in (
            ("face", "pinned value", True, lambda: Face(2, ((1, True),))),
            ("face", "pinned value", 1.0, lambda: Face(2, ((1, 1.0),))),
            ("face", "pinned axis", True, lambda: Face(2, ((True, 0),))),
            ("face", "pinned axis", 1.0, lambda: Face(2, ((1.0, 0),))),
            ("face", "ambient dimension", True, lambda: Face(True, ())),
            ("face", "ambient dimension", 2.0, lambda: Face(2.0, ())),
            ("complex", "ambient dimension", 2.0, lambda: CubicalComplex(2.0, ())),
            ("complex", "ambient dimension", False, lambda: CubicalComplex(False, ())),
            ("full_cube", "ambient dimension", 2.0, lambda: full_cube(2.0)),
            ("boundary_complex", "ambient dimension", 2.0, lambda: boundary_complex(2.0)),
        )
    ),
    *(
        (
            f"skeleton-dimension-{value}",
            lambda value=value: skeleton(full_cube(2), value),
            DomainError,
            f"skeleton dimension must be an integer >= 0, got {value!r}",
            None,
        )
        for value in (1.5, True, -1)
    ),
    *(
        (
            f"admissible_replace-L-in-{where}",
            lambda L=L: admissible_replace(Coord(1, 2), boundary_complex(2), L, 0.2, QUICK),
            DimensionError,
            "subcomplex test of complexes with different ambient dimensions",
            None,
        )
        for where, L in (("I3", CubicalComplex(3, (Face(3, ((1, 0),)),))), ("I3-empty", CubicalComplex(3, ())))
    ),
    (
        "suite-config-tolerances-not-a-config",
        lambda: SuiteConfig("tame", tolerances=1e-9),
        DomainError,
        "tolerances must be a ToleranceConfig, got 1e-09",
        None,
    ),
]


@pytest.mark.parametrize("call,error,message,check", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_gate_refuses_with_its_message_and_report(call, error, message, check):
    with pytest.raises(error) as info:
        call()
    if message is not None:
        assert str(info.value) == message
    if check is not None:
        report = check()
        assert not report.passed
        assert info.value.report == report


def _past(x):
    """The next float above x."""
    return float(np.nextafter(x, np.inf))


def _before(x):
    """The next float below x."""
    return float(np.nextafter(x, -np.inf))


# (id, a call that must be accepted, one that must be refused): one of
# them is at the bound and the other one float past it
EDGES = [
    ("grid_res", lambda: ToleranceConfig(grid_res=3), lambda: ToleranceConfig(grid_res=2)),
    ("tame_replace-eps", lambda: tame_replace(Coord(1, 2), 0.1, 0.5), lambda: tame_replace(Coord(1, 2), 0.1, _past(0.5))),
    ("tame_replace-sigma", lambda: tame_replace(Coord(1, 2), 5e-324, 0.25), lambda: tame_replace(Coord(1, 2), 0.0, 0.25)),
    (
        "extend_tame-sigma_prime",
        lambda: extend_tame(const(1.0, 2), eps=0.25, sigma=0.1, sigma_prime=_past(0.1), cfg=QUICK),
        lambda: extend_tame(const(1.0, 2), eps=0.25, sigma=0.1, sigma_prime=0.1, cfg=QUICK),
    ),
    ("j_delta_region-n", lambda: j_delta_region(1, 0.2), lambda: j_delta_region(0, 0.2)),
    ("deformation-eps", lambda: deformation_retraction_homotopy(3, 0.5), lambda: deformation_retraction_homotopy(3, _past(0.5))),
    ("SmashParams-sigma-low", lambda: SmashParams(0.0, 0.25), lambda: SmashParams(_before(0.0), 0.25)),
    ("SmashParams-sigma-tau", lambda: SmashParams(_before(0.25), 0.25), lambda: SmashParams(0.25, 0.25)),
    ("SmashParams-tau", lambda: SmashParams(0.1, 0.5), lambda: SmashParams(0.1, _past(0.5))),
    ("slice-low", lambda: Homotopy(Coord(1, 2)).slice(0.0), lambda: Homotopy(Coord(1, 2)).slice(_before(0.0))),
    ("slice-high", lambda: Homotopy(Coord(1, 2)).slice(1.0), lambda: Homotopy(Coord(1, 2)).slice(_past(1.0))),
    ("check_tame-eps", lambda: check_tame(Coord(1, 2), full_cube(2), 0.5, QUICK), lambda: check_tame(Coord(1, 2), full_cube(2), _past(0.5), QUICK)),
    (
        "check_admissible-eps",
        lambda: check_admissible(Coord(1, 2), full_cube(2), 0.5, QUICK),
        lambda: check_admissible(Coord(1, 2), full_cube(2), _past(0.5), QUICK),
    ),
    (
        "extend_tame-eps_prime",
        lambda: extend_tame(const(1.0, 2), eps=0.25, sigma=0.1, eps_prime=0.5, cfg=QUICK),
        lambda: extend_tame(const(1.0, 2), eps=0.25, sigma=0.1, eps_prime=_past(0.5), cfg=QUICK),
    ),
    ("chamber_region-eps", lambda: chamber_region(full_cube(2), 0.5), lambda: chamber_region(full_cube(2), _past(0.5))),
    ("j_delta_region-delta", lambda: j_delta_region(2, _before(0.5)), lambda: j_delta_region(2, 0.5)),
    ("jdelta_collar-n", lambda: jdelta_collar(2, 0.2), lambda: jdelta_collar(1, 0.2)),
]


@pytest.mark.parametrize("accepted,refused", [e[1:] for e in EDGES], ids=[e[0] for e in EDGES])
def test_bound_accepts_one_side_of_its_edge_and_refuses_the_other(accepted, refused):
    accepted()
    with pytest.raises(DomainError):
        refused()
