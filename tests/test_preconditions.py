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

from tamecube.cubes import CubicalComplex, Face, boundary_complex, j_complex
from tamecube.errors import DimensionError, DomainError, TamenessError
from tamecube.genmaps import random_smooth_map
from tamecube.kernels import lambda_integral
from tamecube.maps import Coord, Product, Sum, affine_row, lambda_map
from tamecube.replace import admissible_replace
from tamecube.retract import RetractionParams
from tamecube.suites import SuiteConfig
from tamecube.tame import ToleranceConfig, check_admissible, check_tame, extend_tame, extend_to_jdelta

QUICK = ToleranceConfig(grid_res=11)
FACET = CubicalComplex(2, (Face(2, ((1, 0),)),))
RIM = CubicalComplex(3, tuple(Face(3, ((j, v), (3, 0))) for j in (1, 2) for v in (0, 1)))
# varies in t_1 only on [0.25, 0.35]: 0.25-tame on the walls and top, not
# 0.375-tame on the bottom rim
STEP = lambda_map(affine_row(3, {1: 10.0}, -2.5))


def _smooth(seed, n):
    return random_smooth_map(np.random.default_rng(seed), n)


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
        for value in (math.nan, math.inf, -math.inf)
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
