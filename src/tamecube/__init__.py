"""Smooth collar-constant maps on cubes: kernels, complexes, checkers, operators."""

from .errors import (
    DimensionError,
    DomainError,
    ParseError,
    ReplacementError,
    TameCubeError,
    TamenessError,
)
from .kernels import (
    SmashParams,
    gamma_many,
    lambda_many,
    smash,
    smash_F,
)
from .cubes import (
    Box,
    BoxRegion,
    CubicalComplex,
    Face,
    boundary_complex,
    chamber_region,
    face_projection,
    full_cube,
    j_complex,
    j_delta_region,
    skeleton,
)
from .maps import (
    Homotopy,
    SmoothMap,
    parse_map,
    serialize_map,
)
from .tame import (
    TamenessReport,
    ToleranceConfig,
    Witness,
    check_admissible,
    check_fiber_constant,
    check_tame,
    concat_homotopy,
    concat_maps,
    extend_tame,
    extend_to_jdelta,
    jdelta_collar,
    seam_report,
    tame_replace,
)
from .retract import (
    RetractionParams,
    approx_retraction,
    deformation_retraction_homotopy,
    deformation_schedule,
)
from .replace import (
    ExtensionStep,
    FaceChart,
    ReplacementTrace,
    admissible_replace,
    face_chart,
)
from .suites import PropertyResult, SuiteConfig, report_schema_version, run_suite

__version__ = "0.1.0"
