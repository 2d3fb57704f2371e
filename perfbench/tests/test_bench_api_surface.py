"""The benchmark uses only tamecube API that the planned refactors keep.

The roadmap replaces the adaptive smash quadrature (with its config and
scalar fallbacks), drops ``slice_homotopy``, merges the ``Project`` node
into ``Coord`` and removes the thread-pool setting of ``run_suite``.  A
benchmark that named any of them would break when they go, so the
benchmark's own files must not mention them, and every tamecube name they
import must be on the allow-list below.
"""

import ast
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]

FORBIDDEN = {"_smash_integral", "smash_T_many", "QuadratureConfig", "slice_homotopy", "Project", "TAMECUBE_THREADS"}

ALLOWED = {
    "tamecube.cli": {"main"},
    "tamecube.suites": {"run_suite", "SuiteConfig"},  # run_suite takes a SuiteConfig
    "tamecube.replace": {"admissible_replace"},
    "tamecube.tame": {"check_admissible", "check_tame", "extend_tame", "ToleranceConfig"},  # grid for the checks
    "tamecube.retract": {"approx_retraction", "deformation_retraction_homotopy", "RetractionParams"},
    "tamecube.genmaps": {"random_smooth_map", "random_tame_map", "random_map_admissible_on"},
    "tamecube.maps": {"parse_map", "serialize_map", "smash_map", "Smash", "SmashDyn"},
    "tamecube.kernels": {"lambda_many"},
    # complexes and their grids: the inputs and check points of the replace workload
    "tamecube.cubes": {"CubicalComplex", "Face", "boundary_complex", "complex_grid"},
}


def violations(source: str) -> list[str]:
    """Forbidden names anywhere, tamecube imports outside the allow-list, private attributes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"private attribute {node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [w for w in FORBIDDEN if w in node.value]
        elif isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "tamecube"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tamecube":
            allowed = ALLOWED.get(node.module, set())
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in allowed]
            names = [a.name for a in node.names]
        found += [f"forbidden {n}" for n in names if n in FORBIDDEN]
    return found


def test_benchmark_sources_use_only_kept_public_api():
    sources = sorted(BENCH.glob("*.py"))
    assert {p.name for p in sources} >= {"run.py", "child.py", "work.py", "layers.py"}
    problems = {p.name: violations(p.read_text(encoding="utf-8")) for p in sources}
    assert {k: v for k, v in problems.items() if v} == {}


def test_scanner_catches_each_kind_of_use():
    assert violations("from tamecube.kernels import smash_T_many")
    assert violations("from tamecube.maps import Coord")
    assert violations("import tamecube.suites")
    assert violations("env = {'TAMECUBE_THREADS': '2'}")
    assert violations("x = tamecube.maps._eval")
    assert violations("from tamecube.maps import slice_homotopy")
    assert violations("from tamecube.maps import parse_map\nparse_map('(coord 1)').eval_many") == []
