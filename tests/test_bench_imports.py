"""Every tamecube name that the benchmark in ``perfbench/`` imports exists.

The benchmark runs the package from source, so deleting or renaming a name
it imports breaks it although every other test still passes.  This test
reads the benchmark's sources with ``ast`` and changes nothing there.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tamecube_imports(source: str):
    """``(module, name)`` per imported tamecube name, name ``None`` for ``import tamecube.x``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tamecube":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "tamecube")


def resolves(module: str, name: str | None) -> bool:
    try:
        found = importlib.import_module(module)
        if name is None or hasattr(found, name):
            return True
        importlib.import_module(f"{module}.{name}")  # a submodule not yet loaded
        return True
    except ImportError:
        return False


def test_benchmark_imports_resolve():
    imports = {
        (path.name, module, name)
        for path in sorted(BENCH.glob("*.py"))
        for module, name in tamecube_imports(path.read_text(encoding="utf-8"))
    }
    assert {"layers.py", "work.py"} <= {file for file, _, _ in imports}
    assert sorted(i for i in imports if not resolves(*i[1:])) == []


def test_scanner_catches_a_missing_name():
    source = "import os\nfrom tamecube.maps import parse_map, no_such_name\ndef f():\n    import tamecube.nope\n"
    found = list(tamecube_imports(source))
    assert found == [("tamecube.maps", "parse_map"), ("tamecube.maps", "no_such_name"), ("tamecube.nope", None)]
    assert [resolves(*i) for i in found] == [True, False, False]
    assert resolves("tamecube", "maps") and resolves("tamecube.cli", "main")
