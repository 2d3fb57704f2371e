"""``scripts/output_digests.py`` lists every output, and its digests repeat.

One output of each kind is made twice, in fresh directories, and must
give the same text both times: a digest that moved between two runs of
the same code could not tell a changed output from an unchanged one.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def digests(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "scripts" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_listing_names_every_output(digests, tmp_path):
    names = list(digests.outputs(tmp_path))
    assert len(names) == len(set(names)) == 42
    assert sum(name.startswith("verify-") for name in names) == 3
    assert sum(name.startswith("sample-") for name in names) == 9
    assert sum(name.startswith("replace-") for name in names) == 30


@pytest.mark.parametrize("name", ["verify-0", "sample-1-retraction", "replace-1-0-n2"])
def test_digest_repeats(digests, name, tmp_path):
    texts = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        texts.append(digests.outputs(tmp_path / run)[name]())
    assert texts[0] and texts[0] == texts[1]
