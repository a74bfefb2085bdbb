import importlib
import re
from pathlib import Path

import pytest

MODULES = ("graphs", "cones", "shapes", "distributions", "bayes",
           "verify", "cli")


@pytest.mark.parametrize("name", ("graphwishart",) + tuple(
    "graphwishart." + m for m in MODULES))
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


def test_readme_python_blocks_run():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_cone_exports():
    """The cone layer's public names; the dense Schur complement
    reference lives with the tests (``conftest.schur_pad``)."""
    import graphwishart
    from graphwishart import cones

    assert cones.__all__ == [
        "IncompleteMatrix", "SparsePrecision", "Blocks", "project",
        "trace_pair", "complete", "precision_of", "phi", "logdet_hat",
        "split_blocks", "assemble_blocks"]
    assert not hasattr(cones, "schur_pad")
    assert "schur_pad" not in graphwishart.__all__
