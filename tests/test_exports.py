import importlib

import pytest

MODULES = ("graphs", "cones", "shapes", "distributions", "bayes",
           "verify", "cli")


@pytest.mark.parametrize("name", ("graphwishart",) + tuple(
    "graphwishart." + m for m in MODULES))
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
