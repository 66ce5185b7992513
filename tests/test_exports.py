"""Every exported name resolves, in the package and in each layer module."""

import importlib

import pytest

LAYERS = ("basis", "indicators", "adapt", "expm", "schrodinger", "solvers", "experiments")


@pytest.mark.parametrize("module", ["adaptspec"] + ["adaptspec." + name for name in LAYERS])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
    assert len(set(mod.__all__)) == len(mod.__all__)
