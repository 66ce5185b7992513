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


@pytest.mark.parametrize("layer", ("adapt", "basis", "expm", "schrodinger", "solvers"))
def test_package_reexports_each_layer_name_as_the_same_object(layer):
    # the tracer and monkeypatching swap functions by identity, so the package
    # must hold the layer's own objects, not copies
    package = importlib.import_module("adaptspec")
    mod = importlib.import_module("adaptspec." + layer)
    assert set(mod.__all__) <= set(package.__all__)
    assert all(getattr(package, name) is getattr(mod, name) for name in mod.__all__)
