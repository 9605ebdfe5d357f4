"""Every name a module exports resolves, so deleting a public name cannot leave it listed."""

import importlib
import pkgutil

import pytest

import anchorft

MODULES = ["anchorft"] + [
    f"anchorft.{info.name}" for info in pkgutil.iter_modules(anchorft.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "__all__ lists a name twice"
    assert [name for name in exported if not hasattr(module, name)] == []
