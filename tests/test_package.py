"""The public names of the package are those of its modules' ``__all__``."""

import importlib

import pytest

import ctschro

MODULES = ("atlas", "domain", "evolve", "kernel", "maximal")


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_a_package_attribute(module):
    mod = importlib.import_module(f"ctschro.{module}")
    for name in mod.__all__:
        assert getattr(ctschro, name) is getattr(mod, name), name
    assert set(mod.__all__) <= set(ctschro.__all__)
