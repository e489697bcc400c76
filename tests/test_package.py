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


def test_every_traced_layer_resolves():
    # perfbench/layertrace.py wraps each (module, function) pair of TARGETS
    # and reads TimeGrid.extra_times in its maximal_field counter, so a
    # deletion that drops one of them would break traced benchmark runs
    import dataclasses
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("layertrace",
                                                  path / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for module, func in layertrace.TARGETS:
        mod = importlib.import_module(f"ctschro.{module}")
        assert callable(getattr(mod, func, None)), (module, func)
    fields = {f.name for f in dataclasses.fields(ctschro.maximal.TimeGrid)}
    assert "extra_times" in fields
