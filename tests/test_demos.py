"""Smoke test of the narrative demos: each runs to the end and prints."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_sources_and_curves.py",
                                  "02_propagation_accuracy.py",
                                  "03_exponent_atlas.py",
                                  "04_lower_bound_witness.py",
                                  "05_scaling_sweep.py",
                                  "06_kernel_bounds.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
