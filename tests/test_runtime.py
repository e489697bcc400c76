"""Process-level properties of the package, each checked in a fresh
interpreter: what importing and running it loads, and how often its
evaluation loop makes the allocator fault pages in."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctschro

SRC = str(Path(ctschro.__file__).resolve().parents[1])


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ctschro; return the JSON object it prints last."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_no_command_loads_numpy_ma_or_scipy():
    # np.unique and np.median import numpy.ma to ask whether their input is
    # a masked array, which no run uses (see README, "The runtime needs
    # numpy alone").  Every command, and eval with both spectrums, runs in
    # one interpreter.  Only band eval loads numpy.random: kernelcheck draws
    # numpy's stream without it, so it is checked before band eval runs.
    out = _run("""
import json, sys
import ctschro.cli
fam = {"family": "dilated", "alpha": 0.25, "gamma": 0.75}
point = {"x": [0.0], "t": [0.0]}
def run(*cfgs):
    return [ctschro.cli.run_config(cfg)["passed"] for cfg in cfgs]
passed = run(
    {"command": "atlas", "alpha": 0.5, "gamma": 1.0},
    {"command": "sweep", **fam, "scales": [16.0, 32.0, 64.0, 128.0],
     "n_samples": 128},
    {"command": "lowerbound", **fam, "R": 16.0},
    {"command": "kernelcheck", "alpha": 0.5, "gamma": 2.0, "seed": 3,
     "lams": [16.0, 32.0], "schur_lams": [16.0, 24.0, 32.0, 48.0],
     "count": 100},
    {"command": "eval", **fam, "R": 16.0, **point})
random = "numpy.random" in sys.modules
passed += run({"command": "eval", "spectrum": "band", "lam": 16.0,
               "seed": 3, **point})
print(json.dumps({"passed": passed, "random_before_band": random,
                  "loaded": sorted(m for m in sys.modules
                                   if m.split(".")[0] == "scipy"
                                   or m.split(".")[:2] == ["numpy", "ma"])}))
""")
    assert out == {"passed": [True] * 6, "random_before_band": False,
                   "loaded": []}


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the allocator policy is glibc's mallopt")
def test_evaluation_loop_does_not_refault_its_temporaries():
    # ten points of the agreement benchmark's shape (lam = 64 band spectrum,
    # undamped m = 2, Hoelder 1/2 curve) through both routes, twice; the
    # second pass reuses the first pass's heap: 2 faults on a 2-CPU Linux
    # box.  Under glibc's default thresholds it faulted in 16.6 k pages, and
    # 5.1 k in a process that had imported scipy, whose import frees a large
    # block and so raises the mmap threshold.
    out = _run("""
import json, resource
import numpy as np
from ctschro import domain, evolve
f = domain.random_band_limited(64.0, seed=52)
params = domain.EvolutionParams(m=2.0, gamma=1.0, damping=False)
curve = domain.holder_curve(0.5)
plan = evolve.make_plan(f, params, curve)
rng = np.random.default_rng(7)
xs = -1.0 + 2.0 * (rng.permutation(10) + rng.uniform(size=10)) / 10
ts = (rng.permutation(10) + rng.uniform(size=10)) / 10
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for x, t in zip(xs.tolist(), ts.tolist()):
        for path in ("transform", "quadrature"):
            evolve.evaluate_along_curve(plan, curve, x, t, path=path)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"faults": faults}))
""")
    assert out["faults"][1] < 1000, out
