"""The benchmark's workloads: inputs made from a seed, operations that call
the public API of ``ctschro``, and the checks that decide whether each
operation's output is correct.

Workloads (why each one was chosen is in BENCHMARK.json):

* ``sweep``       CLI ``sweep``, dilated family, alpha = 1/4, gamma = 3/4,
                  scales 16..256 (one A5 point, predicted slope 1/6).  One
                  operation per repetition.  The seed does not enter.
* ``agreement``   A4 route cross-check at lam = 64: seeded band-limited
                  spectrum, undamped m = 2, Hoelder alpha = 1/2 curve, 100
                  seeded, stratified (x, t) points in [-1, 1] x [0, 1].  One
                  operation per point.
* ``kernelcheck`` CLI ``kernelcheck``, alpha = 1/2, gamma = 2, lams
                  16/64/256, count 100, kernel draws seeded, Schur lams
                  16..128 (A7 shape).  One operation per repetition.

An operation fails when it raises, when its own verdict fails (the CLI
verdict, or A4's 1e-6 route tolerance), or when an output moves more than
``REL_TOL`` relative from ``reference.json``.  Outputs that depend on the
seed are compared only for the seeds recorded there; the others (every
``sweep`` output, the Schur integrals) are compared for every seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

DEFAULT_SEED = 7
# held-out seed: record claims made while tuning on DEFAULT_SEED again here
HELDOUT_SEED = 11
RECORDED_SEEDS = (DEFAULT_SEED, HELDOUT_SEED)

REL_TOL = 1e-6
A4_TOL = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# "full" is the benchmark; "tiny" is the seconds-long shape of the self-test.
# For the CLI workloads the entries are fields of the run configuration.
SIZES = {
    "sweep": {
        "full": {"scales": [16.0, 32.0, 64.0, 128.0, 256.0]},
        "tiny": {"scales": [16.0, 32.0, 64.0, 128.0], "n_samples": 128},
    },
    "agreement": {
        "full": {"lam": 64.0, "points": 100},
        "tiny": {"lam": 16.0, "points": 16},
    },
    "kernelcheck": {
        "full": {"lams": [16.0, 64.0, 256.0], "count": 100,
                 "schur_lams": [16.0, 32.0, 64.0, 128.0]},
        "tiny": {"lams": [8.0, 16.0], "count": 100,
                 "schur_lams": [4.0, 6.0, 8.0, 10.0]},
    },
}

class Workload:
    """One workload, prepared for one seed and size.

    ``prepare`` builds every input (the part of set-up after the imports);
    ``operations`` returns callables, each giving ``(outputs, passed)``;
    ``seed_free`` names the outputs that do not depend on the seed.
    """
    seed_free: tuple[str, ...] = ()
    floor = 0.0

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.shape = SIZES[self.name][size]
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError

    @staticmethod
    def summary(outputs: list):
        """Key outputs of one repetition (JSON form), printed beside timings."""
        return outputs[0]


class CliWorkload(Workload):
    """One ``cli.run_config`` call per repetition."""
    fixed: dict = {}

    def prepare(self):
        self.config = {**self.fixed, "fmt": "json", **self.shape}

    def operations(self):
        from ctschro import cli

        def op():
            rec = cli.run_config(dict(self.config))
            return self.outputs(rec["results"]), rec["passed"]
        return [op]


class Sweep(CliWorkload):
    name = "sweep"
    seed_free = ("Q", "slope")
    fixed = {"command": "sweep", "family": "dilated", "alpha": 0.25,
             "gamma": 0.75}

    @staticmethod
    def outputs(res):
        return {"Q": [row["Q"] for row in res["rows"]], "slope": res["slope"]}


class Agreement(Workload):
    name = "agreement"

    def prepare(self):
        from ctschro import domain, evolve
        spec_seq, point_seq = np.random.SeedSequence(self.seed).spawn(2)
        lam = self.shape["lam"]
        self.f = domain.random_band_limited(
            lam, seed=int(spec_seq.generate_state(1)[0]))
        self.params = domain.EvolutionParams(m=2.0, gamma=1.0, damping=False)
        self.curve = domain.holder_curve(0.5)
        self.plan = evolve.make_plan(self.f, self.params, self.curve)
        self.floor = 1e-2 * domain.amplitude_bound(self.f)
        # stratified draws: one x and one t in each of n equal strata, paired
        # at random; the oracle's and the slice's cost grow with t and |y|,
        # so this keeps the work of a repetition nearly the same across seeds
        rng = np.random.default_rng(point_seq)
        n = self.shape["points"]
        self.xs = -1.0 + 2.0 * (rng.permutation(n) + rng.uniform(size=n)) / n
        self.ts = (rng.permutation(n) + rng.uniform(size=n)) / n

    def operations(self):
        from ctschro import evolve

        def point(x, t):
            def op():
                a = evolve.evaluate_along_curve(self.plan, self.curve, x, t,
                                                path="transform")
                b = evolve.evaluate_along_curve(self.plan, self.curve, x, t,
                                                path="quadrature")
                resid = abs(a - b) / max(abs(b), self.floor)
                return ({"transform": a, "quadrature": b}, resid <= A4_TOL)
            return op
        return [point(float(x), float(t)) for x, t in zip(self.xs, self.ts)]

    @staticmethod
    def summary(outputs: list):
        pairs = [complex(*o["transform"]) - complex(*o["quadrature"])
                 for o in outputs if o is not None]
        return {"points": len(outputs), "first": outputs[0],
                "max_abs_route_gap": max(map(abs, pairs), default=None)}


class KernelCheck(CliWorkload):
    name = "kernelcheck"
    seed_free = ("schur_integrals",)
    fixed = {"command": "kernelcheck", "alpha": 0.5, "gamma": 2.0}

    def prepare(self):
        super().prepare()
        self.config["seed"] = self.seed

    @staticmethod
    def outputs(res):
        return {"max_ratios": res["max_ratios"],
                "schur_integrals": res["schur_integrals"]}

    def verify_args(self):
        c = self.config
        return (c["alpha"], c["gamma"], c["lams"], c["count"], c["seed"])


WORKLOADS = {w.name: w for w in (Sweep, Agreement, KernelCheck)}


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def to_json(value):
    """Outputs as JSON: complex numbers become [re, im] pairs."""
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(ref: dict, wl: Workload):
    """(per-operation reference outputs, keys to compare), or (None, ())."""
    entry = ref.get(wl.name, {}).get(wl.size, {})
    if str(wl.seed) in entry:
        return entry[str(wl.seed)], None
    if wl.seed_free and entry:
        return next(iter(entry.values())), wl.seed_free
    return None, ()


def drift(got, want, floor: float) -> float:
    """Largest relative distance of the raw output ``got`` from its JSON
    reference ``want``, with a floor on the denominator."""
    g = np.asarray(got)
    w = np.asarray(want, dtype=float)
    if np.iscomplexobj(g):
        w = w[..., 0] + 1j * w[..., 1]
    if g.shape != w.shape:
        return float("inf")
    return float(np.max(np.abs(g - w) / np.maximum(np.abs(w), floor),
                        initial=0.0))


def check(wl: Workload, index: int, outputs: dict, passed: bool,
          ref_ops, keys) -> tuple[list[str], float]:
    """Reasons why operation ``index`` failed (empty when it is correct) and
    the largest relative drift of its outputs from the reference."""
    reasons = [] if passed else ["verdict failed"]
    if ref_ops is None:
        return reasons, 0.0
    if index >= len(ref_ops):
        return reasons + ["no reference output"], float("inf")
    want = ref_ops[index]
    worst = 0.0
    for key in keys or want:
        got = outputs.get(key)
        d = float("inf") if got is None else drift(got, want[key], wl.floor)
        worst = max(worst, d)
        if not d <= REL_TOL:
            reasons.append(f"{key} moved {d:.3g} relative from the reference")
    return reasons, worst
