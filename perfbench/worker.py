"""One repetition of one workload in a fresh process.

Started by ``run.py``, which passes the workload, seed, size and mode.  The
worker imports ``ctschro`` from the checkout, builds the workload's inputs,
stamps the moment it is ready for the first call, runs every operation in
order and checks each output.  It prints one JSON object on its last line.

Modes: ``setup`` stops after the stamp; ``plain`` runs untraced; ``traced``
installs the tracer and, for ``kernelcheck``, also times the kernel bound
sweep on one thread.  ``--plant-error`` multiplies one oracle value by
(1 + 1e-5); the self-test uses it to show that such an error is counted.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_ENV = "CTSCHRO_THREADS"


def _plant_error(evolve) -> None:
    """Multiply one oracle value by (1 + 1e-5): the first one at or above
    A4's floor of 1e-2 * amplitude_bound, below which relative errors are
    not resolved (self-test only)."""
    from ctschro.domain import amplitude_bound
    orig = evolve.direct_quadrature
    done = [False]

    def planted(f, *args, **kwargs):
        val = orig(f, *args, **kwargs)
        if not done[0] and abs(val) >= 1e-2 * amplitude_bound(f):
            done[0] = True
            val *= 1.0 + 1e-5
        return val
    evolve.direct_quadrature = planted


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    p.add_argument("--spans", help="file the traced mode writes its spans to")
    p.add_argument("--plant-error", action="store_true")
    args = p.parse_args(argv)

    import ctschro
    if os.path.dirname(os.path.dirname(os.path.realpath(ctschro.__file__))) \
            != os.path.realpath(os.path.join(ROOT, "src")):
        raise SystemExit(f"ctschro imported from {ctschro.__file__}, "
                         "not from this checkout")
    import workloads as W
    wl = W.WORKLOADS[args.workload](args.seed, args.size)
    ops = wl.operations()
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    ref_ops, keys = W.reference_for(W.load_reference(), wl)

    tracer = None
    if args.mode == "traced":
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    if args.plant_error:
        from ctschro import evolve
        _plant_error(evolve)

    failures, failed, outputs, worst = [], set(), [], 0.0
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            out, passed = op()
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
            reasons, out = [f"{type(exc).__name__}: {exc}"], None
        else:
            reasons, d = W.check(wl, i, out, passed, ref_ops, keys)
            worst = max(worst, d)
        if reasons:
            failed.add(i)
            failures += [f"op {i}: {r}" for r in reasons]
        outputs.append(W.to_json(out))
    verdict_s = time.perf_counter() - t0

    result = {"ready": ready, "verdict_s": verdict_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "attempted": len(ops),
              "failed": len(failed),
              "failures": failures[:20],
              "reference": ("all outputs" if keys is None else
                            "seed-free outputs" if ref_ops is not None else "none"),
              "max_drift": worst,
              "outputs": outputs}
    if tracer is not None:
        tracer.uninstall()
        tracer.op = None
        result["layers"] = tracer.layer_metrics()
        result["counts"] = tracer.counts
        result["serial_s"] = 0.0
        if args.workload == "kernelcheck":
            result["serial_s"] = _serial_verify(wl)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


def _serial_verify(wl) -> float:
    """Wall time of the workload's kernel bound sweep on one thread."""
    from ctschro import kernel
    saved = os.environ.get(THREAD_ENV)
    os.environ[THREAD_ENV] = "1"
    try:
        t0 = time.perf_counter()
        kernel.verify_kernel_bound(*wl.verify_args())
        return time.perf_counter() - t0
    finally:
        if saved is None:
            del os.environ[THREAD_ENV]
        else:
            os.environ[THREAD_ENV] = saved


if __name__ == "__main__":
    sys.exit(main())
