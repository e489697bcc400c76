"""ctschro benchmark: three workloads through the public API, end-to-end
metrics from plain runs and per-layer metrics from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/selftest.py                      # seconds-long harness check

``--seed`` makes every seeded input (the agreement spectrum and points, the
kernel draws); the default is 7 and 11 is the held-out seed on which a
claim made while tuning should be checked again.  The program receives
only the generated inputs.  The workloads run one after another, in a
closed loop with one client: one repetition of a workload is one fresh
worker process (``worker.py``), and the next starts when it has ended.

``--trace 0`` repeats the workload until ``--seconds`` have passed and
reports medians over the repetitions:

* ``time_to_verdict_s``  first experiment call to the last checked result
* ``setup_s``            process start to the first call: imports plus
                         building the inputs; extra set-up-only processes
                         bring it to ``SETUP_SAMPLES`` samples
* ``peak_rss_mb``        peak resident memory of the worker process

``--trace 1`` runs one plain and one traced repetition and reports, per
wrapped function F (see ``layertrace.TARGETS``), ``F.calls``, ``F.busy_s``,
``F.self_s`` and ``F.errors``, the work counts and useful-work ratios, the
kernel bound sweep on one thread (``kernel.verify_kernel_bound.serial_s``)
and ``trace.overhead_s`` (traced minus plain time to verdict).

Every run prints its metadata, each metric with unit and sample count,
``fail_ratio`` and the key outputs with their drift from ``reference.json``.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and the full record are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata as pkg_metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads as W  # noqa: E402

SETUP_SAMPLES = 7
# a run of one workload must end within 180 s; workers are killed after this
DEADLINE_S = 170
# the kernel bound sweep's pool size; fixed so runs on other machines compare
DEFAULT_THREADS = "2"
THREAD_ENVS = ("CTSCHRO_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

COUNTS = ("numerics.lagrange_uniform.queries", "numerics.refined_cells.nodes",
          "evolve.propagate_slice.samples", "maximal.maximal_field.x_nodes")
RATIOS = {
    "maximal.maximal_field.slice_useful_ratio":
        ("maximal.maximal_field.useful_slices", "maximal.maximal_field.slices"),
    "maximal.maximal_field.oracle_useful_ratio":
        ("maximal.maximal_field.witness_argmax",
         "maximal.maximal_field.witness_nodes"),
}


def per_layer_units() -> dict:
    units = {}
    for lab in layertrace.LABELS:
        for field in layertrace.SPAN_FIELDS:
            units[f"{lab}.{field}"] = "s" if field.endswith("_s") else "count"
    units.update(dict.fromkeys(COUNTS, "count"))
    units.update(dict.fromkeys(RATIOS, "ratio"))
    units["kernel.verify_kernel_bound.serial_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def check_checkout() -> None:
    for path in (os.path.join(ROOT, "src", "ctschro", "__init__.py"),
                 W.REFERENCE_PATH):
        if not os.path.isfile(path):
            raise HarnessError(f"missing {os.path.relpath(path, ROOT)}: run "
                               "from the root of a ctschro checkout")


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.setdefault("CTSCHRO_THREADS", DEFAULT_THREADS)
    return env


def _git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, timeout=30, check=True).stdout.strip()


def run_metadata() -> dict:
    sha, dirty = "unknown (not a git checkout)", None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git failed)"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = worker_env()
    return {"git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(),
            "numpy": pkg_metadata.version("numpy"),
            "scipy": pkg_metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            **{name: env.get(name) for name in THREAD_ENVS}}


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def run_worker(args, mode: str, spans: str | None = None) -> dict:
    """One fresh worker process; returns its result with ``setup_s`` added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    if args.plant_error and mode != "setup":
        cmd.append("--plant-error")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(args.deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"{mode} worker still running {DEADLINE_S} s "
                           "after the workload started")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise HarnessError(f"{mode} worker exited {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t_spawn
    return result


def plain_runs(args) -> tuple[list[dict], list[float]]:
    """Repetitions until ``--seconds`` have passed."""
    start = time.monotonic()
    reps = [run_worker(args, "plain")]
    while time.monotonic() - start < args.seconds:
        reps.append(run_worker(args, "plain"))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args, "setup")["setup_s"])
    return reps, setups


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _metric(values, unit) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


def measure(args) -> tuple[dict, list[dict]]:
    """Metrics (each with value, unit and sample count) and the worker
    results they came from."""
    if not args.trace:
        reps, setups = plain_runs(args)
        metrics = {
            "time_to_verdict_s": _metric([r["verdict_s"] for r in reps], "s"),
            "setup_s": _metric(setups, "s"),
            "peak_rss_mb": _metric([r["peak_rss_mb"] for r in reps], "MB"),
        }
        return metrics, reps

    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    plain = run_worker(args, "plain")
    traced = run_worker(args, "traced", spans)
    values = dict(traced["layers"])
    counts = traced["counts"]
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    for name, (num, den) in RATIOS.items():
        values[name] = counts[num] / counts[den] if counts.get(den) else 0.0
    values["kernel.verify_kernel_bound.serial_s"] = traced["serial_s"]
    values["trace.overhead_s"] = traced["verdict_s"] - plain["verdict_s"]
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k], "n": 1}
            for k in units}, [plain, traced]


def report(args, meta: dict, metrics: dict, results: list[dict]) -> dict:
    """Print the readable lines of one workload; return its summary."""
    name = args.workload
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"== {name} seed={args.seed} size={args.size} "
          f"trace={int(args.trace)} worker runs={len(results)}")
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']} (median of n={m['n']})")
    print(f"{name} fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for r in results:
        for line in r["failures"]:
            print(f"{name} FAILED {line}")
    first = results[0]
    print(f"{name} reference check: {first['reference']}; largest drift "
          f"{max(r['max_drift'] for r in results):.3g} (fails above "
          f"{W.REL_TOL:g})")
    print(f"{name} outputs: {json.dumps(W.WORKLOADS[name].summary(first['outputs']))}")

    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{int(args.trace)}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "args": vars(args), "metrics": metrics,
                   "results": results}, fh, indent=1)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*W.WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the seconds-long shape used by the self-test")
    p.add_argument("--plant-error", action="store_true",
                   help="perturb one oracle value by 1e-5 (self-test)")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through run_worker so that it stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        check_checkout()
        meta = run_metadata()
        print("meta " + json.dumps(meta))
        names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
        summaries = {}
        for name in names:
            args.workload = name
            args.deadline = time.monotonic() + DEADLINE_S
            summaries[name] = report(args, meta, *measure(args))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    metrics = {}
    for name, s in summaries.items():
        prefix = "" if len(summaries) == 1 else f"{name}."
        for key, m in s["metrics"].items():
            metrics[prefix + key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
