"""Self-test of the benchmark harness, in well under a minute:

    python3 perfbench/selftest.py

* a tiny-size pass over every workload, plain and traced, must print every
  metric that BENCHMARK.json names, with its unit, and no failure;
* one oracle value perturbed by 1e-5 relative must be counted as failed;
* in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark must exit non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def _result(out: str) -> dict:
    res = json.loads(out.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(res)}")
    return res


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []

    for wl in bench["workloads"]:
        for trace, spec in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            code, out, err = _run(["--workload", wl["name"], "--seed", "7",
                                   "--seconds", "1", "--trace", trace,
                                   "--size", "tiny"])
            where = f"{wl['name']} trace={trace}"
            if code != 0:
                problems.append(f"{where}: exit {code}: {err.strip()[-500:]}")
                continue
            res = _result(out)
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']}/{res['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            lines = {ln.split(" = ")[0]: ln for ln in out.splitlines()
                     if " = " in ln}
            for name, unit in want.items():
                line = lines.get(f"{wl['name']} {name}", "")
                if f" {unit} (median of n=" not in line:
                    problems.append(f"{where}: {name} [{unit}] not printed")
            print(f"ok {where}", flush=True)

    code, out, err = _run(["--workload", "agreement", "--seconds", "1",
                           "--size", "tiny", "--plant-error"])
    res = _result(out) if code == 0 else None
    if res is None or res["correct"] or res["failed"] < 1:
        problems.append(f"planted oracle error not counted: exit {code}, {res}")
    else:
        print(f"ok planted error counted: {res['failed']}/{res['attempted']} failed")

    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out, err = _run(["--workload", bench["workloads"][0]["name"]], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"metrics"' in out:
        problems.append(f"bare directory: exit {code}, printed {out[-200:]!r}")
    else:
        print(f"ok bare directory refused: exit {code}")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
