"""Record the reference outputs of every workload into ``reference.json``.

    python3 perfbench/record.py

Runs each workload once per recorded seed and size, in process and
untimed.  Re-record only on purpose: a change that moves an output more
than ``workloads.REL_TOL`` must say so and why.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads as W  # noqa: E402


def main() -> int:
    ref = {}
    for name, cls in W.WORKLOADS.items():
        for size in ("full", "tiny"):
            seeds = W.RECORDED_SEEDS if size == "full" else (W.DEFAULT_SEED,)
            for seed in seeds:
                wl = cls(seed, size)
                outs = []
                for op in wl.operations():
                    out, passed = op()
                    if not passed:
                        raise SystemExit(f"{name}/{size}/seed {seed}: verdict "
                                         "failed; refusing to record it")
                    outs.append(W.to_json(out))
                ref.setdefault(name, {}).setdefault(size, {})[str(seed)] = outs
                print(f"recorded {name} {size} seed {seed}", flush=True)
    with open(W.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
