"""Exact-count determinism check: two traced runs, same seed, same counts.

    python3 perfbench/determinism.py --seed 3 --seconds 1 spectral certify census

Runs ``run.py --trace 1`` twice per workload, one run after another, and
compares the exact counts (cylinder atoms, cyclic words, smoothing kernel
operations, operator points).  Exits 1 if any count differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run not correct")
    return {c: result["metrics"][c]["value"] for c in EXACT_COUNTS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = p.parse_args(argv)
    same = True
    for wl in args.workloads:
        first = traced_counts(wl, args.seed, args.seconds)
        second = traced_counts(wl, args.seed, args.seconds)
        for name in EXACT_COUNTS:
            match = first[name] == second[name]
            same &= match
            print(f"{wl:9s} {name:28s} {first[name]:>14} {second[name]:>14} "
                  f"{'same' if match else 'DIFFERENT'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
