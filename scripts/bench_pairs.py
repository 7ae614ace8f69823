"""Run alternated benchmark pairs of a parent checkout and this one.

    python3 scripts/bench_pairs.py --parent ../parent --workload spectral \\
        --seed 1 --pairs 10

Run from the root of this checkout.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
the parent checkout and once in this one, strictly one after the other:
odd pairs run the parent first, even pairs this checkout.  T is
BENCHMARK.json's ``run_seconds``, and each side runs its own perfbench/.
Every run prints one line: its failed and attempted queries, then each
end-to-end metric of BENCHMARK.json.

The summary gives, for each metric, the median and the quartiles of each
side, how many pairs the change wins (ties count for neither side) and
whether a gain may be claimed: the change wins at least nine tenths of
the pairs, the medians differ by more than the parent's interquartile
range and the change fails no more queries in all than the parent.
Exits 1 when a run fails to produce its result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9                   # pairs the change must win for a claim


def summarize(pairs, better: dict, failed) -> list[dict]:
    """Per metric of ``better`` (name -> "lower" or "higher"), from a list
    of (parent, change) metric dicts and one of (parent, change) failed
    query counts: each side's (q1, median, q3), as ``statistics.quantiles``
    cuts them, the change's wins over the pairs and whether it may claim a
    gain."""
    fails_no_more = sum(c for _, c in failed) <= sum(p for p, _ in failed)
    rows = []
    for name, way in better.items():
        sign = 1.0 if way == "lower" else -1.0
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        wins = sum(sign * (a - b) > 0.0 for a, b in zip(old, new))
        q_old = tuple(statistics.quantiles(old, n=4))
        q_new = tuple(statistics.quantiles(new, n=4))
        gain = sign * (q_old[1] - q_new[1])
        rows.append({"metric": name, "parent": q_old, "change": q_new,
                     "wins": wins, "pairs": len(pairs),
                     "claim": (wins >= WIN_SHARE * len(pairs)
                               and gain > q_old[2] - q_old[0]
                               and fails_no_more)})
    return rows


def _run(root: str, args, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise SystemExit(f"{root}: exit {out.returncode}: {out.stderr[-500:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need --pairs 2 or more")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    pairs, failed = [], []
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        got, fails = {}, {}
        for side in order:
            res = _run(sides[side], args, spec["run_seconds"])
            got[side] = {k: v["value"] for k, v in res["metrics"].items()}
            fails[side] = res["failed"]
            values = " ".join(f"{k}={got[side][k]:.4g}" for k in better)
            print(f"pair {i} {side}: failed {res['failed']}/"
                  f"{res['attempted']} {values}", flush=True)
        pairs.append((got["parent"], got["change"]))
        failed.append((fails["parent"], fails["change"]))
    print(f"{args.workload} seed {args.seed}, {len(pairs)} pairs "
          "(q1 / median / q3)")
    for row in summarize(pairs, better, failed):
        old, new = row["parent"], row["change"]
        print(f"{row['metric']}: parent {old[0]:.4g} / {old[1]:.4g} / "
              f"{old[2]:.4g}, change {new[0]:.4g} / {new[1]:.4g} / "
              f"{new[2]:.4g}, change wins {row['wins']} of {row['pairs']}, "
              f"gain {'claimed' if row['claim'] else 'not claimed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
