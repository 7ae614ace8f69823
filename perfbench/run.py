"""transferlab benchmark: run one named workload and print its metrics.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: spectral, certify, census (see README.md for why each exists).

Load model: one client, a closed loop with one outstanding query.  Each
pass over the workload's query list runs in a fresh worker process, so the
package's caches start cold, and passes run strictly one after another.
With ``--trace 0`` passes repeat until ``--seconds`` have elapsed (at least
one); the end-to-end metrics are medians over passes, latencies pooled over
every query of every pass.  Set-up -- process start through imports and
workload generation -- is the median over SETUP_SAMPLES set-up-only
workers started after the passes.  With ``--trace 1`` untraced and traced
passes alternate until ``--seconds`` have elapsed (at least one pair); the
per-layer numbers come from the traced passes and the overhead is traced
minus untraced wall time.

The gated times are in seconds at a reference speed (see speed.py): each
query latency is scaled by the query probes taken on either side of it and
inside it, and each set-up time by the start probes run just before and
after its worker.  The measured times are printed next to them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, holding exactly the
metrics BENCHMARK.json declares for the mode, with its units.  The lines
before it are a readable report that also carries the measured times and
the metrics BENCHMARK.json does not declare (fail_frac, query_p50_s,
query_p90_s).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

WORK_ROOT = ".perfbench"          # scratch and span files, in the checkout
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0            # every run ends well inside 180 s
P90_MIN_SAMPLES = 100             # ten samples beyond the 90th percentile

# exact counts that must repeat for the same seed
EXACT_COUNTS = ("cancellation.atoms", "orbits.cyclic_words",
                "rpf.smooth_grid.kernel_ops", "thermo.apply.points")

COMPUTED = ("thermo.apply.points", "rpf.smooth_grid.kernel_ops")


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for a mode."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


class Worker:
    """Starts one worker process and collects its JSON result."""

    def __init__(self, args, work: str):
        self.args = args
        self.work = work
        self.started = 0

    def run(self, trace: int, setup_only: bool, deadline: float,
            sample: bool = False):
        self.started += 1
        tag = f"w{self.started}"
        result = os.path.join(self.work, f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--trace", str(trace), "--work", os.path.join(self.work, tag),
               "--result", result, "--spawned", repr(time.time())]
        if trace:
            cmd += ["--spans", os.path.join(
                WORK_ROOT, f"spans-{self.args.workload}-seed{self.args.seed}"
                           ".jsonl")]
        if setup_only:
            cmd.append("--setup-only")
        if sample:
            cmd.append("--sample")
        timeout = max(1.0, deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return None, f"worker killed after {timeout:.0f} s"
        if proc.returncode != 0 or not os.path.exists(result):
            return None, (f"worker exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-400:]}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh), None


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile of a sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _passes(args, worker, deadline: float, t0: float):
    """Run untraced passes, probing inside queries too, until the
    measuring time is used, at least one."""
    done, errors = [], []
    while True:
        res, err = worker.run(0, False, deadline, sample=True)
        if err:
            errors.append(err)
            break
        done.append(res)
        if time.monotonic() - t0 >= args.seconds:
            break
    return done, errors


def _failures(passes, errors, n_queries):
    attempted = sum(len(p["queries"]) for p in passes) + n_queries * len(errors)
    failed = (sum(1 for p in passes for q in p["queries"] if not q["ok"])
              + n_queries * len(errors))
    return attempted, failed


def _report_failures(passes, errors):
    for p in passes:
        for q in p["queries"]:
            if not q["ok"]:
                print(f"FAILED query {q['id']} ({q['label']}): {q['reason']}")
    for err in errors:
        print(f"FAILED pass: {err}")


def _rounded(values):
    return [round(v, 4) for v in values]


def _setups(worker, deadline: float):
    """Set-up times of SETUP_SAMPLES set-up-only workers, each run between
    two start probes; returns (setups, probes, error)."""
    setups, probes = [], [speed.start_probe(sys.executable)]
    for _ in range(SETUP_SAMPLES):
        res, err = worker.run(0, True, deadline)
        if err:
            return setups, probes, err
        setups.append(res["setup_s"])
        probes.append(speed.start_probe(sys.executable))
    return setups, probes, None


def measure(args, n_queries: int, worker, t0: float, deadline: float):
    passes, errors = _passes(args, worker, deadline, t0)
    setups, start_probes, err = _setups(worker, deadline)
    if err:
        errors.append(err)
    setups_ref = speed.scale(setups, start_probes, speed.START_REF_S)
    attempted, failed = _failures(passes, errors, n_queries)
    _report_failures(passes, errors)
    if not passes or not setups:
        return False, attempted, failed, {}
    lat = [q["latency_s"] for p in passes for q in p["queries"]]
    metrics = {
        "wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes),
        "setup_s": statistics.median(setups_ref),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    print(f"passes={len(passes)} queries/pass={n_queries} "
          f"setup samples={len(setups)}")
    print(f"  wall_s per pass (measured): "
          f"{_rounded(p['wall_s'] for p in passes)}")
    print(f"  wall_ref_s per pass: {_rounded(p['wall_ref_s'] for p in passes)}")
    print(f"  query probe median per pass: "
          f"{_rounded(statistics.median(p['probes_s']) for p in passes)} "
          f"(reference {speed.PROBE_REF_S} s)")
    print(f"  setup samples (measured): {_rounded(setups)}")
    print(f"  start probes: {_rounded(start_probes)} "
          f"(reference {speed.START_REF_S} s)")
    print(f"  setup_s samples: {_rounded(setups_ref)}")
    print(f"  fail_frac = {failed / attempted:.6f} "
          f"({failed} failed / {attempted} attempted)")
    print(f"  wall_s = {statistics.median(p['wall_s'] for p in passes):.6f} s "
          f"(measured)")
    print(f"  setup_raw_s = {statistics.median(setups):.6f} s (measured)")
    print(f"  query_p50_s = {statistics.median(lat):.6f} s "
          f"({len(lat)} samples, measured)")
    if len(lat) >= P90_MIN_SAMPLES:
        print(f"  query_p90_s = {_quantile(lat, 0.9):.6f} s "
              f"({len(lat)} samples, measured)")
    else:
        print(f"  query_p90_s not reported: {len(lat)} samples "
              f"< {P90_MIN_SAMPLES}")
    return failed == 0, attempted, failed, metrics


def trace(args, n_queries: int, worker, t0: float, deadline: float):
    plain, traced, errors = [], [], []
    while True:
        for sink, mode in ((plain, 0), (traced, 1)):
            res, err = worker.run(mode, False, deadline)
            if err:
                errors.append(err)
            else:
                sink.append(res)
        if errors or time.monotonic() - t0 >= args.seconds:
            break
    passes = plain + traced
    attempted, failed = _failures(passes, errors, n_queries)
    _report_failures(passes, errors)
    if not traced or not plain:
        return False, attempted, failed, {}
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    counts_repeat = all(
        p["layers"][c] == traced[0]["layers"][c]
        for p in traced for c in EXACT_COUNTS)
    print(f"traced passes={len(traced)} untraced passes={len(plain)} "
          f"queries/pass={n_queries}")
    for key in ("wall_s", "wall_ref_s"):
        on = statistics.median(p[key] for p in traced)
        off = statistics.median(p[key] for p in plain)
        print(f"  tracing overhead, {key}: traced {on:.4f} s - untraced "
              f"{off:.4f} s = {on - off:.4f} s ({(on / off - 1) * 100:.1f}%)")
        if key == "wall_ref_s":
            metrics["trace.wall_ref_s"] = on
            metrics["trace.untraced_wall_ref_s"] = off
            metrics["trace.overhead_ref_s"] = on - off
    if not counts_repeat:
        print("FAILED: exact counts differ between traced passes")
    return failed == 0 and counts_repeat, attempted, failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t0 = time.monotonic()
    deadline = t0 + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join("src", "transferlab", "__init__.py")):
        sys.stderr.write("run.py: no src/transferlab here; run it from the "
                         "root of a transferlab checkout\n")
        return 2
    n_queries = len(generate(args.workload, args.seed).queries)
    work = os.path.join(WORK_ROOT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        worker = Worker(args, work)
        print(f"workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        step = trace if args.trace else measure
        correct, attempted, failed, metrics = step(args, n_queries, worker,
                                                   t0, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        sys.stderr.write("run.py: no pass completed\n")
        return 1
    units = declared_units(args.trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        sys.stderr.write(f"run.py: declared metrics not measured: {missing}\n")
        return 1
    for name, unit in units.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name} = {metrics[name]!r} {unit}{note}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
