"""One pass of a workload in a fresh process.

Run by ``run.py``; not meant to be started by hand.  The process imports
the package from ``src/`` of the checkout it is started in, generates the
workload from the seed, and reports its set-up time against the spawn time
the parent passes in.  It then runs every query once, in order, as a
closed loop with one outstanding query, checks each result against its
oracle, and writes one JSON result file.  The pass's wall time is the
sum of its query latencies.  A speed probe (see speed.py) runs before
each query and after the last, outside the timed latencies, and gives the
pass's wall time at the reference speed.  With ``--trace 1`` the package's
layers are wrapped first (see tracer.py) and the per-layer numbers are
added to the result.

A fresh process per pass keeps the package's module-level caches
(``thermo._system_cache``, ``thermo._stencil_cache``,
``orbits._entropy_cache``) empty at the start of every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback

import speed
import workloads

QUERY_LIMIT_S = 60.0


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the package
    can swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import transferlab
    from transferlab import (cancellation, cli, gridfun, markov, orbits, rpf,
                             scales, thermo)
    where = os.path.realpath(transferlab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"transferlab imported from {where}, not {src}")
    return {
        "transferlab": transferlab, "markov": markov, "gridfun": gridfun,
        "thermo": thermo, "rpf": rpf, "scales": scales,
        "cancellation": cancellation, "orbits": orbits, "cli": cli}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _cli_argv(query, paths, out_dir):
    argv = list(query.argv)
    i = argv.index("--model") + 1
    argv[i] = paths[argv[i]]
    return argv + ["--out", out_dir]


def _run_query(query, paths, out_dir, mods, models_built, tracer, sampler):
    """Time one query; returns (latency_s, reason or None).  Tracing, when
    on, covers the call into the program and not its oracle.  The time of
    the sampler's probes inside the query is left out of its latency."""
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    sink = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    if tracer is not None:
        tracer.query_id = query.qid
        tracer.active = True
    if sampler is not None:
        sampler.arm()
    try:
        t0 = time.perf_counter()
        if query.call is None:
            argv = _cli_argv(query, paths, out_dir)
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                result = mods["cli"].main(argv)
        else:
            model = models_built[query.model]
            result = getattr(mods["rpf"], query.call)(model, **query.kwargs)
        latency = time.perf_counter() - t0
    except QueryTimeout:
        return QUERY_LIMIT_S, f"exceeded the {QUERY_LIMIT_S:g} s query limit"
    except Exception as exc:                        # the query's failure
        return time.perf_counter() - t0, f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if sampler is not None:
            sampler.disarm()
        if tracer is not None:
            tracer.active = False
    if sampler is not None:
        latency -= sampler.spent_s
    try:
        if query.call is None:
            if result != 0:
                tail = sink.getvalue().strip().splitlines()[-1:]
                return latency, f"exit code {result}: {tail}"
            return latency, workloads.CLI_ORACLES[query.oracle](query, out_dir)
        return latency, workloads.check_rpf(query, result,
                                            models_built[query.model])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return latency, f"unreadable result: {exc!r}"


def _layer_metrics(tracer, mods) -> dict:
    from tracer import LAYERS

    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    hits = counts["thermo.cache.hits"]
    probes = hits + counts["thermo.cache.misses"]
    thermo, orbits = mods["thermo"], mods["orbits"]
    m = {
        "thermo.apply.calls": calls["thermo.apply"],
        "thermo.apply.self_s": s["thermo.apply"],
        "thermo.apply.points": counts["thermo.apply.points"],
        "thermo.gather.self_s": s["thermo.gather"],
        "thermo.make_operator.self_s": s["thermo.make_operator"],
        "thermo.power_iteration.iters": counts["thermo.power_iteration.iters"],
        "thermo.power_iteration.self_s": s["thermo.power_iteration"],
        "thermo.adjoint_weights.self_s": s["thermo.adjoint_weights"],
        "thermo.cache.hit_ratio": hits / probes if probes else 0.0,
        "thermo.cache.probes": probes,
        "thermo.cache.entries": (len(thermo._system_cache)
                                 + len(thermo._stencil_cache)
                                 + len(orbits._entropy_cache)),
        "rpf.smooth_grid.calls": calls["rpf.smooth_grid"],
        "rpf.smooth_grid.self_s": s["rpf.smooth_grid"],
        "rpf.smooth_grid.kernel_ops": counts["rpf.smooth_grid.kernel_ops"],
        "rpf.build_rpf.self_s": s["rpf.build_rpf"],
        "rpf.decay_profile.self_s": s["rpf.decay_profile"],
        "scales.value_at.calls": calls["scales.value_at"],
        "scales.value_at.self_s": s["scales.value_at"],
        "scales.matching_scale.self_s": s["scales.matching_scale"],
        "scales.uni_scan.self_s": s["scales.uni_scan"],
        "cancellation.build_partition.self_s":
            s["cancellation.build_partition"],
        "cancellation.atoms": counts["cancellation.atoms"],
        "cancellation.choose_n1.self_s": s["cancellation.choose_n1"],
        "cancellation.check_refining.self_s":
            s["cancellation.check_refining"],
        "cancellation.build_cancellation.self_s":
            s["cancellation.build_cancellation"],
        "cancellation.build_cancellation.retries":
            counts["cancellation.build_cancellation.retries"],
        "cancellation.dichotomy_test.calls":
            calls["cancellation.dichotomy_test"],
        "cancellation.dichotomy_test.self_s":
            s["cancellation.dichotomy_test"],
        "cancellation.bump_yield": (
            counts["cancellation.bumps"] / counts["cancellation.marked_atoms"]
            if counts["cancellation.marked_atoms"] else 0.0),
        "cancellation.marked_atoms": counts["cancellation.marked_atoms"],
        "cancellation.majorant_step.self_s": s["cancellation.majorant_step"],
        "cancellation.cauchy_schwarz_check.self_s":
            s["cancellation.cauchy_schwarz_check"],
        "markov.forward.calls": calls["markov.forward"],
        "markov.forward.self_s": s["markov.forward"],
        "markov.build_model.self_s": s["markov.build_model"],
        "orbits.enumerate.self_s": s["orbits.enumerate_periodic_orbits"],
        "orbits.cyclic_words": counts["orbits.cyclic_words"],
        "orbits.primitive_yield": (
            counts["orbits.primitives"] / counts["orbits.cyclic_words"]
            if counts["orbits.cyclic_words"] else 0.0),
        "orbits.entropy.self_s": s["orbits.entropy"],
        "orbits.entropy.pressure_evals":
            counts["orbits.entropy.pressure_evals"],
        "orbits.correlation_decay.self_s": s["orbits.correlation_decay"],
        "cli.run.self_s": s["cli.run"],
        "trace.spans": sum(1 for sp in tracer.spans if sp is not None),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in s.items()
                                    if k.split(".", 1)[0] == layer), 0.0)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="wall-clock time the parent started this process")
    p.add_argument("--work", required=True, help="scratch directory")
    p.add_argument("--result", required=True, help="result JSON path")
    p.add_argument("--spans", help="span file (with --trace 1)")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--sample", action="store_true",
                   help="probe inside queries too (see speed.Sampler)")
    args = p.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("TRANSFERLAB_")]:
        del os.environ[key]
    root = os.getcwd()
    mods = _import_package(root)

    os.makedirs(args.work, exist_ok=True)
    wl = workloads.generate(args.workload, args.seed)
    paths = workloads.write_models(wl, args.work)
    setup_s = time.time() - args.spawned
    out = {"setup_s": setup_s}
    if args.setup_only:
        _write_json(args.result, out)
        return 0

    # models for the direct rpf calls are built outside the timed queries,
    # the way a caller holding a model would
    models_built = {
        q.model: mods["markov"].build_model(
            mods["markov"].ModelConfig.from_text(wl.models[q.model]))
        for q in wl.queries if q.call is not None}

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(mods)
    signal.signal(signal.SIGALRM, _on_alarm)

    out_dir = os.path.join(args.work, "out")
    records = []
    bytes_written = 0
    sampler = speed.Sampler(speed.TICK_S) if args.sample else None
    probes, inner = [], []
    for q in wl.queries:
        probes.append(speed.probe())
        latency, reason = _run_query(q, paths, out_dir, mods, models_built,
                                     tracer, sampler)
        inner.append(sampler.samples if sampler is not None else [])
        if q.call is None and os.path.isdir(out_dir):
            bytes_written += _dir_bytes(out_dir)
        records.append({"id": q.qid, "label": q.label, "latency_s": latency,
                        "ok": reason is None, "reason": reason})
    probes.append(speed.probe())
    # the closed loop has no think time: the pass lasts as long as its
    # queries, and the client's own oracle checks and probes are left out
    latencies = [r["latency_s"] for r in records]
    out.update({
        "wall_s": sum(latencies),
        "wall_ref_s": sum(speed.scale(latencies, probes, speed.PROBE_REF_S,
                                      inner)),
        "probes_s": probes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "queries": records,
    })
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = _layer_metrics(tracer, mods)
        out["layers"]["cli.bytes_written"] = bytes_written
        if args.spans:
            tracer.write_spans(args.spans)
    _write_json(args.result, out)
    return 0


def _write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
