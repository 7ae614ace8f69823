"""Print the sha256 of every CLI artifact of benchmark workloads.

    W="--workload spectral certify census --seed 1 3"
    python3 scripts/artifact_digest.py $W > new.txt
    python3 scripts/artifact_digest.py $W --root ../parent > old.txt
    diff old.txt new.txt

Each (seed, workload) pair, seeds in the outer loop, starts with a
``# <workload> seed <n>`` line.

Loads perfbench/workloads.py of the checkout by path, read-only, and
generates the workload's model configs and queries for the seed, as a
benchmark pass does.  It then runs every CLI query in order, in this one
process, through transferlab.cli.main of <root>/src, each into its own
directory under a temporary directory.  For each query it prints the exit
code, the sha256 of the captured stdout and stderr (with the run
directory replaced by a placeholder), and the sha256 of each file the
query wrote.  Queries that call an rpf function instead of a command
(build_rpf, operator_gap) are called on the model the worker would
build, and the sha256 of the bytes of every array and number in the
result is printed.  After the queries, ``model-info`` runs on each model
of the workload, in key order, and is digested like a query, so the
bytes of ``model.csv`` and ``branches.csv`` are checked too.  Two checkouts give identical output exactly when
every artifact and every rpf result is bit-identical.

With ``--keep <dir>`` the runs go under ``<dir>/<workload>/seed<n>``
instead of a temporary directory, and each query also leaves
``q<tag>.stdout`` (the captured text, placeholders in), ``q<tag>.exit``
and, for an rpf call, ``q<tag>.npz`` with every array and number of the
result by field name.  The printed lines do not change.  Two kept trees
are compared field by field with ``scripts/artifact_diff.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads(root: str):
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _result_arrays(value, name: str = "result"):
    """(name, array) of every array and number in an rpf result, in field
    order; the model and the cached operators are left out."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name != "model" and not f.name.startswith("_"):
                yield from _result_arrays(getattr(value, f.name),
                                          f"{name}.{f.name}")
        return
    if isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _result_arrays(item, f"{name}.{i}")
        return
    arr = np.asarray(value)
    if arr.dtype == object:
        raise TypeError(f"cannot digest {type(value).__name__}")
    yield name, arr


@contextlib.contextmanager
def _run_dir(keep, workload: str, seed: int):
    """A temporary directory, or a new ``<keep>/<workload>/seed<n>``."""
    if keep is None:
        with tempfile.TemporaryDirectory() as tmp:
            yield tmp
        return
    path = os.path.join(keep, workload, f"seed{seed}")
    os.makedirs(path)
    yield path


def digest_lines(root: str, workload: str, seed: int, keep=None):
    """Yield one line per query and per artifact."""
    workloads = _load_workloads(root)
    sys.path.insert(0, os.path.join(root, "src"))
    from transferlab import cli, rpf
    from transferlab.markov import ModelConfig, build_model

    wl = workloads.generate(workload, seed)
    with _run_dir(keep, workload, seed) as tmp:
        paths = workloads.write_models(wl, tmp)
        for q in wl.queries:
            if q.call is not None:
                model = build_model(ModelConfig.from_text(wl.models[q.model]))
                result = getattr(rpf, q.call)(model, **q.kwargs)
                arrays = dict(_result_arrays(result))
                if keep is not None:
                    np.savez(os.path.join(tmp, f"q{q.qid:03d}.npz"), **arrays)
                data = b"".join(arr.tobytes() for arr in arrays.values())
                yield f"{q.qid:03d} {q.label}"
                yield f"{q.qid:03d}   result {_sha(data)}"
                continue
            argv = list(q.argv)
            i = argv.index("--model") + 1
            argv[i] = paths[argv[i]]
            yield from _cli_lines(cli, argv, tmp, f"{q.qid:03d}", q.label,
                                  keep is not None)
        for key in sorted(paths):
            argv = ["model-info", "--model", paths[key]]
            yield from _cli_lines(cli, argv, tmp, f"info-{key}",
                                  f"model-info {key}", keep is not None)


def _cli_lines(cli, argv, tmp: str, tag: str, label: str, keep: bool):
    """Run one CLI command into its own directory under tmp; yield its exit
    code and the sha256 of its output and of each file it wrote.  With
    keep, also write the output and the exit code next to the directory."""
    out = os.path.join(tmp, f"q{tag}")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv + ["--out", out])
    text = sink.getvalue().replace(out, "<run>").replace(tmp, "<tmp>")
    if keep:
        with open(f"{out}.stdout", "w") as fh:
            fh.write(text)
        with open(f"{out}.exit", "w") as fh:
            fh.write(f"{code}\n")
    yield f"{tag} {label}: exit {code}"
    yield f"{tag}   output {_sha(text.encode())}"
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            yield f"{tag}   {name} {_sha(fh.read())}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, nargs="+",
                    choices=("spectral", "certify", "census"))
    ap.add_argument("--seed", type=int, required=True, nargs="+")
    ap.add_argument("--root", default=ROOT,
                    help="checkout whose src/ and perfbench/ to use "
                         "(default: this one)")
    ap.add_argument("--keep", metavar="DIR",
                    help="keep each query's directory, output and exit "
                         "code under DIR instead of a temporary directory")
    args = ap.parse_args(argv)
    keep = None if args.keep is None else os.path.abspath(args.keep)
    for seed in args.seed:
        for workload in args.workload:
            print(f"# {workload} seed {seed}", flush=True)
            for line in digest_lines(os.path.abspath(args.root), workload,
                                     seed, keep):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
