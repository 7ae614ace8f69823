"""Layer tracing from outside the package.

The package modules import each other with ``from .x import y``, so a
function patched only in its defining module would still be called
unpatched from every module that imported it.  ``Tracer.install`` therefore
replaces each public function of every layer at every import site: it scans
all ``transferlab`` modules for attributes that are the original function
object and swaps in one shared wrapper.

Each wrapper keeps a frame on a stack so a layer's *self* time is its
duration minus the time covered by nested wrapped calls.  Ordinary
functions also record a span (name, start, end, parent span, query id).
Hot callables -- the three hot methods plus functions called thousands of
times per query -- keep only counters (calls and self time), since a span
per call would dominate what it measures.  Computed counts (operator
points, kernel operations, cylinder atoms, cyclic words) are derived from
arguments and results after the call, with tracing switched off; the
time spent deriving them is excluded from every layer and shows only in
the tracing overhead.

The tracer is single-threaded by design: the benchmark runs every query
with the default ``--threads 1``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("markov", "gridfun", "thermo", "rpf", "scales", "cancellation",
          "orbits", "cli")

# hot methods: (layer, class name, method name, metric name)
HOT_METHODS = (
    ("markov", "MarkovModel", "forward", "markov.forward"),
    ("scales", "ScaleFunction", "value_at", "scales.value_at"),
    ("thermo", "TransferOperator", "__call__", "thermo.apply"),
)

# public functions called too often for one span per call
COUNTER_FUNCTIONS = frozenset({
    "thermo.gather",
    "cancellation.all_words",
    "cancellation.dichotomy_test",
    "cancellation.zeta_bump",
    "cancellation.cone_ratio",
    "orbits.li",
    "orbits.transfer_matrix",
    "orbits.fixed_word_count",
    "orbits.orbit_fixed_point",
    "rpf.slice_table",
    "rpf.default_n_rule",
    "scales.temporal_distance",
    "gridfun.c0_norm",
    "gridfun.holder_seminorm",
})


class Tracer:
    """Counters, self times and spans of the wrapped package functions."""

    def __init__(self):
        self.active = False
        self.query_id = -1
        self.stack = []            # frames: [start, child_s, span_id, name]
        self.spans = []            # (name, start, end, parent, query_id)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)     # computed and derived counts
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self, package_modules):
        """Wrap every layer's public functions at every import site."""
        mods = dict(package_modules)
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(fn, name, name not in COUNTER_FUNCTIONS)
                for site in mods.values():
                    for site_attr, val in list(vars(site).items()):
                        if val is fn:
                            self._swap(site, site_attr, wrapped)
        for layer, cls_name, meth, name in HOT_METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            self._swap(cls, meth, self._wrap(fn, name, False))

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def _swap(self, obj, attr, new):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _wrap(self, fn, name, record_span):
        tracer = self
        clock = time.perf_counter
        pre = _PRE.get(name)
        post = _POST.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_enter = clock()
            if pre is not None:
                _quiet(tracer, pre, args, kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if record_span:
                span_id = len(tracer.spans)
                tracer.spans.append(None)      # reserve the id
            else:
                span_id = parent[2] if parent else -1
            t0 = clock()
            frame = [t0, 0.0, span_id, name]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[1]
                if record_span:
                    tracer.spans[span_id] = (
                        name, t0, t1, parent[2] if parent else -1,
                        tracer.query_id)
                if post is not None:
                    _quiet(tracer, post, args, kwargs, result, parent)
                if parent is not None:
                    # hook time is tracing overhead, charged to no layer
                    parent[1] += clock() - t_enter

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, t0, t1, parent, qid = span
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "query": qid}) + "\n")


def _quiet(tracer, hook, *args):
    """Run a hook with tracing off, so the package calls it makes count in
    no layer."""
    tracer.active = False
    try:
        hook(tracer, *args)
    finally:
        tracer.active = True


# ---------------------------------------------------------------------------
# computed counts, derived from arguments and results after each call
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _post_apply(tr, args, kwargs, result, parent):
    op = args[0]
    tr.counts["thermo.apply.points"] += sum(st.y.size for st in op.stencils)


def _post_power_iteration(tr, args, kwargs, result, parent):
    if result is not None:
        tr.counts["thermo.power_iteration.iters"] += int(result[2])


def _post_smooth_grid(tr, args, kwargs, result, parent):
    model = _arg(args, kwargs, 0, "model")
    width = _arg(args, kwargs, 2, "width")
    radius = max(1, round(width * model.grid_size))
    table = sys.modules["transferlab.rpf"].slice_table.__wrapped__(model)
    ops = 0
    for ranges in table:
        for lo, hi in ranges:
            if hi - lo + 1 >= 2:
                ops += (hi - lo + 1) * (2 * radius + 1)
    tr.counts["rpf.smooth_grid.kernel_ops"] += ops


def _post_build_partition(tr, args, kwargs, result, parent):
    if result is not None:
        tr.counts["cancellation.atoms"] += len(result.atoms)


def _post_build_cancellation(tr, args, kwargs, result, parent):
    if parent is not None and parent[3] == "cancellation.build_cancellation":
        tr.counts["cancellation.build_cancellation.retries"] += 1
        return
    if result is not None:
        tr.counts["cancellation.bumps"] += len(result.records)
        tr.counts["cancellation.marked_atoms"] += len(
            _arg(args, kwargs, 5, "omega_atoms"))


def _post_enumerate(tr, args, kwargs, result, parent):
    model = _arg(args, kwargs, 0, "model")
    n_max = _arg(args, kwargs, 1, "n_max")
    count = sys.modules["transferlab.orbits"].fixed_word_count.__wrapped__
    tr.counts["orbits.cyclic_words"] += sum(count(model, n)
                                            for n in range(1, n_max + 1))
    if result is not None:
        tr.counts["orbits.primitives"] += len(result)


def _post_pressure(tr, args, kwargs, result, parent):
    if parent is not None and parent[3] == "orbits.entropy":
        tr.counts["orbits.entropy.pressure_evals"] += 1


def _cache_probe(key_fn):
    def pre(tr, args, kwargs):
        thermo = sys.modules["transferlab.thermo"]
        orbits = sys.modules["transferlab.orbits"]
        cache, key = key_fn(thermo, orbits, args, kwargs)
        tr.counts["thermo.cache.hits" if key in cache
                  else "thermo.cache.misses"] += 1
    return pre


# cache probes run before the call (the call fills the cache)
_PRE = {
    "thermo.base_system": _cache_probe(
        lambda th, orb, a, k: (th._system_cache, _arg(a, k, 0, "model").config)),
    "thermo.normalize_potential": _cache_probe(
        lambda th, orb, a, k: (th._system_cache,
                               (_arg(a, k, 0, "model").config, "norm",
                                _arg(a, k, 1, "a")))),
    "thermo.make_operator": _cache_probe(
        lambda th, orb, a, k: (th._stencil_cache,
                               _arg(a, k, 0, "model").config)),
    "thermo.make_operator_grid_phase": _cache_probe(
        lambda th, orb, a, k: (th._stencil_cache,
                               _arg(a, k, 0, "model").config)),
    "orbits.entropy": _cache_probe(
        lambda th, orb, a, k: (orb._entropy_cache,
                               (_arg(a, k, 0, "model").config,
                                a[1] if len(a) > 1
                                else k.get("tol", orb.ENTROPY_TOL)))),
}

_POST = {
    "thermo.apply": _post_apply,
    "thermo.power_iteration": _post_power_iteration,
    "rpf.smooth_grid": _post_smooth_grid,
    "cancellation.build_partition": _post_build_partition,
    "cancellation.build_cancellation": _post_build_cancellation,
    "orbits.enumerate_periodic_orbits": _post_enumerate,
    "thermo.pressure": _post_pressure,
}
