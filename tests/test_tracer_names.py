"""Every name the benchmark tracer wraps, lists or probes still exists.

perfbench/tracer.py patches package functions and methods by name,
derives counts for some of them and probes three caches before some
calls; a renamed or deleted target would make its metric read zero
instead of failing.  The exact operator point count it derives from an
operator's ``stencils`` is pinned to the operator's matrix, so a layout
change cannot move it unnoticed.  The tracer is loaded from its file, so
the benchmark directory needs no package of its own.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _layer(layer):
    return importlib.import_module(f"transferlab.{layer}")


def test_hot_methods_resolve(tracer):
    for layer, cls_name, meth, _ in tracer.HOT_METHODS:
        cls = getattr(_layer(layer), cls_name)
        assert inspect.isfunction(cls.__dict__.get(meth)), \
            f"{layer}.{cls_name}.{meth}"


def test_counter_and_post_names_resolve(tracer):
    hot = {name for *_, name in tracer.HOT_METHODS}
    names = set(tracer.COUNTER_FUNCTIONS) | set(tracer._POST)
    for name in sorted(names - hot):
        layer, _, attr = name.partition(".")
        assert layer in tracer.LAYERS, name
        mod = _layer(layer)
        fn = getattr(mod, attr, None)
        # only public functions defined in their layer get wrapped
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
        assert not attr.startswith("_"), name


# the cache probes read these module attributes by name, and test keys
# with ``in``; the entropy probe also reads the default tolerance
PROBED_CACHES = (("thermo", "_system_cache"), ("thermo", "_stencil_cache"),
                 ("orbits", "_entropy_cache"))
# a probe left behind when its function was removed; it never fires
INERT_PRE = {"thermo.make_operator_grid_phase"}


def test_probed_caches_exist(tracer):
    for layer, attr in PROBED_CACHES:
        cache = getattr(_layer(layer), attr, None)
        assert hasattr(cache, "__contains__"), f"{layer}.{attr}"
    assert isinstance(_layer("orbits").ENTROPY_TOL, float)


def test_pre_names_resolve(tracer):
    for name in sorted(set(tracer._PRE) - INERT_PRE):
        layer, _, attr = name.partition(".")
        mod = _layer(layer)
        fn = getattr(mod, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
    for name in INERT_PRE:
        layer, _, attr = name.partition(".")
        assert name in tracer._PRE and not hasattr(_layer(layer), attr), name


@pytest.mark.parametrize("family", ["doubling", "markov3"])
def test_apply_points_count_the_stencil_table(tracer, family):
    """The benchmark's exact count ``thermo.apply.points`` adds, per
    application, one point per (branch, grid node), real or with a phase.
    The operator's matrix stores two slots per point, less one for each
    point on a grid node (or clamped at a right end), whose other
    interpolation weight is exactly 0."""
    from transferlab import thermo
    from transferlab.markov import ModelConfig, build_model

    model = build_model(ModelConfig(family, (2.0, 0.1, 0.2, 0.0),
                                    (0.1, 0.0, 0.2, 0.0), grid_size=64))
    branches = int(np.count_nonzero(~np.isnan(model.branch_slope)))
    u = np.ones((len(model.intervals), model.grid_size + 1))
    for op in (thermo.transfer_real(model, 0.02),
               thermo.transfer_complex(model, 0.02, 40.0)):
        tr = tracer.Tracer()
        tracer._post_apply(tr, (op, u), {}, op(u), None)
        points = tr.counts["thermo.apply.points"]
        (table,) = op.stencils
        hits = np.count_nonzero((table.frac == 0.0) | (table.frac == 1.0))
        assert points == branches * (model.grid_size + 1) == table.y.size
        assert 0 < hits < points and op.matrix.nnz == 2 * points - hits
