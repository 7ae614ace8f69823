"""Every name the benchmark tracer wraps or lists still exists.

perfbench/tracer.py patches package functions and methods by name and
derives counts for some of them; a renamed or deleted target would make
its metric read zero instead of failing.  The tracer is loaded from its
file, so the benchmark directory needs no package of its own.
"""

import importlib
import importlib.util
import inspect
import os

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
