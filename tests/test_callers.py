"""Every public function of the package has a caller outside the tests.

Each public function or method defined in ``src/transferlab`` must be
referenced outside its own ``def`` by some file under ``src/``,
``scripts/`` or ``perfbench/``: as a name, as an attribute, or as a
string naming it (the benchmark calls functions and wraps them by name).
The match is by name alone, so a reference to an unrelated attribute of
the same name also counts; the guard catches code that nothing reaches,
not every unused method.

The ledger names the functions that stay without such a caller: the
paper-lemma checks, which the tests exercise as statements of the
paper, and the minimax tools of ``gridfun``.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "transferlab")
CALLER_DIRS = ("src", "scripts", "perfbench")

LEDGER = frozenset({
    "scales.check_stable", "scales.check_adapted", "scales.check_tame",
    "scales.uniform_set",
    "rpf.lasota_yorke_report", "rpf.smoothing_report",
    "rpf.eigenvalue_trend",
    "thermo.moment_submultiplicativity", "thermo.is_non_expanding",
    "thermo.doubling_constant", "thermo.invariance_defect",
    "cancellation.choose_n4",
    "gridfun.oscillation", "gridfun.poly_distance",
})


def _python_files(top):
    for base, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__")))
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _public_defs(tree):
    """(name, first line, last line) of module functions and methods."""
    for node in tree.body:
        bodies = [node] if not isinstance(node, ast.ClassDef) else node.body
        for fn in bodies:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_")):
                yield fn.name, fn.lineno, fn.end_lineno


def _references(tree):
    """(name, line) of every name, attribute and dotted string tail."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            tail = node.value.rpartition(".")[2]
            if tail.isidentifier():
                yield tail, node.lineno


def test_every_public_function_has_a_caller():
    refs = {}
    for top in CALLER_DIRS:
        for path in _python_files(os.path.join(ROOT, top)):
            for name, line in _references(_parse(path)):
                refs.setdefault(name, []).append((os.path.realpath(path), line))
    orphans = []
    for path in _python_files(PACKAGE):
        layer = os.path.splitext(os.path.basename(path))[0]
        real = os.path.realpath(path)
        for name, first, last in _public_defs(_parse(path)):
            outside = [r for r in refs.get(name, ())
                       if not (r[0] == real and first <= r[1] <= last)]
            if not outside and f"{layer}.{name}" not in LEDGER:
                orphans.append(f"{layer}.{name}")
    assert not orphans, f"public functions with no caller: {orphans}"


def test_ledger_names_exist():
    defined = set()
    for path in _python_files(PACKAGE):
        layer = os.path.splitext(os.path.basename(path))[0]
        defined |= {f"{layer}.{n}" for n, _, _ in _public_defs(_parse(path))}
    assert LEDGER <= defined, sorted(LEDGER - defined)
