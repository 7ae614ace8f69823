"""Every public function of the package has a caller outside the tests.

Each public function or method defined in ``src/transferlab`` must be
referenced outside its own ``def`` by some file under ``src/``,
``scripts/`` or ``perfbench/``: as a name, as an attribute, or as a
string naming it (the benchmark workloads call functions by name).
Strings in ``perfbench/tracer.py`` do not count: the tracer wraps the
functions it names to time them, and calls none of them itself.  The
match is by name alone, so a reference to an unrelated attribute of the
same name also counts; the guard catches code that nothing reaches, not
every unused method.

The ledger names the functions that stay without such a caller: the
paper-lemma checks, which the tests exercise as statements of the
paper, the minimax tools of ``gridfun``, and one function the tests
state properties of (with its reason below).

Each defaulted parameter of those functions must also be passed, by
keyword or by position, by some call under ``src/``, ``scripts/`` or
``perfbench/``, matched by function name, and those calls must not all
pass one and the same literal or UPPER_CASE constant: a value that
nothing sets, or that production always sets alike, is a constant.
Calls from ``tests/`` count only for the ledger's paper-lemma checks,
whose callers the tests are by design.  A second ledger names the
parameters kept without such calls, each with its reason.

Each field of a package dataclass must be read as an attribute by some
file under those four directories, again matched by name; a third ledger
names the fields kept without such a read.

Each module-level function or class in ``tests/`` must be reached by a
test: named by it, requested by it as a fixture, or reached through
other module-level statements that a test reaches.  Tests, ``Test*``
classes and autouse fixtures are where the search starts.  So a frozen
reference stays tied to a live comparison.
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
    # the fixed point of one cyclic word, with its wrap-transition check
    "orbits.orbit_fixed_point",
})
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


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


def _references(tree, strings):
    """(name, line) of every name and attribute, and with strings, of
    every dotted string tail."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            tail = node.value.rpartition(".")[2]
            if tail.isidentifier():
                yield tail, node.lineno


def test_every_public_function_has_a_caller():
    refs = {}
    for top in CALLER_DIRS:
        for path in _python_files(os.path.join(ROOT, top)):
            real = os.path.realpath(path)
            strings = real != os.path.realpath(TRACER)
            for name, line in _references(_parse(path), strings):
                refs.setdefault(name, []).append((real, line))
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


DEFAULT_LEDGER = {
    "cancellation.build_cancellation.kappa5":
        "tests reach the SHRINK_RETRIES loop only through it",
    "cancellation.cone_image_trials.seed": "criterion 06 states its seed",
    "markov.doubling_model.potential": "mirrors the ModelConfig field",
    "markov.doubling_model.mu": "mirrors the ModelConfig field",
    "markov.doubling_model.theta": "mirrors the ModelConfig field",
    "markov.markov3_model.roof": "mirrors the ModelConfig field",
    "markov.markov3_model.potential": "mirrors the ModelConfig field",
    "markov.markov3_model.mu": "mirrors the ModelConfig field",
    "markov.markov3_model.grid_size": "mirrors the ModelConfig field",
    "markov.markov3_model.theta": "mirrors the ModelConfig field",
    "markov.markov3_model.forbidden": "mirrors the ModelConfig field",
    "orbits.entropy.tol": "the benchmark's cache probe keys on (config, tol)",
}
BENCH_DIR = "perfbench"


def _defaulted(tree):
    """(function name, parameter, call position, first line, last line)
    of every defaulted parameter of a public module function or method.
    A method's call position skips self, as called on an instance; a
    keyword-only parameter has none."""
    for node in tree.body:
        in_class = isinstance(node, ast.ClassDef)
        for fn in node.body if in_class else [node]:
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or fn.name.startswith("_")):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            shift = 1 if in_class and not static else 0
            args = fn.args
            plain = args.posonlyargs + args.args
            first = len(plain) - len(args.defaults)
            for pos in range(first, len(plain)):
                yield (fn.name, plain[pos].arg, pos - shift, fn.lineno,
                       fn.end_lineno)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield fn.name, arg.arg, None, fn.lineno, fn.end_lineno


def _call_name(node):
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _value(node):
    """A literal or an UPPER_CASE constant as a hashable key; None for
    any other expression."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _value(node.operand)
        return None if inner is None else ("-", inner)
    if isinstance(node, (ast.Tuple, ast.List)):
        items = tuple(_value(e) for e in node.elts)
        return None if None in items else items
    if isinstance(node, ast.Constant):
        return repr(node.value)
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else "")
    return name if name.isupper() else None


def _passes(tree, bench):
    """(function name, keyword or position, value, line) of every argument
    that a call passes, the value as _value gives it; positions from a
    starred argument on and ``**`` keywords count as none.  In the
    benchmark, the keys of a query's ``kwargs`` dict are keywords of the
    function its ``call`` names."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name is None:
            continue
        for pos, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            yield name, pos, _value(arg), node.lineno
        kws = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        for kw, value in kws.items():
            yield name, kw, _value(value), node.lineno
        target = kws.get("call")
        if (bench and isinstance(target, ast.Constant)
                and isinstance(kws.get("kwargs"), ast.Dict)):
            for key, value in zip(kws["kwargs"].keys, kws["kwargs"].values):
                if isinstance(key, ast.Constant):
                    yield target.value, key.value, _value(value), node.lineno


def _call_sites(dirs):
    """(function name, keyword or position) -> [(file, line, value)]."""
    sites = {}
    for top in dirs:
        for path in _python_files(os.path.join(ROOT, top)):
            real = os.path.realpath(path)
            for name, what, value, line in _passes(_parse(path),
                                                   top == BENCH_DIR):
                sites.setdefault((name, what), []).append((real, line, value))
    return sites


def test_every_defaulted_parameter_is_passed():
    # an option that only tests set, or that production always sets to
    # one constant, is itself a constant; tests call the paper-lemma
    # checks by design, so their calls count for those functions alone
    production = _call_sites(CALLER_DIRS)
    from_tests = _call_sites(("tests",))
    unset, fixed = [], []
    for path in _python_files(PACKAGE):
        layer = os.path.splitext(os.path.basename(path))[0]
        real = os.path.realpath(path)
        for name, param, pos, first, last in _defaulted(_parse(path)):
            key = f"{layer}.{name}.{param}"
            if key in DEFAULT_LEDGER:
                continue

            def sites(table):
                whats = (param,) if pos is None else (param, pos)
                return [s for what in whats
                        for s in table.get((name, what), ())
                        if not (s[0] == real and first <= s[1] <= last)]

            values = {s[2] for s in sites(production)}
            if f"{layer}.{name}" in LEDGER and sites(from_tests):
                continue
            if not values:
                unset.append(key)
            elif len(values) == 1 and None not in values:
                fixed.append(key)
    assert not unset, f"defaulted parameters that no call passes: {unset}"
    assert not fixed, f"defaulted parameters always passed one value: {fixed}"


def test_default_ledger_names_exist():
    defined = set()
    for path in _python_files(PACKAGE):
        layer = os.path.splitext(os.path.basename(path))[0]
        defined |= {f"{layer}.{n}.{p}"
                    for n, p, *_ in _defaulted(_parse(path))}
    assert set(DEFAULT_LEDGER) <= defined, sorted(set(DEFAULT_LEDGER) - defined)


FIELD_DIRS = CALLER_DIRS + ("tests",)
FIELD_LEDGER = {
    "rpf.ComplexRPF.delta1": "scripts/artifact_digest.py digests every "
                             "field of a build_rpf result",
}


def _dataclass_fields(tree):
    """(class name, field name) of every annotated field of a module-level
    dataclass."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        names = {(d.func if isinstance(d, ast.Call) else d)
                 for d in node.decorator_list}
        if not any(isinstance(d, ast.Name) and d.id == "dataclass"
                   for d in names):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                yield node.name, stmt.target.id


def _package_fields():
    for path in _python_files(PACKAGE):
        layer = os.path.splitext(os.path.basename(path))[0]
        for cls, name in _dataclass_fields(_parse(path)):
            yield f"{layer}.{cls}.{name}", name


def test_every_dataclass_field_is_read():
    reads = set()
    for top in FIELD_DIRS:
        for path in _python_files(os.path.join(ROOT, top)):
            reads |= {node.attr for node in ast.walk(_parse(path))
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)}
    unread = [key for key, name in _package_fields()
              if name not in reads and key not in FIELD_LEDGER]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_field_ledger_names_exist():
    defined = {key for key, _ in _package_fields()}
    assert set(FIELD_LEDGER) <= defined, sorted(set(FIELD_LEDGER) - defined)


TEST_DIR = os.path.join(ROOT, "tests")


def _is_root(node):
    """A test, a Test* class or an autouse fixture: pytest runs these."""
    if isinstance(node, ast.ClassDef):
        return node.name.startswith("Test")
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    autouse = any(isinstance(d, ast.Call) and any(
        kw.arg == "autouse" and getattr(kw.value, "value", False)
        for kw in d.keywords) for d in node.decorator_list)
    return node.name.startswith("test") or autouse


def _unreached_helpers(tree):
    """Module-level functions and classes of a test module that no test
    reaches, through names, fixture parameters or strings, directly or by
    way of other module-level statements."""
    binders, todo = {}, []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [stmt.name]
        else:
            names = [n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store)]
        for name in names:
            binders.setdefault(name, []).append(stmt)
        # a statement that binds nothing runs for its effect at import
        if _is_root(stmt) or not names:
            todo.append(stmt)
    seen = set(map(id, todo))
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.arg):
                name = node.arg
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                name = node.value
            else:
                continue
            for stmt in binders.get(name, ()):
                if id(stmt) not in seen:
                    seen.add(id(stmt))
                    todo.append(stmt)
    return [stmt.name for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not _is_root(stmt) and id(stmt) not in seen]


def test_every_test_helper_is_reached_by_a_test():
    # a frozen reference that no test reaches compares nothing
    orphans = [f"{os.path.basename(path)}::{name}"
               for path in _python_files(TEST_DIR)
               for name in _unreached_helpers(_parse(path))]
    assert not orphans, f"test helpers no test reaches: {orphans}"
