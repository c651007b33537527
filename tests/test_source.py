"""Properties of the package source itself.

The checks call pytest.fail rather than assert, so they still bite when the
suite runs under python -O.
"""

import ast
import copy
import importlib.util
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadrantal

PACKAGE = Path(quadrantal.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


def test_modules_found():
    names = {p.name for p in MODULES}
    if not names >= {"arith.py", "numberfield.py", "polynomial.py", "quadring.py"}:
        pytest.fail(f"package modules not found: {sorted(names)}")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no check of the package may be one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    if lines:
        pytest.fail(f"{path.name} has assert statements on lines {lines}")


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_runtime_error(path):
    # the CLI turns ValueError into exit 3; a RuntimeError would escape it
    # as a traceback, so a failed search raises a documented ValueError
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None and _raised_name(node) == "RuntimeError"
    ]
    if lines:
        pytest.fail(f"{path.name} raises RuntimeError on lines {lines}")


# mpmath is imported only inside these functions: number-field embeddings
# and the two adapters that hand the printed reals to mpmath
MPMATH_FUNCTIONS = {
    "census.py": {"sigma_theoretical"},
    "units.py": {"regulator_mp"},
}


# Every real of the package is an int scaled by a power of ten and every
# rational bound an int pair, so decimal is imported nowhere, and fractions
# (which imports decimal and numbers) only inside these: polynomial's first
# coefficient off the integers, and annotations
FRACTIONS_FUNCTIONS = {
    "polynomial.py": {"_fraction"},
    "cli_poly.py": {"TYPE_CHECKING"},
}


def _imports(tree):
    """(imported module, innermost enclosing function or None) for each
    import statement of the tree; an `if TYPE_CHECKING:` block counts as a
    function of that name."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                yield from ((alias.name, function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                yield (child.module or ""), function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.If) and isinstance(child.test, ast.Name) and child.test.id == "TYPE_CHECKING":
                inner = "TYPE_CHECKING"
            else:
                inner = function
            yield from walk(child, inner)

    return walk(tree, None)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_and_mpmath_only_in_its_functions(path):
    # a quadratic-field request starts without mpmath or dataclasses, which
    # cost more start-up than the work of most requests
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [(name.split(".")[0], fn) for name, fn in _imports(tree)]
    if any(name == "dataclasses" for name, _ in found):
        pytest.fail(f"{path.name} imports dataclasses")
    allowed = MPMATH_FUNCTIONS.get(path.name, set())
    bad = [fn for name, fn in found if name == "mpmath"
           and (fn is None or (path.name != "numberfield.py" and fn not in allowed))]
    if bad:
        pytest.fail(f"{path.name} imports mpmath outside its functions: {bad}")


def _number_type_imports(path):
    """(module, enclosing function) of each import of decimal in the file at
    path, and of each import of fractions outside FRACTIONS_FUNCTIONS."""
    allowed = FRACTIONS_FUNCTIONS.get(path.name, set())
    return [(name, fn) for name, fn in _imports(ast.parse(path.read_text(), filename=str(path)))
            if name.split(".")[0] == "decimal" or (name.split(".")[0] == "fractions" and fn not in allowed)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_decimal_and_fractions_only_in_their_adapters(path):
    # the printed reals are integer fixed point: a census, units, pell,
    # class-group or Minkowski request imports neither decimal nor fractions
    bad = _number_type_imports(path)
    if bad:
        pytest.fail(f"{path.name} imports decimal, or fractions outside its adapters: {bad}")


def test_decimal_rule_flags_an_import_in_units(tmp_path):
    # the rule run on a copy of the package whose units imports Decimal
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "units.py", "a") as f:
        f.write("\n\nfrom decimal import Decimal\n")
    flagged = _number_type_imports(package / "units.py")
    if flagged != [("decimal", None)]:
        pytest.fail(f"the rule flags {flagged} on a copy with `from decimal import Decimal` in units")


@pytest.mark.parametrize("name", ["census.py", "forms.py", "quadring.py"])
def test_euler_criterion_only_in_arith(name):
    # chi_d(q) has one owner, arith.kronecker: no pow(d, e, q) elsewhere
    path = Path(quadrantal.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "pow" and len(node.args) == 3]
    if lines:
        pytest.fail(f"{name} calls pow with a modulus on lines {lines}")


def _walk_calls(path):
    """Lines of the calls of _cycle or _reduce, by name or attribute, in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("_cycle", "_reduce")]


def test_units_walks_no_cycle_of_its_own():
    # the principal rho-cycle has one owner, forms._principal_cycle: the
    # fundamental unit and the continued fraction of w read its one walk,
    # and a census reads each class's cycle off the class group report
    for name in ("units.py", "census.py"):
        lines = _walk_calls(PACKAGE / name)
        if lines:
            pytest.fail(f"{name} calls _cycle or _reduce on lines {lines}")


def _walk_calls_with(tmp_path, name, code):
    """(line of the first added line, _walk_calls) on a copy of the package
    with code appended to module `name` after two blank lines."""
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    lines = len((package / name).read_text().splitlines())
    with open(package / name, "a") as f:
        f.write("\n\n" + code)
    return lines + 3, _walk_calls(package / name)


def test_walk_rule_flags_a_walk_in_units(tmp_path):
    # the rule run on a copy of the package whose units walks the cycle itself
    first, flagged = _walk_calls_with(tmp_path, "units.py", "def _period(field):\n"
                                      "    return len(list(forms._cycle(field, *_reduce(field, 1, field.d & 1))))\n")
    if flagged != [first + 1] * 2:
        pytest.fail(f"the rule flags lines {flagged} on a copy with units._period added")


def test_walk_rule_flags_a_walk_in_census(tmp_path):
    # the rule run on a copy of the package whose census walks a class's cycle itself
    first, flagged = _walk_calls_with(tmp_path, "census.py", "def _sectors(field, a, big_b):\n"
                                      "    return list(_cycle(field, a, big_b))\n")
    if flagged != [first + 1]:
        pytest.fail(f"the rule flags lines {flagged} on a copy with census._sectors added")


# An inverse modulo m has one owner, polynomial's GF(p) kernel: pow(x, -1, m)
# appears only in its Euclid, _gcd_mod, and in the CRT step of poly_gcd
MODULAR_INVERSE_OWNERS = {"polynomial._gcd_mod", "polynomial.poly_gcd"}


def _functions_with(package, found):
    """module.function, the innermost enclosing function, of each node of
    the package for which found(node) holds."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if found(child):
                yield function
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield from walk(child, inner)

    return {f"{path.stem}.{function}" for path in sorted(package.glob("*.py"))
            for function in walk(ast.parse(path.read_text(), filename=str(path)), None)}


def _modular_inverses(package):
    """module.function of each pow(x, -1, m) in the package."""
    return _functions_with(package, lambda node: (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow"
        and len(node.args) == 3 and ast.unparse(node.args[1]) == "-1"))


def test_modular_inverses_only_in_the_gcd_kernel():
    outside = _modular_inverses(PACKAGE) - MODULAR_INVERSE_OWNERS
    if outside:
        pytest.fail(f"pow(x, -1, m) outside polynomial's GF(p) kernel: {sorted(outside)}")


def test_inverse_rule_flags_an_inverse_elsewhere(tmp_path):
    # the rule run on a copy of the package with one more inverse mod m
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "numberfield.py", "a") as f:
        f.write('\n\ndef _inverse_mod(a, m):\n    return pow(a, -1, m)\n')
    flagged = _modular_inverses(package) - MODULAR_INVERSE_OWNERS
    if flagged != {"numberfield._inverse_mod"}:
        pytest.fail(f"the rule flags {sorted(flagged)} on a copy with numberfield._inverse_mod added")


# The valuation v_q(n) has one owner, integers._remove: no other while loop
# of the package is `while a % b == 0`.  multiplicative_order's
# `while f % p == 0 and ...` is an order search, not a valuation.
VALUATION_OWNERS = {"integers._remove"}


def _valuation_loops(package):
    """module.function of each `while a % b == 0` loop in the package."""
    def valuation(node):
        test = node.test if isinstance(node, ast.While) else None
        return (isinstance(test, ast.Compare) and isinstance(test.left, ast.BinOp)
                and isinstance(test.left.op, ast.Mod) and [type(op) for op in test.ops] == [ast.Eq]
                and ast.unparse(test.comparators[0]) == "0")

    return _functions_with(package, valuation)


def test_one_valuation_loop():
    outside = _valuation_loops(PACKAGE) - VALUATION_OWNERS
    if outside:
        pytest.fail(f"while a % b == 0 outside integers._remove: {sorted(outside)}")


def test_valuation_rule_flags_a_loop_elsewhere(tmp_path):
    # the rule run on a copy of the package whose cyclotomic finds v_q(m) itself
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "cyclotomic.py", "a") as f:
        f.write("\n\ndef _valuation(m, q):\n    k = 0\n    while m % q == 0:\n        m, k = m // q, k + 1\n"
                "    return k\n")
    flagged = _valuation_loops(package) - VALUATION_OWNERS
    if flagged != {"cyclotomic._valuation"}:
        pytest.fail(f"the rule flags {sorted(flagged)} on a copy with cyclotomic._valuation added")


# Trial division has one owner, integers._trial_divide: no other statement
# of the package steps a divisor by `d += 1 if d == 2 else 2`.
TRIAL_DIVISION_OWNERS = {"integers._trial_divide"}


def _trial_division_loops(package):
    """module.function of each `d += 1 if d == 2 else 2` step in the package."""
    return _functions_with(package, lambda node: (
        isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and isinstance(node.value, ast.IfExp)
        and ast.unparse(node.value) == f"1 if {ast.unparse(node.target)} == 2 else 2"))


def test_one_trial_division_loop():
    outside = _trial_division_loops(PACKAGE) - TRIAL_DIVISION_OWNERS
    if outside:
        pytest.fail(f"a trial-division step outside integers._trial_divide: {sorted(outside)}")


def test_trial_division_rule_flags_a_loop_elsewhere(tmp_path):
    # the rule run on a copy of the package whose cyclotomic finds a least prime factor itself
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "cyclotomic.py", "a") as f:
        f.write("\n\ndef _least_factor(n):\n    d = 2\n    while n % d:\n        d += 1 if d == 2 else 2\n"
                "    return d\n")
    flagged = _trial_division_loops(package) - TRIAL_DIVISION_OWNERS
    if flagged != {"cyclotomic._least_factor"}:
        pytest.fail(f"the rule flags {sorted(flagged)} on a copy with cyclotomic._least_factor added")


# A denominator is cleared in one place, polynomial._cleared: no other
# math.lcm of the package reads a `.denominator`.
DENOMINATOR_OWNERS = {"polynomial._cleared"}


def _denominator_lcms(package):
    """module.function of each math.lcm call whose arguments read .denominator."""
    return _functions_with(package, lambda node: (
        isinstance(node, ast.Call) and ast.unparse(node.func) in ("math.lcm", "lcm")
        and any(isinstance(n, ast.Attribute) and n.attr == "denominator" for a in node.args for n in ast.walk(a))))


def test_one_denominator_clearing():
    outside = _denominator_lcms(PACKAGE) - DENOMINATOR_OWNERS
    if outside:
        pytest.fail(f"an lcm of denominators outside polynomial._cleared: {sorted(outside)}")


def test_denominator_rule_flags_an_lcm_elsewhere(tmp_path):
    # the rule run on a copy of the package whose numberfield clears a denominator itself
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "numberfield.py", "a") as f:
        f.write("\n\ndef _common_denominator(cs):\n    return math.lcm(*(c.denominator for c in cs))\n")
    flagged = _denominator_lcms(package) - DENOMINATOR_OWNERS
    if flagged != {"numberfield._common_denominator"}:
        pytest.fail(f"the rule flags {sorted(flagged)} on a copy with numberfield._common_denominator added")


def test_traced_names_resolve():
    # the benchmark's tracer wraps these names in install(); a name the
    # package no longer has would crash its traced run, not this suite
    path = REPO / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module in MODULES:
        if module.stem != "__init__":
            importlib.import_module(f"{tracer.PACKAGE}.{module.stem}")
    missing = []
    for module, attr in tracer.TIMED + tracer.COUNTED:
        try:
            tracer._resolve(module, attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    missing += [f"cli.{attr}" for attr in ("_HANDLERS", *tracer.CLI_SPANS) if not hasattr(cli, attr)]
    if missing:
        pytest.fail(f"the tracer's targets are missing: {missing}")


# Public API with no caller: the README describes what each does without
# naming it (module.qualname -> the reason it stays)
NO_CALLER_NEEDED = {
    "cyclotomic.descriptor": "the README's module table lists phi(m) of Q(w_m), which it returns",
    "cyclotomic.classify": "the README's module table lists the classification labels it returns",
    "units.unit_membership": "the README lists unit-group membership decomposition",
}


def _definitions(tree):
    """(qualname, name) of each top-level function and class of the tree
    and of each method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub.name) for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _code_names(tree):
    """Every name and attribute the code reads, f-string expressions included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _string_table_words(tree):
    """The words of each string made only of identifiers, such as
    the forwarding tables' name lists; docstrings left out."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            words = node.value.split()
            if words and all(map(str.isidentifier, words)):
                yield from words


def _uncalled(package):
    """module.qualname of each top-level function, class and method of the
    package (dunders aside) that nothing names: not its own code or string
    tables, not perfbench's jobs.py or the tracer's TIMED and COUNTED, and
    not a code span of the README."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    named = {word for tree in trees.values() for word in (*_code_names(tree), *_string_table_words(tree))}
    named.update(_code_names(ast.parse((REPO / "perfbench" / "jobs.py").read_text())))
    for node in ast.parse((REPO / "perfbench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("TIMED", "COUNTED") for t in node.targets):
            named.update(attr.rsplit(".", 1)[-1] for _, attr in ast.literal_eval(node.value))
    spans = re.findall(r"```.*?```|`[^`\n]+`", (REPO / "README.md").read_text(), re.S)
    named.update(word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span))
    return [f"{module}.{qualname}" for module, tree in trees.items() for qualname, name in _definitions(tree)
            if name not in named and not (name.startswith("__") and name.endswith("__"))]


def test_every_function_has_a_caller():
    # the same behaviour from the least code: every request compiles a
    # helper that nothing calls
    uncalled = set(_uncalled(PACKAGE))
    if uncalled != set(NO_CALLER_NEEDED):
        pytest.fail(f"nothing calls {sorted(uncalled - set(NO_CALLER_NEEDED))}; "
                    f"allowed without a caller but called or gone: {sorted(set(NO_CALLER_NEEDED) - uncalled)}")


def test_caller_rule_flags_an_unused_helper(tmp_path):
    # the rule run on a copy of the package with one helper that only its
    # own docstring names
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "arith.py", "a") as f:
        f.write('\n\ndef _unused_helper(n):\n    """_unused_helper"""\n    return n + 1\n')
    flagged = set(_uncalled(package)) - set(NO_CALLER_NEEDED)
    if flagged != {"arith._unused_helper"}:
        pytest.fail(f"the rule flags {sorted(flagged)} on a copy with arith._unused_helper added")


# Parameter defaults that no caller sets: those of the test-only functions
# that perfbench's tracer still wraps
NO_SETTER_NEEDED = {"units.regulator_mp(dps)", "census.sigma_theoretical(precision)"}


def _options(tree):
    """(qualname, callee, parameter, position) of each parameter with a
    default of each function and method of the tree, lambdas aside.  The
    callee is the name a call uses, the class's for __init__; the position
    is the index of the argument that passes it, self not counted, or None
    for a keyword-only parameter."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{cls}.{child.name}" if cls else child.name
                callee = cls if cls and child.name == "__init__" else child.name
                bound = cls is not None and "staticmethod" not in [getattr(d, "id", None) for d in child.decorator_list]
                positional = child.args.posonlyargs + child.args.args
                first = len(positional) - len(child.args.defaults)
                yield from ((qualname, callee, arg.arg, i - bound)
                            for i, arg in enumerate(positional[first:], first))
                yield from ((qualname, callee, arg.arg, None)
                            for arg, default in zip(child.args.kwonlyargs, child.args.kw_defaults) if default)
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else None)

    return walk(tree, None)


def _sets(call, parameter, position):
    """Whether the call passes the parameter: by keyword, by position or
    through a * or ** spread."""
    keywords = {k.arg for k in call.keywords}
    return (parameter in keywords or None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def _unset_options(package):
    """module.qualname(parameter) of each parameter default of the package
    that no call passes: not in the package, not in perfbench's jobs.py and
    not in a Python code block of the README; the tests do not count."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    callers = [*trees.values(), ast.parse((REPO / "perfbench" / "jobs.py").read_text())]
    for block in re.findall(r"```\w*\n(.*?)```", (REPO / "README.md").read_text(), re.S):
        try:
            callers.append(ast.parse(block))
        except SyntaxError:  # a shell session
            pass
    calls = {}
    for node in (node for tree in callers for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        calls.setdefault(name, []).append(node)
    return {f"{module}.{qualname}({parameter})" for module, tree in trees.items()
            for qualname, callee, parameter, position in _options(tree)
            if not any(_sets(call, parameter, position) for call in calls.get(callee, []))}


def test_every_option_is_set_by_a_caller():
    # an option no caller sets is a second configuration that only the
    # tests run: each parameter default must be passed somewhere
    unset = _unset_options(PACKAGE)
    if unset != NO_SETTER_NEEDED:
        pytest.fail(f"no caller sets {sorted(unset - NO_SETTER_NEEDED)}; "
                    f"allowed unset but set or gone: {sorted(NO_SETTER_NEEDED - unset)}")


def test_option_rule_flags_an_unused_default(tmp_path):
    # the rule run on a copy of the package with one keyword default that
    # its one caller leaves alone
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "arith.py", "a") as f:
        f.write('\n\ndef _scaled(n, scale=10):\n    return n * scale\n\n\nTEN = _scaled(1)\n')
    flagged = _unset_options(package) - NO_SETTER_NEEDED
    if flagged != {"arith._scaled(scale)"}:
        pytest.fail(f"the rule flags {sorted(flagged)} on a copy with arith._scaled(n, scale=10) added")


# A moved name resolves through the package's one forwarder: every module
# __getattr__ is `__getattr__ = _forward(...)`
OWN_GETATTR = set()
FORWARDING = ("quadrantal", "quadrantal.arith", "quadrantal.quadring", "quadrantal.cli", "quadrantal.census")


def _hand_written_getattrs(package):
    """The modules of the package with a module-level __getattr__ that is
    not a _forward call."""
    out = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__getattr__":
                out.add(path.stem)
            elif (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__getattr__" for t in node.targets)
                  and getattr(getattr(node.value, "func", None), "id", None) != "_forward"):
                out.add(path.stem)
    return out


def test_module_getattr_only_from_the_forwarder():
    own = _hand_written_getattrs(PACKAGE)
    if own != OWN_GETATTR:
        pytest.fail(f"modules with a hand-written __getattr__: {sorted(own)}, expected {sorted(OWN_GETATTR)}")


def test_getattr_rule_flags_a_hand_written_forward(tmp_path):
    # the rule run on a copy of the package with one more PEP 562 forward
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "units.py", "a") as f:
        f.write('\n\ndef __getattr__(name):\n    from . import forms\n\n    return getattr(forms, name)\n')
    flagged = _hand_written_getattrs(package) - OWN_GETATTR
    if flagged != {"units"}:
        pytest.fail(f"the rule flags {sorted(flagged)} on a copy with units.__getattr__ added")


@pytest.mark.parametrize("module", FORWARDING)
def test_forwarders_refuse_an_unknown_name(module):
    mod = importlib.import_module(module)
    with pytest.raises(AttributeError, match=re.escape(f"module {module!r} has no attribute 'no_such_name'")):
        mod.no_such_name


# Immutability has one owner, the slotted base integers.Frozen (records get
# the same refusal from integers.record): no other class body defines
# __setattr__ or __delattr__
IMMUTABILITY_OWNERS = {"integers.Frozen"}


def _attribute_guards(package):
    """module.Class of each class body of the package that defines
    __setattr__ or __delattr__, as a method or by assignment."""
    def defined(item):
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return {item.name}
        return {getattr(t, "id", None) for t in getattr(item, "targets", [getattr(item, "target", None)])}

    return {f"{path.stem}.{node.name}" for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))) if isinstance(node, ast.ClassDef)
            if any(defined(item) & {"__setattr__", "__delattr__"} for item in node.body)}


def test_attribute_guards_only_in_the_frozen_base():
    guards = _attribute_guards(PACKAGE)
    if guards != IMMUTABILITY_OWNERS:
        pytest.fail(f"classes defining __setattr__ or __delattr__: {sorted(guards)}, "
                    f"expected {sorted(IMMUTABILITY_OWNERS)}")


def test_guard_rule_flags_a_class_of_its_own(tmp_path):
    # the rule run on a copy of the package with one more raising __delattr__
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "polynomial.py", "a") as f:
        f.write('\n\nclass _Pair:\n    __slots__ = ("a", "b")\n\n'
                '    def __delattr__(self, name):\n        raise AttributeError(name)\n')
    flagged = _attribute_guards(package) - IMMUTABILITY_OWNERS
    if flagged != {"polynomial._Pair"}:
        pytest.fail(f"the rule flags {sorted(flagged)} on a copy with polynomial._Pair added")


def _unbounded_caches(package):
    """module:line of each functools cache of the package without an int
    maxsize: a functools.cache, a bare lru_cache, or an lru_cache call whose
    maxsize, by keyword or first argument, is not an int literal."""
    def bounded(call):
        size = next((k.value for k in call.keywords if k.arg == "maxsize"), call.args[0] if call.args else None)
        return isinstance(size, ast.Constant) and type(size.value) is int

    out = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # a name stands for functools' own only where `from functools import` binds it
        imported = {a.asname or a.name: a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "functools" for a in node.names}
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = imported.get(node.id)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                name = node.attr
            else:
                continue
            if name == "cache" or (name == "lru_cache" and not (id(node) in calls and bounded(calls[id(node)]))):
                out.add(f"{path.stem}:{node.lineno}")
    return out


def test_every_cache_is_bounded():
    # a cache keyed by its inputs grows with every request a long-lived
    # caller makes: each one holds at most an int maxsize of entries
    unbounded = _unbounded_caches(PACKAGE)
    if unbounded:
        pytest.fail(f"caches without an int maxsize: {sorted(unbounded)}")


def test_cache_rule_flags_an_unbounded_cache(tmp_path):
    # the rule run on a copy of the package with one cache of each unbounded
    # kind, one bounded cache and a plain variable named cache
    package = tmp_path / "quadrantal"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    lines = len((package / "arith.py").read_text().splitlines())
    with open(package / "arith.py", "a") as f:
        f.write("\n\nfrom functools import cache as memo, lru_cache\n"
                "\n\n@functools.lru_cache(maxsize=None)\ndef _a(n):\n    return n\n"
                "\n\n@lru_cache\ndef _b(n):\n    return n\n"
                "\n\n@memo\ndef _c(n):\n    return n\n"
                "\n\n_d = lru_cache(None)(abs)\n"
                "\n\n@functools.lru_cache(8)\ndef _e(cache):\n    return cache\n"
                "\n\n_f = functools.cache(abs)\n")
    flagged = _unbounded_caches(package)
    if flagged != {f"arith:{lines + k}" for k in (6, 11, 16, 21, 29)}:
        pytest.fail(f"the rule flags {sorted(flagged)} on a copy with five unbounded caches added")


# one value of each class on the Frozen base
VALUES = {
    "QuadraticField": lambda: quadrantal.QuadraticField(-5),
    "QuadInt": lambda: quadrantal.QuadraticField(-5).integer(1, 2),
    "QuadIdeal": lambda: importlib.import_module("quadrantal.quadring").unit_ideal(quadrantal.QuadraticField(-5)),
    "Poly": lambda: quadrantal.Poly([1, 2]),
    "FieldElement": lambda: quadrantal.NumberField(quadrantal.Poly([2, 0, 1])).theta(),
}


@pytest.mark.parametrize("name", VALUES)
def test_values_refuse_setting_and_deleting_a_slot(name):
    # a deleted slot would leave a value that cannot be hashed, such as a
    # spoiled cache key of units.fundamental_unit
    value = VALUES[name]()
    for slot in type(value).__slots__:
        for change in (lambda: setattr(value, slot, 1), lambda: delattr(value, slot)):
            with pytest.raises(AttributeError, match=f"^{name} is frozen: cannot set or delete {slot!r}$"):
                change()
    if hash(value) != hash(VALUES[name]()) or value != VALUES[name]():
        pytest.fail(f"a refused change altered the {name}")


# and one report that holds values
COPIED = {**VALUES, "SplittingReport": lambda: quadrantal.quadring.split_prime(quadrantal.QuadraticField(-5), 3)}


@pytest.mark.parametrize("name", COPIED)
def test_values_copy_and_pickle(name):
    # the copy restores its slots past the refused __setattr__, and stays frozen
    value = COPIED[name]()
    for route in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        twin = route(value)
        if twin != value or hash(twin) != hash(value):
            pytest.fail(f"{route} of the {name} gives {twin!r}, not {value!r}")
        for slot in getattr(type(twin), "__slots__", ()):
            with pytest.raises(AttributeError, match="is frozen"):
                setattr(twin, slot, 1)
            with pytest.raises(AttributeError, match="is frozen"):
                delattr(twin, slot)


# The names each module held when the form layer moved out of quadring and
# the handlers out of cli, and arith's before its decimal core moved to
# reals (functions, classes, constants and the names they import from other
# quadrantal modules); every one still resolves there, save the Decimal and
# Fraction adapters of the printed reals, which are gone.
PINNED = {
    "arith": """FACTOR_BOUND MAX_TABLE MAX_PRECISION PI_DIGITS FactorBoundExceeded
        NotSquareFree SquareFreeUnverified PeriodOverflow CertificateNotFound MAX_PERIOD is_prime
        odd_sieve primes_up_to factorize check_square_free xgcd kronecker sqrt_mod power
        floor_of_root_quotient _arctan_inverse nstr record""",
    "quadring": """MAX_PERIOD PeriodOverflow check_square_free factorize
        floor_of_root_quotient is_prime kronecker nstr power primes_up_to record sqrt_mod
        xgcd QuadraticField ring_of_integers QuadInt unit_inverse QuadIdeal zero_ideal unit_ideal
        ideal_from_generators principal_ideal ideal_product ideal_gcd ideal_divides_and_quotient
        ideal_pow SplittingReport splitting_kind prime_form split_prime factor_ideal _form _form_b
        _normalize _rho _reduce _cycle _generator _class_forms _compose reduced_equivalent
        is_principal _balanced_associates MinkowskiBound minkowski_floor minkowski_bound
        ClassGroupReport _invariant_factors class_group""",
    "cli": """TYPE_CHECKING InputError decimal_precision _PARSE_ERRORS parse_poly
        parse_element_coords _QUADINT_TERM parse_quad_int parse_ideal emit _text_lines cmd_poly
        _field_from_args cmd_field cmd_quad _verify_class_group _is_associative cmd_units cmd_pell
        cmd_cyclo cmd_census _TEXT _INT _FLAG _FORMAT _IDEAL_PAIR COMMANDS build_parser
        _add_actions _add_options _HANDLERS main""",
    "census": """MAX_TABLE kronecker nstr odd_sieve primes_up_to record
        ClassGroupReport QuadraticField _cycle class_group torsion_order BLOCK
        BYTE_LANES_BELOW _NEGATE _check_report _check_table_size ideal_count_sieve _chi_tile _tile
        _ideal_total _hyperbola _euler_product _chi_row _multiply _spread _local _LANES _planes
        sigma_theoretical CensusResult census_check _census per_class_counts
        _class_totals _point_runs _run checkpoint_ratios""",
}


@pytest.mark.parametrize("module", sorted(PINNED))
def test_moved_names_still_resolve(module):
    # a function or class resolves to the object its defining module holds
    mod = importlib.import_module(f"quadrantal.{module}")
    wrong = []
    for name in PINNED[module].split():
        value = getattr(mod, name, wrong)
        home = getattr(value, "__module__", None) if callable(value) else None
        if value is wrong or (home in sys.modules and getattr(sys.modules[home], value.__name__, None) is not value):
            wrong.append(name)
    if wrong:
        pytest.fail(f"quadrantal.{module} no longer resolves {wrong}")


def test_every_command_has_a_handler_and_every_export_resolves():
    from quadrantal import cli

    if set(cli._HANDLERS) != set(cli.COMMANDS) or not all(map(callable, cli._HANDLERS.values())):
        pytest.fail(f"cli._HANDLERS {sorted(cli._HANDLERS)} against COMMANDS {sorted(cli.COMMANDS)}")
    missing = [name for name, module in quadrantal._EXPORTS.items()
               if getattr(quadrantal, name) is not getattr(importlib.import_module(f"quadrantal.{module}"), name)]
    if missing:
        pytest.fail(f"quadrantal exports that do not resolve: {missing}")


# Runs in a fresh interpreter: the imports of perfbench's compute jobs (its
# worker's oracles import fractions), then one entry of each timed layer;
# prints every module the calls load.
COMPUTE_LAYERS = """
import sys
import fractions
import quadrantal.cli
from quadrantal import census, cli, numberfield, polynomial, quadring, units
before = set(sys.modules)
for m in (-23, 10):
    field = quadring.QuadraticField(m)
    report = quadring.class_group(field)
    units.unit_group_report(field)
    ideal = quadring.ideal_from_generators(field, [field.integer(6), field.integer(1, 1)])
    for prime, _ in quadring.factor_ideal(ideal):
        quadring.is_principal(prime)
    census.census_check(field, 1000)
    census.census_check(field, 1000, per_class=True, report=report)
    quadring.minkowski_bound(field)
units.pell_solve(2, "minusOne")
f, g = polynomial.Poly([-2, 0, 1]), polynomial.Poly([-3, 0, 0, 1])
field = numberfield.NumberField(g)
field.element([1, 2, 3]).trace_and_norm()
field.element([0, 1, 1]).minimal_polynomial()
theta = field.theta()
numberfield.tuple_discriminant([theta**i for i in range(field.degree)])
numberfield.composed_min_poly("sum", f, g)
numberfield.primitive_element_shift(f, g)
print(*sorted(set(sys.modules) - before))
"""


def test_timed_layers_import_nothing_while_they_run():
    # a compute job is timed from its first call: a layer that put off
    # importing a module its own functions reach would bill that import to
    # the job (a first class group in 3 ms instead of 0.3)
    proc = subprocess.run([sys.executable, "-c", COMPUTE_LAYERS], capture_output=True, text=True)
    if proc.returncode or proc.stdout.split():
        pytest.fail(f"the timed layers imported {proc.stdout.split()} (exit {proc.returncode}): {proc.stderr}")
