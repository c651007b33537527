"""Properties of the package source itself.

The checks call pytest.fail rather than assert, so they still bite when the
suite runs under python -O.
"""

import ast
import importlib.util
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


# decimal and fractions (which imports decimal and numbers) are imported
# only inside these: the adapters that hand the integer fixed-point core's
# values out as Decimals and Fractions, the Minkowski bound's Fraction,
# polynomial's first coefficient off the integers, and annotations
DECIMAL_FUNCTIONS = {
    "reals.py": {"__getattr__", "pi_decimal", "ln_unit", "minkowski_bound"},
    "units.py": {"regulator_decimal"},
    "census.py": {"sigma_decimal"},
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_decimal_and_fractions_only_in_their_adapters(path):
    # the printed reals are integer fixed point: a census, units, pell or
    # class-group request imports neither decimal nor fractions
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = DECIMAL_FUNCTIONS.get(path.name, set())
    bad = [(name, fn) for name, fn in _imports(tree)
           if name.split(".")[0] in ("decimal", "fractions") and fn not in allowed]
    if bad:
        pytest.fail(f"{path.name} imports decimal or fractions outside its adapters: {bad}")


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


# An inverse modulo m has one owner, polynomial's GF(p) kernel: pow(x, -1, m)
# appears only in its Euclid, _gcd_mod, and in the CRT step of poly_gcd
MODULAR_INVERSE_OWNERS = {"polynomial._gcd_mod", "polynomial.poly_gcd"}


def _modular_inverses(package):
    """module.function, the innermost enclosing function, of each
    pow(x, -1, m) in the package."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "pow"
                    and len(child.args) == 3 and ast.unparse(child.args[1]) == "-1"):
                yield function
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield from walk(child, inner)

    return {f"{path.stem}.{function}" for path in sorted(package.glob("*.py"))
            for function in walk(ast.parse(path.read_text(), filename=str(path)), None)}


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


# A moved name resolves through the package's one forwarder: every module
# __getattr__ is `__getattr__ = _forward(...)`, save reals' lazy PI_BOUNDS
# and PI_LO, which are values made on first read, not forwards
OWN_GETATTR = {"reals"}
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


# The names each module held when the form layer moved out of quadring and
# the handlers out of cli, and arith's before its decimal core moved to
# reals (functions, classes, constants and the names they import from other
# quadrantal modules); every one still resolves there.
PINNED = {
    "arith": """FACTOR_BOUND MAX_TABLE MAX_PRECISION PI_DIGITS PI_BOUNDS PI_LO FactorBoundExceeded
        NotSquareFree SquareFreeUnverified PeriodOverflow CertificateNotFound MAX_PERIOD is_prime
        odd_sieve primes_up_to factorize check_square_free xgcd kronecker sqrt_mod power
        floor_of_root_quotient _arctan_inverse pi_decimal ln_unit nstr record""",
    "quadring": """MAX_PERIOD PI_BOUNDS PI_LO PeriodOverflow check_square_free factorize
        floor_of_root_quotient is_prime kronecker nstr pi_decimal power primes_up_to record sqrt_mod
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
    "census": """MAX_TABLE kronecker nstr odd_sieve pi_decimal primes_up_to record
        ClassGroupReport QuadraticField _cycle class_group regulator_decimal torsion_order BLOCK
        BYTE_LANES_BELOW _NEGATE _check_report _check_table_size ideal_count_sieve _chi_tile _tile
        _ideal_total _hyperbola _euler_product _chi_row _multiply _spread _local _LANES _planes
        sigma_decimal sigma_theoretical CensusResult census_check _census per_class_counts
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
