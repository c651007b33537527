"""Properties of the package source itself.

The checks call pytest.fail rather than assert, so they still bite when the
suite runs under python -O.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import quadrantal

MODULES = sorted(Path(quadrantal.__file__).parent.glob("*.py"))


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
# and the three adapters that hand the decimal core's values to mpmath
MPMATH_FUNCTIONS = {
    "census.py": {"sigma_theoretical"},
    "units.py": {"regulator_mp"},
    "quadring.py": {"mp_value"},
}


def _imports(tree):
    """(imported module, innermost enclosing function or None) for each
    import statement of the tree."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                yield from ((alias.name, function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                yield (child.module or ""), function
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
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


@pytest.mark.parametrize("name", ["census.py", "quadring.py"])
def test_euler_criterion_only_in_arith(name):
    # chi_d(q) has one owner, arith.kronecker: no pow(d, e, q) elsewhere
    path = Path(quadrantal.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "pow" and len(node.args) == 3]
    if lines:
        pytest.fail(f"{name} calls pow with a modulus on lines {lines}")


def test_traced_names_resolve():
    # the benchmark's tracer wraps these names in install(); a name the
    # package no longer has would crash its traced run, not this suite
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
