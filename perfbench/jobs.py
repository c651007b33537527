"""Job runners: one seeded spec in, calls into quadrantal, a JSON-able result out.

Every call goes through a module attribute (quadring.class_group, not a
name imported from it), so the tracer's wrappers see the calls.  prepare()
builds the program-side inputs during set-up; run() is the timed part.
"""

from __future__ import annotations

import subprocess
import sys

from quadrantal import census, cli, numberfield, polynomial, quadring, units

PELL_KINDS = ("plusOne", "minusOne", "plusFour", "minusFour")


def _triple(ideal) -> list[int]:
    return [ideal.a, ideal.b, ideal.c]


def _coords(x) -> list[int] | None:
    return None if x is None else [x.a, x.b]


# ---------------------------------------------------------------------------
# classgroup
# ---------------------------------------------------------------------------


def prepare_classgroup(spec):
    return quadring.QuadraticField(spec["m"])


def run_classgroup(spec, field):
    report = quadring.class_group(field)
    unit = units.unit_group_report(field)
    out = {
        "h": report.h,
        "structure": list(report.structure),
        "table": [list(row) for row in report.table],
        "reps": [_triple(r) for r in report.representatives],
        "w": unit.torsion_order,
        "unit": _coords(unit.fundamental_unit),
        "regulator": unit.regulator,
    }
    if field.m > 0:
        sols = {kind: units.pell_solve(field.m, kind) for kind in PELL_KINDS}
        out["pell"] = {kind: None if s is None else [s.x, s.y] for kind, s in sols.items()}
    n, x, y = spec["ideal"]
    ideal = quadring.ideal_from_generators(field, [field.integer(n), field.integer(x, y)])
    factors = quadring.factor_ideal(ideal)
    out["ideal"] = _triple(ideal)
    out["factors"] = [[_triple(p), v] for p, v in factors]
    out["generators"] = [_coords(quadring.is_principal(p)) for p, _ in factors]
    return out


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


class SieveCapture:
    """Stands in for census.ideal_count_sieve and keeps the last sieve it
    returned, so spot values can be read without sieving twice."""

    def __init__(self):
        self.inner = census.ideal_count_sieve
        self.last = None

    def __call__(self, field, k):
        self.last = self.inner(field, k)
        return self.last

    def install(self):
        census.ideal_count_sieve = self


def prepare_census(spec):
    return quadring.QuadraticField(spec["m"])


def run_census(spec, field, capture: SieveCapture):
    capture.last = None
    if spec["kind"] == "perclass":
        report = quadring.class_group(field)
        res = census.census_check(field, spec["k"], per_class=True, report=report)
    else:
        report = None
        res = census.census_check(field, spec["k"])
    out = {
        "z_k": res.z_k,
        "h": res.h,
        "sigma_h": res.sigma_h,
        "spots": [[n, capture.last[n]] for n in spec["spots"]],
    }
    capture.last = None
    if report is not None:
        out["per_class"] = list(res.per_class)
        out["table"] = [list(row) for row in report.table]
    return out


# ---------------------------------------------------------------------------
# numberfield
# ---------------------------------------------------------------------------


def prepare_numberfield(spec):
    f, g = polynomial.Poly(spec["f"]), polynomial.Poly(spec["g"])
    return f, g, numberfield.NumberField(f)


def run_numberfield(spec, prepared):
    f, g, field = prepared
    trace_norm = [[str(v) for v in field.element(e).trace_and_norm()] for e in spec["tn"]]
    minpoly = field.element(spec["mp"]).minimal_polynomial()
    theta = field.theta()
    disc = numberfield.tuple_discriminant([theta**i for i in range(field.degree)])
    return {
        "trace_norm": trace_norm,
        "minpoly": minpoly.to_json_array(),
        "discriminant": str(disc),
        "sum": numberfield.composed_min_poly("sum", f, g).to_json_array(),
        "product": numberfield.composed_min_poly("product", f, g).to_json_array(),
        "shift": numberfield.primitive_element_shift(f, g),
    }


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def prepare_cli(spec, tmp: str):
    return [a.replace("{tmp}", tmp) for a in spec["argv"]]


def run_cli_process(argv, env, cwd, cap: float):
    """One request as a fresh `python -m quadrantal.cli` process."""
    proc = subprocess.run(
        [sys.executable, "-m", "quadrantal.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=cap,
    )
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def run_cli_inprocess(argv):
    """One request through quadrantal.cli.main in this process."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
