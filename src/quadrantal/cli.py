"""Command-line interface: every subsystem behind one entry point.

Output is JSON (default) or plain text; identical invocations produce
byte-identical output.  Arbitrary-precision quantities are rendered as
decimal strings.  Exit codes: 0 success, 1 standard output closed before
the result was written (piped into `head`, say), 2 invalid input, 3
computational precondition failure (non-square-free m, unfactorable input,
division by the zero polynomial, an unwritable --csv file, a table, prime
sieve or cyclotomic polynomial over 10^8 entries, a fundamental unit or
rho-cycle of period over 10^5, a number field or composed polynomial of
degree over 400, a QUADRANTAL_PRECISION over 1000 digits, a shift or
precision search that ends uncertified, an arithmetic overflow or a
recursion too deep, ...), 4 a failed certificate (an exact check of a
computed result that does not hold: factors that do not multiply back,
per-class counts that do not sum to Z(k), ...; a bug, not a property of
the input).

Each request builds only its own parser from the COMMANDS table: every
command's name and help, the action names of its command and the options
of its one action.  Each subcommand imports only the layer it uses when it
runs, and a census builds its ideal table only for --csv or where Z(k) is
the table's sum (|d| > k).  The decimals of census, units and quad
minkowski come from the standard decimal module; `mpmath` is loaded only
where a number-field embedding is computed.

QUADRANTAL_PRECISION overrides the default decimal digits (minimum 30,
maximum 1000).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

# Each handler imports the layer it uses when it runs, so a request loads
# only that layer; these names are for annotations.  A constant, not
# typing's: mypy takes any TYPE_CHECKING as true, and a request need not
# import typing.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .numberfield import NumberField
    from .polynomial import Poly
    from .quadring import QuadIdeal, QuadraticField


class InputError(ValueError):
    """Malformed command-line input (exit code 2)."""


def decimal_precision(default: int = 50) -> int:
    from .arith import MAX_PRECISION

    env = os.environ.get("QUADRANTAL_PRECISION")
    if env is None:
        return default
    try:
        digits = max(30, int(env))
    except ValueError:
        raise InputError(f"QUADRANTAL_PRECISION must be an integer, got {env!r}")
    if digits > MAX_PRECISION:
        raise ValueError(f"QUADRANTAL_PRECISION {digits} is over the cap {MAX_PRECISION}")
    return digits


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

# what a malformed literal raises: Fraction("abc"), Fraction("1/0"),
# json.loads, a missing JSON key, or a JSON value of the wrong type
_PARSE_ERRORS = (ValueError, ZeroDivisionError, KeyError, TypeError)


def parse_poly(text: str) -> Poly:
    """Polynomial text, a JSON coefficient array, or {'minpoly': [...]}."""
    from .polynomial import Poly

    text = text.strip()
    try:
        if text.startswith("{"):
            return Poly.from_json_array(json.loads(text)["minpoly"])
        if text.startswith("["):
            return Poly.from_json_array(json.loads(text))
        return Poly.from_text(text)
    except _PARSE_ERRORS as e:
        raise InputError(f"cannot parse polynomial {text!r}: {e}")


def parse_element_coords(text: str) -> list[Fraction]:
    """Element coordinates: 'a,b,...' or {'coords': [...]} JSON."""
    text = text.strip()
    try:
        if text.startswith("{"):
            coords = [str(c) for c in json.loads(text)["coords"]]
        else:
            coords = text.split(",")
        return [Fraction(c.strip()) for c in coords]
    except _PARSE_ERRORS as e:
        raise InputError(f"cannot parse element {text!r}: {e}")


_QUADINT_TERM = re.compile(r"^(-?\d+)$|^(-?\d*)\s*\*?\s*w$")


def parse_quad_int(field: QuadraticField, text: str):
    """a+b*w syntax: integers, w, 3w, 1+2w, 2-w, ..."""
    s = text.replace(" ", "")
    s = re.sub(r"(?<=[0-9w])-", "+-", s)
    a = b = 0
    for term in s.split("+"):
        if not term:
            continue
        m = _QUADINT_TERM.match(term)
        if not m:
            raise InputError(f"cannot parse ring element term {term!r} in {text!r}")
        if m.group(1) is not None:
            a += int(m.group(1))
        else:
            coeff = m.group(2)
            b += int(coeff) if coeff not in ("", "-") else (-1 if coeff == "-" else 1)
    return field.integer(a, b)


def parse_ideal(field: QuadraticField, text: str) -> QuadIdeal:
    """'(g1, g2, ...)' generator syntax or the {'m','a','b','c'} JSON triple."""
    from .quadring import QuadIdeal, ideal_from_generators

    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
            ideal = QuadIdeal.from_json_dict(data)
        except _PARSE_ERRORS as e:
            raise InputError(f"cannot parse ideal JSON {text!r}: {e}")
        if ideal.field != field:
            raise InputError(f"ideal JSON is for m={ideal.field.m}, expected m={field.m}")
        return ideal
    if not (text.startswith("(") and text.endswith(")")):
        raise InputError(f"ideal must be '(gen, gen, ...)' or a JSON triple, got {text!r}")
    gens = [parse_quad_int(field, part) for part in text[1:-1].split(",") if part.strip()]
    if not gens:
        raise InputError("ideal needs at least one generator")
    return ideal_from_generators(field, gens)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in _text_lines(payload, ""):
            print(line)


def _text_lines(value, prefix: str):
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"
    else:
        yield f"{prefix}{value}"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_poly(args) -> dict:
    from .polynomial import (
        content_and_primitive_part,
        cyclotomic_poly_prime,
        eisenstein_witness,
        poly_divmod,
        poly_gcd,
    )

    if args.action == "divrem":
        q, r = poly_divmod(parse_poly(args.dividend), parse_poly(args.divisor))
        return {"quotient": q.to_json_array(), "remainder": r.to_json_array(),
                "quotient_text": q.to_text(), "remainder_text": r.to_text()}
    if args.action == "gcd":
        g = poly_gcd(parse_poly(args.a), parse_poly(args.b))
        return {"gcd": g.to_json_array(), "gcd_text": g.to_text()}
    if args.action == "content":
        c, pp = content_and_primitive_part(parse_poly(args.poly))
        return {"content": str(c), "primitive": pp.to_json_array()}
    if args.action == "eisenstein":
        w = eisenstein_witness(parse_poly(args.poly))
        return {"witness": None if w is None else str(w)}
    if args.action == "cyclotomic":
        p = cyclotomic_poly_prime(args.p)
        return {"p": args.p, "poly": p.to_json_array(), "poly_text": p.to_text()}
    raise InputError(f"unknown poly action {args.action!r}")


def _field_from_args(args) -> NumberField:
    from .numberfield import NumberField

    return NumberField(parse_poly(args.minpoly))


def cmd_field(args) -> dict:
    from .numberfield import (
        composed_min_poly,
        denominator_clearing,
        primitive_element_shift,
        tuple_discriminant,
    )

    if args.action == "trace-norm":
        f = _field_from_args(args)
        el = f.element(parse_element_coords(args.element))
        t, n = el.trace_and_norm()
        return {"trace": str(t), "norm": str(n)}
    if args.action == "discriminant":
        f = _field_from_args(args)
        tup = [f.element(parse_element_coords(part)) for part in args.tuple.split(";")]
        return {"discriminant": str(tuple_discriminant(tup))}
    if args.action == "minpoly-of":
        f = _field_from_args(args)
        el = f.element(parse_element_coords(args.element))
        mp = el.minimal_polynomial()
        return {
            "minpoly": mp.to_json_array(),
            "minpoly_text": mp.to_text(),
            "is_algebraic_integer": mp.is_integral(),
        }
    if args.action == "compose":
        out = composed_min_poly(args.op, parse_poly(args.p), parse_poly(args.q))
        return {"op": args.op, "poly": out.to_json_array(), "poly_text": out.to_text()}
    if args.action == "primitive-element":
        c = primitive_element_shift(parse_poly(args.p), parse_poly(args.q))
        return {"c": str(c)}
    if args.action == "denominator-clearing":
        f = _field_from_args(args)
        el = f.element(parse_element_coords(args.element))
        n, b = denominator_clearing(el)
        return {"n": str(n), "cleared_coords": [str(c) for c in (b.repr[i] for i in range(f.degree))]}
    raise InputError(f"unknown field action {args.action!r}")


def cmd_quad(args) -> dict:
    from .quadring import (
        QuadraticField,
        class_group,
        factor_ideal,
        ideal_divides_and_quotient,
        ideal_gcd,
        ideal_pow,
        ideal_product,
        is_principal,
        minkowski_bound,
        split_prime,
        unit_ideal,
    )

    field = QuadraticField(args.m)
    if args.action == "ring":
        return {
            "m": field.m,
            "d": field.d,
            "omega": "(1+sqrt(m))/2" if field.half else "sqrt(m)",
            "signature": list(field.signature),
        }
    if args.action == "split":
        return split_prime(field, args.q).to_json_dict()
    if args.action == "factor":
        ideal = parse_ideal(field, args.ideal)
        factors = factor_ideal(ideal)
        out = {
            "schema_version": 1,
            "m": field.m,
            "ideal": ideal.to_json_dict(),
            "factors": [
                {"prime": p.to_json_dict(), "norm": str(p.norm()), "multiplicity": v}
                for p, v in factors
            ],
        }
        if args.verify:
            prod = unit_ideal(field)
            for p, v in factors:
                prod = ideal_product(prod, ideal_pow(p, v))
            out["verification"] = {"product_equals_input": prod == ideal}
        return out
    if args.action == "product":
        a = parse_ideal(field, args.ideal_a)
        b = parse_ideal(field, args.ideal_b)
        return {"product": ideal_product(a, b).to_json_dict()}
    if args.action == "gcd":
        a = parse_ideal(field, args.ideal_a)
        b = parse_ideal(field, args.ideal_b)
        return {"gcd": ideal_gcd(a, b).to_json_dict()}
    if args.action == "quotient":
        a = parse_ideal(field, args.ideal_a)
        b = parse_ideal(field, args.ideal_b)
        k = ideal_divides_and_quotient(b, a)
        if k is None:
            return {"divides": False}
        return {"divides": True, "quotient": k.to_json_dict()}
    if args.action == "principal":
        ideal = parse_ideal(field, args.ideal)
        gen = is_principal(ideal)
        if gen is None:
            return {"principal": False}
        return {"principal": True, "generator": gen.to_json_dict()}
    if args.action == "minkowski":
        return {"m": field.m, **minkowski_bound(field).to_json_dict()}
    if args.action == "classgroup":
        report = class_group(field)
        out = report.to_json_dict()
        if args.verify:
            out["verification"] = _verify_class_group(report)
        return out
    raise InputError(f"unknown quad action {args.action!r}")


def _verify_class_group(report) -> dict:
    from .quadring import ideal_product, is_principal

    h = report.h
    t = report.table
    ok_identity = all(t[0][j] == j for j in range(h))
    ok_comm = all(t[i][j] == t[j][i] for i in range(h) for j in range(h))
    ok_assoc = _is_associative(t)
    ok_inverse = all(any(t[i][j] == 0 for j in range(h)) for i in range(h))
    inv_principal = True
    for i in range(h):
        j = list(t[i]).index(0)
        prod = ideal_product(report.representatives[i], report.representatives[j])
        if is_principal(prod) is None:
            inv_principal = False
    return {
        "identity": ok_identity,
        "commutative": ok_comm,
        "associative": ok_assoc,
        "inverses": ok_inverse,
        "inverse_products_principal": inv_principal,
    }


def _is_associative(t) -> bool:
    """Light's associativity test on the table t: (x y) g = x (y g) for all
    x, y and each g of a generating set, taken greedily (an element joins
    when the products of the earlier ones do not reach it).  The z passing
    it are closed under products, so every element passes."""
    gens, reached = [], set()
    for x in range(len(t)):
        if x in reached:
            continue
        gens.append(x)
        reached, todo = set(gens), list(gens)
        while todo:  # close under right multiplication by the generators
            row = t[todo.pop()]
            for g in gens:
                if row[g] not in reached:
                    reached.add(row[g])
                    todo.append(row[g])
    for g in gens:
        right = [row[g] for row in t]  # y -> y g
        if any(right[row[y]] != row[right[y]] for row in t for y in range(len(t))):
            return False
    return True


def cmd_units(args) -> dict:
    from .quadring import QuadraticField
    from .units import continued_fraction_of_omega, unit_group_report

    field = QuadraticField(args.m)
    out = unit_group_report(field, precision=decimal_precision(50)).to_json_dict()
    if field.m > 0:
        quotients, period = continued_fraction_of_omega(field)
        out["continued_fraction"] = {"quotients": quotients, "period": period}
    return out


def cmd_pell(args) -> dict:
    from .units import pell_solve

    sol = pell_solve(args.m, args.kind)
    if sol is None:
        return {"m": args.m, "kind": args.kind, "solvable": False}
    return {"m": args.m, "kind": args.kind, "solvable": True, **sol.to_json_dict()}


def cmd_cyclo(args) -> dict:
    from . import cyclotomic as cyclo_mod

    if args.action == "split":
        return cyclo_mod.split_prime_cyclotomic(args.m, args.q).to_json_dict()
    if args.action == "lists":
        c, i = cyclo_mod.class_number_one_lists()
        return {"cyclotomic": list(c), "imaginary_quadratic": list(i)}
    raise InputError(f"unknown cyclo action {args.action!r}")


def cmd_census(args) -> dict:
    from . import census as census_mod
    from .quadring import QuadraticField

    field = QuadraticField(args.m)
    # the table only for the CSV, or where Z(k) is its sum
    result, counts = census_mod._census_with_counts(
        field, args.k, args.per_class, None, decimal_precision(30), args.csv is not None
    )
    out = result.to_json_dict()
    if args.csv is not None:
        rows = census_mod._checkpoints(counts, args.k)
        try:
            with open(args.csv, "w") as fh:
                fh.write("k,z_over_k\n")
                for kp, ratio in rows:
                    fh.write(f"{kp},{ratio!r}\n")
        except OSError as e:
            raise ValueError(f"cannot write {args.csv}: {e.strerror}") from e
        out["csv"] = args.csv
    return out


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

# command -> (help, {action -> {option -> add_argument keywords}}); a
# command without actions has the one action None.  Every action takes
# --format before its own options.
_TEXT = {"required": True}
_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}
_FORMAT = {"choices": ("json", "text"), "default": "json"}
_IDEAL_PAIR = {"--m": _INT, "--ideal-a": _TEXT, "--ideal-b": _TEXT}
COMMANDS = {
    "poly": ("polynomial utilities", {
        "divrem": {"--dividend": _TEXT, "--divisor": _TEXT},
        "gcd": {"--a": _TEXT, "--b": _TEXT},
        "content": {"--poly": _TEXT},
        "eisenstein": {"--poly": _TEXT},
        "cyclotomic": {"--p": _INT},
    }),
    "field": ("number-field computations", {
        "trace-norm": {"--minpoly": _TEXT, "--element": _TEXT},
        "discriminant": {"--minpoly": _TEXT, "--tuple": {**_TEXT, "help": "elements separated by ';'"}},
        "minpoly-of": {"--minpoly": _TEXT, "--element": _TEXT},
        "compose": {"--op": {**_TEXT, "choices": ("sum", "product")}, "--p": _TEXT, "--q": _TEXT},
        "primitive-element": {"--p": _TEXT, "--q": _TEXT},
        "denominator-clearing": {"--minpoly": _TEXT, "--element": _TEXT},
    }),
    "quad": ("quadratic ring and ideal calculus", {
        "ring": {"--m": _INT},
        "minkowski": {"--m": _INT},
        "split": {"--m": _INT, "--q": _INT},
        "factor": {"--m": _INT, "--ideal": _TEXT, "--verify": _FLAG},
        "product": _IDEAL_PAIR,
        "gcd": _IDEAL_PAIR,
        "quotient": _IDEAL_PAIR,
        "principal": {"--m": _INT, "--ideal": _TEXT},
        "classgroup": {"--m": _INT, "--verify": _FLAG},
    }),
    "units": ("unit group, fundamental unit, regulator", {None: {"--m": _INT}}),
    "pell": ("least solutions of Pell equations", {None: {
        "--m": _INT, "--kind": {**_TEXT, "choices": ("plusOne", "minusOne", "plusFour", "minusFour")},
    }}),
    "cyclo": ("cyclotomic splitting parameters", {"split": {"--m": _INT, "--q": _INT}, "lists": {}}),
    "census": ("ideal counts against the density law", {None: {
        "--m": _INT, "--k": _INT, "--per-class": _FLAG,
        "--csv": {"help": "write (k', Z(k')/k') checkpoints to this file"},
    }}),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of COMMANDS as far as argv needs it: every command's name
    and help, the action names of the command argv names, and the options
    of its one action.  The command is the first word of argv that does not
    start with '-', and the action the next: the top-level and command
    parsers take no option but -h, so argparse reads the same two words.
    The parsers argv does not name are never parsed with, so they go
    without -h."""
    words = (arg for arg in argv if not arg.startswith("-"))
    top = argparse.ArgumentParser(
        prog="quadrantal",
        description="exact computations in quadratic number rings and small number fields",
    )
    sub = top.add_subparsers(dest="command", required=True)
    chosen = next(words, None)
    for command, (help_text, actions) in COMMANDS.items():
        parser = sub.add_parser(command, help=help_text, add_help=command == chosen)
        if command == chosen:
            _add_actions(parser, actions, next(words, None))
    return top


def _add_actions(parser: argparse.ArgumentParser, actions: dict, chosen: str | None) -> None:
    if None in actions:  # a command without actions
        _add_options(parser, actions[None])
        return
    names = parser.add_subparsers(dest="action", required=True)
    for name, options in actions.items():
        leaf = names.add_parser(name, add_help=name == chosen)
        if name == chosen:
            _add_options(leaf, options)


def _add_options(parser: argparse.ArgumentParser, options: dict) -> None:
    parser.add_argument("--format", **_FORMAT)
    for flag, keywords in options.items():
        parser.add_argument(flag, **keywords)


_HANDLERS = {
    "poly": cmd_poly,
    "field": cmd_field,
    "quad": cmd_quad,
    "units": cmd_units,
    "pell": cmd_pell,
    "cyclo": cmd_cyclo,
    "census": cmd_census,
}


def main(argv=None) -> int:
    # fundamental units and generators of large fields run to many thousand
    # digits, beyond CPython's default int->str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        payload = _HANDLERS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OverflowError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ArithmeticError as e:  # every certificate check raises one
        print(f"error: certificate failed: {e}", file=sys.stderr)
        return 4
    try:
        emit(payload, args.format)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader went away (`... | head -1`): send what is left to
        # os.devnull so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
