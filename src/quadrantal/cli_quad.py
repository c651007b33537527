"""The quad command: ring data, prime splitting and the ideal calculus.  Only
principal and classgroup load the form layer (quadrantal.forms), and only
they and minkowski the certified reals (quadrantal.reals)."""

from __future__ import annotations

import re

from .cli import _PARSE_ERRORS, InputError
from .quadring import (
    QuadIdeal, QuadraticField, factor_ideal, ideal_divides_and_quotient, ideal_from_generators,
    ideal_gcd, ideal_pow, ideal_product, split_prime, unit_ideal,
)


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
    text = text.strip()
    if text.startswith("{"):
        import json

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


def cmd_quad(args) -> dict:
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
        from .forms import is_principal

        ideal = parse_ideal(field, args.ideal)
        gen = is_principal(ideal)
        if gen is None:
            return {"principal": False}
        return {"principal": True, "generator": gen.to_json_dict()}
    if args.action == "minkowski":
        from .reals import minkowski_bound

        return {"m": field.m, **minkowski_bound(field).to_json_dict()}
    if args.action == "classgroup":
        from .forms import class_group

        report = class_group(field)
        out = report.to_json_dict()
        if args.verify:
            out["verification"] = _verify_class_group(report)
        return out
    raise InputError(f"unknown quad action {args.action!r}")


def _verify_class_group(report) -> dict:
    from .forms import is_principal

    h = report.h
    t = report.table
    reps = report.representatives
    inverses = [next((j for j, x in enumerate(row) if x == 0), None) for row in t]
    return {
        "identity": all(t[0][j] == j for j in range(h)),
        "commutative": all(t[i][j] == t[j][i] for i in range(h) for j in range(h)),
        "associative": _is_associative(t),
        "inverses": None not in inverses,
        # over the classes that have an inverse in the table
        "inverse_products_principal": all(
            is_principal(ideal_product(reps[i], reps[j])) is not None
            for i, j in enumerate(inverses) if j is not None
        ),
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

