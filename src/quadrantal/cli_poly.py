"""The poly, field and cyclo commands: polynomials over Q, number fields and
cyclotomic splitting.  Each handler imports the layer it uses when it runs,
so a cyclo request loads neither polynomials nor number fields, and numbers
are read by `polynomial.coefficient`, so a request whose values are all
integers loads no `fractions`.
"""

from __future__ import annotations

from .cli import _PARSE_ERRORS, InputError

# names for annotations only; mypy takes this constant TYPE_CHECKING as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .numberfield import FieldElement, NumberField
    from .polynomial import Poly


def parse_poly(text: str) -> Poly:
    """Polynomial text, a JSON coefficient array, or {'minpoly': [...]}."""
    from .polynomial import Poly

    text = text.strip()
    try:
        if text.startswith(("{", "[")):
            import json

            return Poly.from_json_array(json.loads(text)["minpoly"] if text[0] == "{" else json.loads(text))
        return Poly.from_text(text)
    except _PARSE_ERRORS as e:
        raise InputError(f"cannot parse polynomial {text!r}: {e}")


def parse_element_coords(text: str) -> list[int | Fraction]:
    """Element coordinates: 'a,b,...' or {'coords': [...]} JSON."""
    from .polynomial import coefficient

    text = text.strip()
    try:
        if text.startswith("{"):
            import json

            coords = [str(c) for c in json.loads(text)["coords"]]
        else:
            coords = text.split(",")
        return [coefficient(c.strip()) for c in coords]
    except _PARSE_ERRORS as e:
        raise InputError(f"cannot parse element {text!r}: {e}")


def _element(field: NumberField, text: str) -> FieldElement:
    """The element of the field with the coordinates of text: no more of
    them than the field's degree, and zeros for those left out."""
    coords = parse_element_coords(text)
    if len(coords) > field.degree:
        raise InputError(f"element {text.strip()!r} has {len(coords)} coordinates, "
                         f"more than the field's degree {field.degree}")
    return field.element(coords)


def cmd_poly(args) -> dict:
    from .polynomial import (
        content_and_primitive_part, cyclotomic_poly_prime, eisenstein_witness, poly_divmod, poly_gcd,
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
        composed_min_poly, denominator_clearing, primitive_element_shift, tuple_discriminant,
    )

    if args.action == "trace-norm":
        f = _field_from_args(args)
        el = _element(f, args.element)
        t, n = el.trace_and_norm()
        return {"trace": str(t), "norm": str(n)}
    if args.action == "discriminant":
        f = _field_from_args(args)
        tup = [_element(f, part) for part in args.tuple.split(";")]
        return {"discriminant": str(tuple_discriminant(tup))}
    if args.action == "minpoly-of":
        f = _field_from_args(args)
        el = _element(f, args.element)
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
        el = _element(f, args.element)
        n, b = denominator_clearing(el)
        return {"n": str(n), "cleared_coords": [str(c) for c in (b.repr[i] for i in range(f.degree))]}
    raise InputError(f"unknown field action {args.action!r}")


def cmd_cyclo(args) -> dict:
    from . import cyclotomic as cyclo_mod

    if args.action == "split":
        return cyclo_mod.split_prime_cyclotomic(args.m, args.q).to_json_dict()
    if args.action == "lists":
        c, i = cyclo_mod.class_number_one_lists()
        return {"cyclotomic": list(c), "imaginary_quadratic": list(i)}
    raise InputError(f"unknown cyclo action {args.action!r}")
