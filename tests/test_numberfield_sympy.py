"""sympy as an independent oracle for the number-field invariants.

On seeded random irreducible monic polynomials of degree <= 6 (irreducible
by sympy's own test), discriminants, minimal polynomials and composed
polynomials are checked against sympy discriminants and resultants, and
signatures against sympy's real-root count.
"""

import random
from fractions import Fraction

import pytest

from quadrantal.numberfield import NumberField, composed_min_poly, tuple_discriminant
from quadrantal.polynomial import Poly

sp = pytest.importorskip("sympy")

X, Y = sp.symbols("x y")


def to_sympy(p: Poly, var):
    return sum(sp.Rational(c.numerator, c.denominator) * var**i for i, c in enumerate(p.coeffs))


def from_sympy(expr) -> Poly:
    """Monic Poly in x from a sympy expression."""
    coeffs = sp.Poly(expr, X, domain="QQ").monic().all_coeffs()
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)])


def random_irreducible(rng, degree):
    while True:
        p = Poly([rng.randint(-7, 7) for _ in range(degree)] + [1])
        if sp.Poly(to_sympy(p, X), X).is_irreducible:
            return p


def random_fields(seed, count):
    rng = random.Random(seed)
    return rng, [random_irreducible(rng, rng.randint(2, 6)) for _ in range(count)]


def test_power_basis_discriminant():
    _, polys = random_fields(31, 25)
    for f in polys:
        field = NumberField(f)
        basis = [field.theta() ** i for i in range(field.degree)]
        assert tuple_discriminant(basis) == sp.discriminant(to_sympy(f, X), X)


def test_minimal_polynomial_is_squarefree_resultant():
    rng, polys = random_fields(32, 20)
    for f in polys:
        field = NumberField(f)
        for _ in range(2):
            coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(field.degree)]
            a = field.element(coords)
            # Res_y(f(y), x - a(y)) = prod_i (x - a(theta_i)), the field polynomial
            res = sp.resultant(to_sympy(f, Y), X - to_sympy(a.repr, Y), Y)
            assert a.field_polynomial() == from_sympy(res)
            assert a.minimal_polynomial() == from_sympy(sp.sqf_part(sp.Poly(res, X, domain="QQ")).as_expr())


def test_composed_sum_and_product_are_resultants():
    _, polys = random_fields(33, 16)
    for p, q in zip(polys[::2], polys[1::2]):
        m = q.degree
        py, qx = to_sympy(p, Y), to_sympy(q, X)
        # alpha + beta: Res_y(p(y), q(x - y)); alpha * beta: Res_y(p(y), y^m q(x/y))
        res_sum = sp.resultant(py, sp.expand(qx.subs(X, X - Y)), Y)
        res_product = sp.resultant(py, sp.expand(Y**m * qx.subs(X, X / Y)), Y)
        assert composed_min_poly("sum", p, q) == from_sympy(res_sum)
        assert composed_min_poly("product", p, q) == from_sympy(res_product)


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_signature_counts_real_roots(seed):
    _, polys = random_fields(seed, 25)
    for f in polys:
        r1 = sp.Poly(to_sympy(f, X), X).count_roots()
        assert NumberField(f).signature() == (r1, (f.degree - r1) // 2)


def test_signature_of_named_fields():
    assert NumberField(Poly([1, 1, 1, 1, 1])).signature() == (0, 2)  # Phi_5
    assert NumberField(Poly([-2, 0, 0, 1])).signature() == (1, 1)  # x^3 - 2
