import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadrantal import polynomial
from quadrantal.arith import is_prime, primes_up_to
from quadrantal.polynomial import (
    MAX_EXPONENT,
    SQUAREFREE_PRIME,
    Poly,
    _certified_squarefree,
    coefficient,
    content_and_primitive_part,
    cyclotomic_poly_prime,
    eisenstein_witness,
    exact_div,
    is_squarefree,
    poly_divmod,
    poly_gcd,
    poly_xgcd,
    squarefree_part,
)


def P(*coeffs):
    return Poly(coeffs)


class TestDivRem:
    def test_x2_minus_2_by_x_minus_1(self):
        q, r = poly_divmod(P(-2, 0, 1), P(-1, 1))
        assert q == P(1, 1)
        assert r == P(-1)
        # verify by expansion
        assert q * P(-1, 1) + r == P(-2, 0, 1)

    def test_self_division(self):
        p = P(3, -1, 2)
        q, r = poly_divmod(p, p)
        assert q == P(1) and r.is_zero()

    def test_cyclotomic_factorization(self):
        # x^p - 1 = (x - 1) * sum x^i at p = 3
        q, r = poly_divmod(P(-1, 0, 0, 1), P(-1, 1))
        assert q == P(1, 1, 1) and r.is_zero()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(P(1, 1), Poly())


class TestGcd:
    def test_shared_root(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_coprime_irreducibles(self):
        assert poly_gcd(P(-2, 0, 1), P(-3, 0, 1)) == P(1)

    def test_gcd_with_zero(self):
        assert poly_gcd(P(4, 2), Poly()) == P(2, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Poly(), Poly())

    def test_xgcd_identity(self):
        a, b = P(-2, 0, 1), P(1, 1, 1)
        g, s, t = poly_xgcd(a, b)
        assert s * a + t * b == g


class TestContent:
    def test_simple(self):
        assert content_and_primitive_part(P(2, 4, 6)) == (2, P(1, 2, 3))

    def test_already_primitive(self):
        assert content_and_primitive_part(P(1, 0, 1)) == (1, P(1, 0, 1))

    def test_sign_stays_on_primitive_part(self):
        c, pp = content_and_primitive_part(P(0, -4))
        assert c == 4 and pp == P(0, -1)
        assert pp.scale(c) == P(0, -4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            content_and_primitive_part(Poly())


class TestEisenstein:
    def test_x3_minus_2(self):
        assert eisenstein_witness(P(-2, 0, 0, 1)) == 2

    def test_square_constant_blocks(self):
        assert eisenstein_witness(P(4, 0, 1)) is None

    def test_shifted_cyclotomic(self):
        # ((x+1)^5 - 1)/x has all middle coefficients divisible by 5
        shifted = P(-1, 0, 0, 0, 0, 1).shift_compose(1)
        q, r = poly_divmod(shifted, P(0, 1))
        assert r.is_zero()
        assert eisenstein_witness(q) == 5

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            eisenstein_witness(P(7))

    def test_witness_soundness_random(self):
        rng = random.Random(11)
        for _ in range(300):
            coeffs = [rng.randint(-40, 40) for _ in range(rng.randint(2, 7))] + [
                rng.randint(1, 20)
            ]
            p = Poly(coeffs)
            if p.degree < 1:
                continue
            w = eisenstein_witness(p)
            if w is None:
                continue
            a = [int(c) for c in p.coeffs]
            assert a[-1] % w != 0
            assert all(c % w == 0 for c in a[:-1])
            assert a[0] % (w * w) != 0


class TestCyclotomic:
    def test_p3(self):
        assert cyclotomic_poly_prime(3) == P(1, 1, 1)

    def test_p2(self):
        assert cyclotomic_poly_prime(2) == P(1, 1)

    def test_p7_degree(self):
        phi = cyclotomic_poly_prime(7)
        assert phi.degree == 6 and phi.is_monic()

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_poly_prime(6)

    def test_value_at_one_is_p(self):
        for p in primes_up_to(100):
            assert cyclotomic_poly_prime(p)(Fraction(1)) == p


small_rational = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@given(
    st.lists(small_rational, min_size=0, max_size=9),
    st.lists(small_rational, min_size=1, max_size=9),
)
@settings(max_examples=150, deadline=None)
def test_division_identity(acoeffs, bcoeffs):
    a, b = Poly(acoeffs), Poly(bcoeffs)
    if b.is_zero():
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


def test_gauss_closure_products_of_primitives():
    rng = random.Random(5)
    for _ in range(200):
        u = Poly([rng.randint(-50, 50) for _ in range(rng.randint(1, 8))] + [rng.randint(1, 50)])
        v = Poly([rng.randint(-50, 50) for _ in range(rng.randint(1, 8))] + [rng.randint(1, 50)])
        _, up = content_and_primitive_part(u)
        _, vp = content_and_primitive_part(v)
        c, _ = content_and_primitive_part(up * vp)
        assert c == 1


def test_text_and_json_round_trips():
    rng = random.Random(7)
    for _ in range(50):
        p = Poly(
            [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(rng.randint(0, 6))]
        )
        assert Poly.from_text(p.to_text()) == p
        assert Poly.from_json_array(p.to_json_array()) == p
    assert Poly.from_text("x^2 - 2") == P(-2, 0, 1)
    assert Poly.from_text("1 + x") == P(1, 1)


def test_bare_minus_x_terms():
    assert Poly.from_text("-x") == P(0, -1)
    assert Poly.from_text("-x^3 + x") == P(0, 1, 0, -1)
    assert Poly.from_text("x^5 - x - 1") == P(-1, -1, 0, 0, 0, 1)
    assert Poly.from_text("2 - x^2") == P(2, 0, -1)
    for bad in ("-", "x -", "--x", "-^2"):
        with pytest.raises(ValueError):
            Poly.from_text(bad)


# -- coefficient types and the modular squarefree certificate ---------------

small_int = st.integers(min_value=-50, max_value=50)
int_poly = st.lists(small_int, min_size=1, max_size=8).map(Poly)
rational_poly = st.lists(small_rational, min_size=1, max_size=8).map(Poly)
any_poly = st.one_of(int_poly, rational_poly)


def gcd_says_squarefree(f):
    return poly_gcd(f, f.derivative()).degree == 0


def assert_canonical(p):
    """int when integral, else a Fraction with a denominator above 1."""
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


@given(any_poly)
@settings(max_examples=200, deadline=None)
def test_is_squarefree_matches_gcd(f):
    if f.is_zero():
        return
    assert is_squarefree(f) == gcd_says_squarefree(f)


@given(any_poly, st.one_of(int_poly, rational_poly))
@settings(max_examples=150, deadline=None)
def test_square_factor_is_never_squarefree(f, g):
    if f.is_zero() or g.degree < 1:
        return
    h = f * g * g
    assert not _certified_squarefree(h)
    assert not is_squarefree(h)
    assert squarefree_part(h) == squarefree_part(f * g)


@given(st.lists(small_int, min_size=1, max_size=6), st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def test_leading_coefficient_divisible_by_the_prime_skips_the_certificate(low, k):
    # the certificate needs deg f mod P = deg f; the answer falls back to Q
    f = Poly(low + [k * SQUAREFREE_PRIME])
    assert not _certified_squarefree(f)
    assert is_squarefree(f) == gcd_says_squarefree(f)
    assert not is_squarefree(f * Poly([1, 1]) ** 2)


def test_squarefree_constants_and_zero():
    assert is_squarefree(P(7)) and is_squarefree(P(Fraction(1, 3)))
    with pytest.raises(ValueError):
        is_squarefree(Poly())


def test_squarefree_part_of_certified_input_is_monic_self():
    f = P(Fraction(-3, 2), 0, 3)  # 3x^2 - 3/2
    assert _certified_squarefree(f)
    assert squarefree_part(f) == P(Fraction(-1, 2), 0, 1)


def test_squarefree_prime_is_one_digit_prime():
    assert is_prime(SQUAREFREE_PRIME) and SQUAREFREE_PRIME < 2**30


def test_discriminant_divisible_by_the_prime_falls_back_to_the_gcd():
    # disc(x^2 - P) = 4P = 0 mod P: x^2 and 2x share the root 0 mod P
    f = P(-SQUAREFREE_PRIME, 0, 1)
    assert not _certified_squarefree(f)
    assert is_squarefree(f)
    assert squarefree_part(f) == f


@given(any_poly, any_poly)
@settings(max_examples=150, deadline=None)
def test_results_keep_canonical_coefficients(a, b):
    for p in (a + b, a - b, a * b, -a, a.derivative()):
        assert_canonical(p)
    if not b.is_zero():
        for p in poly_divmod(a, b):
            assert_canonical(p)
        assert_canonical(b.monic())
    if not (a.is_zero() and b.is_zero()):
        assert_canonical(poly_gcd(a, b))
        for p in poly_xgcd(a, b):
            assert_canonical(p)
    assert_canonical(Poly.from_text(a.to_text()))


def euclid_gcd(a, b):
    """The reference: Euclid's algorithm over Q, each remainder made monic."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
        if not b.is_zero():
            b = b.monic()
    return a.monic()


@given(any_poly, any_poly, any_poly)
@settings(max_examples=200, deadline=None)
def test_gcd_matches_euclid_over_q(a, b, c):
    a, b = a * c, b * c
    if not (a.is_zero() and b.is_zero()):
        assert poly_gcd(a, b) == euclid_gcd(a, b)


@pytest.mark.parametrize("a, b, gcd", [
    ("x^3 - 2*x^2 - 2*x + 1", "3*x^2 - x - 4", "x + 1"),
    ("2*x^3 - 5*x^2 + 3*x", "-x^3 - 4*x^2 + x + 4", "x - 1"),
    ("x^2 - 1", "2*x - 1", "1"),
])
def test_integer_gcd_builds_no_fraction(a, b, gcd, monkeypatch):
    # Euclid over Q divides by 3 or 2 on the way to these integral gcds
    monkeypatch.setattr(polynomial, "_Fraction", None)
    monkeypatch.setattr(polynomial, "_fraction", lambda: pytest.fail("a Fraction was built"))
    assert poly_gcd(Poly.from_text(a), Poly.from_text(b)) == Poly.from_text(gcd)


def test_integral_results_are_ints():
    q, r = poly_divmod(P(-2, 0, 1), P(-1, 1))
    assert all(type(c) is int for c in q.coeffs + r.coeffs)
    assert all(type(c) is int for c in Poly.from_text("3/3 + 4/2*x").coeffs)
    assert Poly.from_text("1/2*x").coeffs == (0, Fraction(1, 2))


def test_equal_values_equal_polys():
    assert Poly([Fraction(6, 2)]) == Poly([3])
    assert hash(Poly([Fraction(6, 2)])) == hash(Poly([3]))
    assert type(Poly([Fraction(6, 2)])[0]) is int
    assert Poly(["4/2", "1/2"]).coeffs == (2, Fraction(1, 2))


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Poly([1.5])
    with pytest.raises(TypeError):
        P(1).scale(0.5)


def test_exact_div():
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(-7, 2) == Fraction(-7, 2)
    assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    assert exact_div(1, Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


# a decimal exponent at the end of a literal, as Fraction reads it
EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def outcome(read, s):
    """(value, type) of read(s), or (exception type, message)."""
    try:
        value = read(s)
    except Exception as e:  # noqa: BLE001 -- the exception is the outcome
        return type(e), str(e)
    return value, type(value)


@given(st.text(alphabet="0123456789+-/.e_ ٣٠５", max_size=10))
@example("--1")
@example("-")
@example("+7")
@example("007")
@example("-0")
@example("٣")
@example("1_000")
@example(" 12 ")
@example("1.5e3")
@example("-3/6")
@example("")
@example("1e-1001")
@example("1e1000")
@settings(max_examples=1000, deadline=None)
def test_coefficient_reads_strings_as_fraction_does(s):
    # an ASCII integer literal is read by int, every other string by
    # Fraction: the value, its type and any error are Fraction's, except
    # that an exponent beyond the cap is refused before anything is built
    exponent = EXPONENT.search(s)
    if exponent and int(exponent[1]) > MAX_EXPONENT:
        with pytest.raises(ValueError, match=f"has an exponent beyond the cap of {MAX_EXPONENT}$"):
            coefficient(s)
    else:
        assert outcome(coefficient, s) == outcome(lambda t: coefficient(Fraction(t)), s)
