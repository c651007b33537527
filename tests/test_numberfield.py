import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest

from quadrantal import numberfield, polynomial
from quadrantal.arith import CertificateNotFound, FactorBoundExceeded
from quadrantal.numberfield import (
    MAX_DEGREE,
    NumberField,
    char_poly,
    composed_min_poly,
    denominator_clearing,
    mat_det,
    primitive_element_shift,
    tuple_discriminant,
)
from quadrantal.polynomial import Poly, exact_div, is_squarefree, poly_divmod


def P(*coeffs):
    return Poly(coeffs)


def euclid_inverse(a, f):
    """The s of degree < deg f with s*a = 1 mod f, by the extended Euclid
    over Q."""
    r0, r1, s0, s1 = f, a, Poly(), P(1)
    while r1.degree > 0:
        q, r = poly_divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    return s1.scale(exact_div(1, r1[0]))


SQRT2 = NumberField(P(-2, 0, 1))
SQRTM5 = NumberField(P(5, 0, 1))
OMEGA3 = NumberField(P(1, 1, 1))
CBRT3 = NumberField(P(-3, 0, 0, 1))
OMEGA5 = NumberField(P(1, 1, 1, 1, 1))


class TestElementArithmetic:
    def test_product_of_conjugate_pair(self):
        th = SQRT2.theta()
        one = SQRT2.one()
        assert (one + th) * (one - th) == SQRT2.rational(-1)

    def test_additive_identity(self):
        a = SQRT2.element([3, Fraction(1, 2)])
        assert a + SQRT2.zero() == a

    def test_omega3_square(self):
        th = OMEGA3.theta()
        assert th * th == OMEGA3.element([-1, -1])

    def test_mismatched_fields_rejected(self):
        with pytest.raises(ValueError):
            SQRT2.theta() + OMEGA3.theta()

    def test_inverse_of_theta(self):
        th = SQRT2.theta()
        assert th.inverse() == SQRT2.element([0, Fraction(1, 2)])
        assert th * th.inverse() == SQRT2.one()

    def test_inverse_of_one(self):
        assert SQRT2.one().inverse() == SQRT2.one()

    def test_inverse_of_unit(self):
        # (1 + sqrt2)(sqrt2 - 1) = 1
        a = SQRT2.element([1, 1])
        assert a.inverse() == SQRT2.element([-1, 1])

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            SQRT2.zero().inverse()


class TestMonicReduction:
    """poly_divmod by a monic minimal polynomial takes each quotient
    coefficient as it stands, with no exact_div.  Elements, products and
    inverses keep the remainders of the division by 2f, which still runs
    through exact_div and leaves the same remainder: the same values and the
    same int or Fraction coefficients."""

    FIELDS = (P(-3, 1), SQRTM5.minpoly, P(2, 0, 0, 0, 0, 1), P(*[1] * 11))  # degrees 1, 2, 5 and Phi_11

    @staticmethod
    def poly(rng, degree, rational):
        def coeff():
            c = rng.randint(-30, 30)
            return Fraction(c, rng.randint(1, 12)) if rational else c

        return Poly([coeff() for _ in range(degree + 1)])

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"degree{f.degree}")
    def test_remainders_by_2f(self, f, rational):
        field, twice = NumberField(f), f.scale(2)

        def same(got, p):
            r = poly_divmod(p, twice)[1]
            assert got == r and list(map(type, got.coeffs)) == list(map(type, r.coeffs)), p

        rng = random.Random(f.degree * 2 + rational)
        for _ in range(40):
            p = self.poly(rng, rng.randint(0, 2 * f.degree + 3), rational)
            q, r = poly_divmod(p, f)
            assert q * f + r == p and r.degree < f.degree
            same(field.element(p).repr, p)
            a = field.element(self.poly(rng, f.degree - 1, rational))
            b = field.element(self.poly(rng, f.degree - 1, rational))
            same((a * b).repr, a.repr * b.repr)
            if not a.is_zero():
                same(a.inverse().repr, euclid_inverse(a.repr, f))
                assert a * a.inverse() == field.one()


class TestTraceNorm:
    def test_rational_element(self):
        c = Fraction(7, 3)
        for field in (SQRT2, CBRT3):
            t, n = field.rational(c).trace_and_norm()
            assert t == field.degree * c
            assert n == c**field.degree

    def test_theta_sqrt2(self):
        assert SQRT2.theta().trace_and_norm() == (0, -2)

    def test_norm_21(self):
        assert SQRTM5.element([1, 2]).trace_and_norm() == (2, 21)

    def test_multiplicative_and_additive(self):
        rng = random.Random(3)
        for field in (SQRT2, SQRTM5, OMEGA5):
            for _ in range(30):
                a = field.element([rng.randint(-9, 9) for _ in range(field.degree)])
                b = field.element([rng.randint(-9, 9) for _ in range(field.degree)])
                assert (a * b).norm() == a.norm() * b.norm()
                assert (a + b).trace() == a.trace() + b.trace()

    def test_against_embeddings(self):
        # exact values match numeric conjugates at 60 digits
        rng = random.Random(4)
        for field in (SQRT2, SQRTM5, OMEGA5):
            for _ in range(34):
                a = field.element(
                    [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(field.degree)]
                )
                t, n = a.trace_and_norm()
                with mpmath.workdps(70):  # a(theta_i) at each conjugate, with guard digits
                    coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(a.repr.coeffs)]
                    vals = [mpmath.polyval(coeffs, th) for th in field.embeddings()]
                with mpmath.workdps(60):
                    ts = sum(vals)
                    ns = mpmath.mpf(1)
                    for v in vals:
                        ns *= v
                    for exact, approx in ((t, ts), (n, ns)):
                        target = mpmath.mpf(exact.numerator) / exact.denominator
                        scale = max(1, abs(target))
                        assert abs(approx - target) / scale < mpmath.mpf(10) ** -30


class TestDiscriminant:
    def test_quadratic_power_basis(self):
        for field, m in ((SQRT2, 2), (SQRTM5, -5)):
            assert tuple_discriminant([field.one(), field.theta()]) == 4 * m

    def test_repeated_entry_vanishes(self):
        th = SQRT2.theta()
        assert tuple_discriminant([th, th]) == 0

    def test_cyclotomic_p5(self):
        basis = [OMEGA5.element([0] * i + [1]) for i in range(4)]
        assert tuple_discriminant(basis) == 125

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tuple_discriminant([SQRT2.one()])

    def test_nonzero_iff_basis(self):
        rng = random.Random(9)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            tup = [SQRT2.element(row) for row in rows]
            disc = tuple_discriminant(tup)
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            assert (disc != 0) == (det != 0)

    def test_change_of_basis_law(self):
        rng = random.Random(10)
        base = [OMEGA5.element([0] * i + [1]) for i in range(4)]
        d0 = tuple_discriminant(base)
        for _ in range(10):
            c = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            # alpha_j = sum_i c_ij beta_i with beta the power basis
            tup = [OMEGA5.element([c[i][j] for i in range(4)]) for j in range(4)]
            assert tuple_discriminant(tup) == Fraction(mat_det(c)) ** 2 * d0


class TestFieldAndMinimalPolynomials:
    def test_rational_in_quadratic(self):
        c = Fraction(5, 2)
        fp = SQRT2.rational(c).field_polynomial()
        assert fp == P(c, -1).scale(-1) * P(c, -1).scale(-1) or fp == P(c * c, -2 * c, 1)

    def test_theta_gives_minpoly(self):
        assert SQRT2.theta().field_polynomial() == P(-2, 0, 1)
        assert CBRT3.theta().minimal_polynomial() == P(-3, 0, 0, 1)

    def test_one_plus_theta(self):
        assert (SQRT2.one() + SQRT2.theta()).field_polynomial() == P(-1, -2, 1)

    def test_theta_squared_in_cbrt3(self):
        el = CBRT3.element([0, 0, 1])
        assert el.minimal_polynomial() == P(-9, 0, 0, 1)

    def test_power_law(self):
        rng = random.Random(6)
        for field in (SQRT2, CBRT3, OMEGA5):
            for _ in range(17):
                a = field.element([rng.randint(-5, 5) for _ in range(field.degree)])
                f = a.field_polynomial()
                p = a.minimal_polynomial()
                s = field.degree // p.degree
                assert p**s == f


class TestAlgebraicIntegers:
    def test_golden_ratio_is_integral(self):
        f = NumberField(P(-5, 0, 1))
        assert f.element([Fraction(1, 2), Fraction(1, 2)]).is_algebraic_integer()

    def test_half_sqrt3_is_not(self):
        f = NumberField(P(-3, 0, 1))
        assert not f.element([Fraction(1, 2), Fraction(1, 2)]).is_algebraic_integer()

    def test_rational_non_integer(self):
        assert not SQRT2.rational(Fraction(3, 2)).is_algebraic_integer()
        assert SQRT2.rational(-4).is_algebraic_integer()

    def test_denominator_clearing_examples(self):
        n, b = denominator_clearing(SQRT2.rational(Fraction(1, 2)))
        assert n == 2 and b == SQRT2.one()
        n, b = denominator_clearing(SQRT2.element([0, Fraction(1, 3)]))
        assert n == 3 and b == SQRT2.theta()
        n, b = denominator_clearing(SQRT2.element([4, 7]))
        assert n == 1

    def test_denominator_clearing_prime_powers(self):
        # theta/12 has minimal polynomial x^2 - 1/72: 72 = 2^3 3^2 needs 2^2 3
        n, b = denominator_clearing(SQRT2.element([0, Fraction(1, 12)]))
        assert n == 12 and b == SQRT2.theta()
        # theta/1000 in Q(2^(1/4)): the denominators' lcm is 2^11 5^12
        field = NumberField(P(2, 0, 0, 0, 1))
        n, b = denominator_clearing(field.element([0, Fraction(1, 1000)]))
        assert n == 1000 and b == field.theta()

    def test_denominator_clearing_zero_rejected(self):
        with pytest.raises(ValueError):
            denominator_clearing(SQRT2.zero())


class TestComposedMinPoly:
    def test_sum_sqrt2_sqrt3(self):
        out = composed_min_poly("sum", P(-2, 0, 1), P(-3, 0, 1))
        assert out == P(1, 0, -10, 0, 1)

    def test_product_with_linear_one(self):
        p = P(-7, 2, 0, 1)
        assert composed_min_poly("product", p, P(-1, 1)) == p

    def test_sum_with_x(self):
        p = P(-7, 2, 0, 1)
        assert composed_min_poly("sum", p, P(0, 1)) == p

    def test_nonmonic_rejected(self):
        with pytest.raises(ValueError):
            composed_min_poly("sum", P(-2, 0, 2), P(-3, 0, 1))

    def test_roots_vanish_numerically(self):
        cases = [(P(-2, 0, 1), P(-3, 0, 1)), (P(1, 1, 1), P(-2, 0, 0, 1)), (P(5, 0, 1), P(-1, 1, 1))]
        for p, q in cases:
            s = composed_min_poly("sum", p, q)
            fp, fq = NumberField(p), NumberField(q)
            with mpmath.workdps(60):
                scoeffs = [mpmath.mpf(int(c)) for c in s.coeffs]
                for a in fp.embeddings():
                    for b in fq.embeddings():
                        x = a + b
                        val = mpmath.mpf(0)
                        for c in reversed(scoeffs):
                            val = val * x + c
                        assert abs(val) < mpmath.mpf(10) ** -20

    @pytest.mark.parametrize("dp, dq", [(4, 5), (2, 10), (20, 20)])
    def test_sum_matches_the_binomial_formula(self, dp, dq):
        # running binomials give the power sums math.comb gives, at composed degree 20 and 400
        rng = random.Random(dp * dq)
        p, q = (Poly([rng.randint(-9, 9) for _ in range(d)] + [1]) for d in (dp, dq))
        n = dp * dq
        sp, sq = numberfield.power_sums(p, n + 1), numberfield.power_sums(q, n + 1)
        s = [sum(math.comb(k, i) * sp[i] * sq[k - i] for i in range(k + 1)) for k in range(n + 1)]
        assert composed_min_poly("sum", p, q) == Poly(numberfield.from_power_sums(s))


class TestPrimitiveElement:
    def test_sqrt2_cbrt3(self):
        assert primitive_element_shift(P(-2, 0, 1), P(-3, 0, 0, 1)) == 1

    def test_linear_second_field(self):
        assert primitive_element_shift(P(-2, 0, 1), P(-4, 1)) == 0

    def test_same_polynomial(self):
        assert primitive_element_shift(P(-2, 0, 1), P(-2, 0, 1)) == 1

    def test_composed_degree_certificate(self):
        # for the certified shift, theta = alpha + c*beta has degree m*n here
        c = primitive_element_shift(P(-2, 0, 1), P(-3, 0, 0, 1))
        qq = Poly([co * Fraction(c) ** (3 - i) for i, co in enumerate(P(-3, 0, 0, 1).coeffs)])
        s = composed_min_poly("sum", P(-2, 0, 1), qq)
        from quadrantal.polynomial import poly_gcd

        assert poly_gcd(s, s.derivative()).degree == 0


class TestShiftCertificates:
    """primitive_element_shift builds R_c from the power sums and tests it
    with `is_squarefree`, which one prime of the modular gcd usually proves;
    only when R_c is not squarefree does it build the fields for the numeric
    separation."""

    def test_rational_root_still_rejected_when_r1_is_certified(self):
        p, q = P(-1, 0, 1), P(-2, 0, 1)  # x^2 - 1 = (x - 1)(x + 1)
        r1 = composed_min_poly("sum", p, q)
        assert is_squarefree(r1)
        with pytest.raises(ValueError, match="rational root"):
            primitive_element_shift(p, q)

    @pytest.mark.parametrize("which", ["p", "q"])
    @pytest.mark.parametrize("repeated, other", [
        (P(2, 0, 1) ** 11, Poly([2] + [0] * 19 + [1])),  # degrees 22 and 20: over the cap
        (P(2, 0, 1) ** 2, P(-3, 0, 1)),
    ], ids=["over_cap", "under_cap"])
    def test_repeated_root_before_the_degree_cap(self, which, repeated, other):
        args = (repeated, other) if which == "p" else (other, repeated)
        with pytest.raises(ValueError, match=f"{which} has a repeated root"):
            primitive_element_shift(*args)

    def test_repeated_p_before_nonmonic_q(self):
        with pytest.raises(ValueError, match="p has a repeated root"):
            primitive_element_shift(P(2, 0, 1) ** 2, P(-3, 0, 2))

    def test_linear_q_before_the_rational_roots(self):
        assert primitive_element_shift(P(-1, 0, 1), P(-4, 1)) == 0

    def spy(self, monkeypatch):
        built, separations = [], []

        class Spy(NumberField):
            def __init__(self, minpoly):
                built.append(minpoly)
                super().__init__(minpoly)

        separate = numberfield._separation_certified

        def spied(fp, fq, c):
            separations.append((len(built), c))
            return separate(fp, fq, c)

        monkeypatch.setattr(numberfield, "NumberField", Spy)
        monkeypatch.setattr(numberfield, "_separation_certified", spied)
        return built, separations

    @pytest.mark.parametrize("q, fields, separated", [(P(2, 2, 1), 0, []), (P(2, -2, 1), 2, [(2, 1)])],
                             ids=["q=p", "q=p(-x)"])
    def test_fields_built_only_for_the_numeric_separation(self, monkeypatch, q, fields, separated):
        built, separations = self.spy(monkeypatch)
        p = P(2, 2, 1)  # R_1 has a double root: alpha_1 + alpha_2 for q = p, 0 for q = p(-x)
        assert primitive_element_shift(p, q) == 1
        # p == q is certified exactly, as F_2 = x^2 + 4x + 8 is prime to Q = x + 2
        assert built == [p, q][:fields] and separations == separated

    def test_p_equal_q_falls_through_when_f2_and_q_share_a_root(self, monkeypatch):
        # the roots k sqrt(2), k = +-1, +-2, +-3, hold 2 alpha_i = alpha_j + alpha_k
        # for every i, so Q and F_2 share a root and one field is built for both
        built, separations = self.spy(monkeypatch)
        p = P(-2, 0, 1) * P(-8, 0, 1) * P(-18, 0, 1)
        assert primitive_element_shift(p, p) == 1
        assert built == [p] and separations == [(1, 1)]

    def test_next_shift_certified_from_the_power_sums(self, monkeypatch):
        # with the separation refusing c = 1, R_2 comes from s_k(2 beta) =
        # 2^k s_k(beta) and is proved squarefree by one prime: only R_1's
        # gcd ends above degree 0 modulo a prime
        above, gcd_mod = [], polynomial._gcd_mod

        def spied(a, b, p):
            g = gcd_mod(a, b, p)
            if len(g) > 1:
                above.append(a)
            return g

        monkeypatch.setattr(polynomial, "_gcd_mod", spied)
        monkeypatch.setattr(numberfield, "_separation_certified", lambda fp, fq, c: False)
        f, g = P(2, 2, 1), P(2, -2, 1)  # not p == q, whose c = 1 is certified exactly
        assert primitive_element_shift(f, g) == 2
        assert above == [list(composed_min_poly("sum", f, g).coeffs)] * 2  # R_1, at two primes

    def test_no_field_built_when_the_certificate_holds(self, monkeypatch):
        built, separations = self.spy(monkeypatch)
        assert primitive_element_shift(P(2, 2, 1), P(-2, 2, 1)) == 1
        assert built == [] and separations == []

    # each pair below is used by one test only, so that no earlier test has
    # left its compositions kept

    def calls_of(self, monkeypatch, module, name):
        calls, original = [], getattr(module, name)

        def spied(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, spied)
        return calls

    def test_shift_after_the_sum_builds_no_r1(self, monkeypatch):
        f, g = P(3, 3, 0, 1), P(5, 5, 1)
        assert is_squarefree(composed_min_poly("sum", f, g))
        built = self.calls_of(monkeypatch, numberfield, "from_power_sums")
        assert primitive_element_shift(f, g) == 1
        assert built == []

    def test_shift_after_the_sum_runs_only_the_gcd_of_r1(self, monkeypatch):
        # R_1's certificate covers p and q: no gcd of p or of q with its derivative
        f, g = P(7, 0, 7, 1), P(3, 6, 1)
        r1 = composed_min_poly("sum", f, g)
        gcds = self.calls_of(monkeypatch, polynomial, "_gcd_mod")
        assert primitive_element_shift(f, g) == 1
        assert [a for a, _, _ in gcds] == [list(r1.coeffs)]

    def test_power_sums_once_across_sum_product_and_shift(self, monkeypatch):
        f, g = P(2, 4, 2, 0, 1), P(7, 7, 1)
        sums = self.calls_of(monkeypatch, numberfield, "power_sums")
        composed_min_poly("sum", f, g)
        composed_min_poly("product", f, g)
        assert primitive_element_shift(f, g) == 1
        assert sums == [(f, 9), (g, 9)]


class TestFieldConstruction:
    def test_rational_root_rejected(self):
        with pytest.raises(ValueError):
            NumberField(P(-4, 0, 1))  # x^2 - 4 = (x-2)(x+2)

    def test_roots_tried_in_ascending_divisor_order(self):
        # candidates d, -d for the divisors d = 1, 2, ... of a0: the least
        # root wins, also over a larger root that is a0/3 (-60 = -3 * 20)
        for p, root in ((P(-2, -1, 1), -1), (P(-6, 1, 1), 2), (P(6, -5, 1), 2), (P(-12, -1, 1), -3),
                        (P(-60, -17, 1), -3)):
            with pytest.raises(ValueError, match=f"rational root {root}$"):
                NumberField(p)

    def test_large_rational_root_rejected(self):
        with pytest.raises(ValueError, match="rational root"):
            NumberField(P(-(10**20), 0, 1))

    def test_unfactorable_constant_term_rejected(self):
        # two primes above the trial-division bound: a cubic's rational roots
        # are the divisors of a0, which factorize cannot find
        with pytest.raises(FactorBoundExceeded):
            NumberField(P(1000003 * 1000033, 0, 0, 1))

    def test_unfactorable_constant_term_of_a_quadratic_accepted(self):
        # a quadratic's rational roots come from its discriminant, not from a0
        field = NumberField(P(1000003 * 1000033, 0, 1))
        assert field.theta().trace_and_norm() == (0, 1000003 * 1000033)
        with pytest.raises(ValueError, match="rational root 1000003$"):
            NumberField(P(1000003 * 1000033, -(1000003 + 1000033), 1))

    def test_quadratic_names_its_least_root(self):
        # the root the divisor search named: the least |r|, positive first
        rng = random.Random(1)
        for _ in range(1000):
            r, s = rng.randint(-999, 999) or 1, rng.randint(-999, 999) or 1
            least = min((r, s), key=lambda t: (abs(t), t < 0))
            with pytest.raises(ValueError, match=f"rational root {least}$"):
                NumberField(P(r * s, -(r + s), 1))

    def test_nonmonic_rejected(self):
        with pytest.raises(ValueError):
            NumberField(P(1, 0, 2))

    def test_divisor_cap(self):
        # x^3 + the product of the first 19 primes: 2^19 divisors of a0 to try, over the cap
        with pytest.raises(CertificateNotFound, match=f"has {2**19} divisors to try as roots, over the cap {2**18}$"):
            NumberField(P(117288381359406970983270 * 67, 0, 0, 1))

    def test_degree_cap(self):
        cap = Poly([2] + [0] * (MAX_DEGREE - 1) + [1])  # x^400 + 2
        assert NumberField(cap).degree == MAX_DEGREE
        with pytest.raises(ValueError, match=f"degree {MAX_DEGREE + 1} is over the cap"):
            NumberField(Poly([2] + [0] * MAX_DEGREE + [1]))

    def test_integral_invariants_are_ints(self):
        el = OMEGA5.element([1, 2, 0, -1])
        for v in (*el.trace_and_norm(), *el.minimal_polynomial().coeffs, *(el * el).repr.coeffs):
            assert type(v) is int
        half = OMEGA5.element([Fraction(1, 2), 1])
        t, n = half.trace_and_norm()
        assert type(t) is int and t == 1  # 4 * 1/2 - 1, a Fraction sum that is integral
        assert n == Fraction(11, 16)

    def test_conjugate_ordering(self):
        emb = CBRT3.embeddings()
        assert abs(emb[0].imag) < mpmath.mpf(10) ** -30  # the real root first
        assert emb[1].imag > 0  # then +Im before -Im
        assert emb[2].imag < 0
        assert SQRT2.signature() == (2, 0)
        assert SQRTM5.signature() == (0, 1)
        assert CBRT3.signature() == (1, 1)


def test_char_poly_matches_determinant_definition():
    rng = random.Random(12)
    for n in (2, 3, 4):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        cp = char_poly(m)
        # det(xI - M) evaluated at a few rational points
        for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            xb = [[x * (1 if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
            assert cp(x) == mat_det(xb)


def _sweep_value(v):
    """repr of an invariant, so an int and an integral Fraction differ."""
    return repr(v.coeffs) if isinstance(v, Poly) else repr(v)


def _sweep_call(f, *args):
    try:
        return _sweep_value(f(*args))
    except (ValueError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"


def _sweep_eisenstein(rng, n):
    return Poly([2 * rng.choice((1, -1)) for _ in range(n)] + [1])


def _sweep_random_monic(rng, n):
    return Poly([rng.choice((-1, 1)) * rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(n - 1)] + [1])


def _sweep_element(rng, field, rational):
    if rational:
        return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(field.degree)])
    return field.element([rng.randint(-3, 3) for _ in range(field.degree)])


def sweep_field_lines(seed):
    """One line per invariant of seeded monic fields of degree 2-12:
    Eisenstein at 2, prime cyclotomic and random, each with an int and a
    Fraction element, a random tuple and composed polynomials."""
    rng = random.Random(seed)
    polys = [_sweep_eisenstein(rng, n) for n in range(2, 13)]
    polys += [Poly([1] * p) for p in (3, 5, 7, 11, 13)]
    polys += [_sweep_random_monic(rng, n) for n in range(2, 13)]
    lines = []
    for f in polys:
        try:
            field = NumberField(f)
        except ValueError as e:
            lines.append(f"{f.coeffs} ValueError: {e}")
            continue
        n = field.degree
        for rational in (False, True):
            a, b = _sweep_element(rng, field, rational), _sweep_element(rng, field, not rational)
            lines += [_sweep_call(g) for g in (a.trace, a.norm, a.field_polynomial, a.minimal_polynomial)]
            lines += [_sweep_value((a * b).repr), _sweep_value((a**3).repr)]
        theta = field.theta()
        lines.append(_sweep_call(tuple_discriminant, [theta**i for i in range(n)]))
        lines.append(_sweep_call(tuple_discriminant, [_sweep_element(rng, field, rng.random() < 0.5) for _ in range(n)]))
        g = _sweep_eisenstein(rng, rng.randint(1, 3)) if rng.random() < 0.5 else _sweep_random_monic(rng, rng.randint(1, 3))
        lines += [_sweep_call(composed_min_poly, op, f, g) for op in ("sum", "product")]
    return lines


def sweep_shift_lines(seed):
    """primitive_element_shift of every pair of degree-2 Eisenstein
    polynomials x^2 +- 2x +- 2, then of seeded pairs of composed degree up
    to 60, then of seeded polynomials with themselves and with f(-x),
    whose composed sums have repeated roots."""
    quadratics = [P(b, a, 1) for a in (2, -2) for b in (2, -2)]
    lines = [_sweep_call(primitive_element_shift, p, q) for p in quadratics for q in quadratics]
    rng = random.Random(seed)
    for m, n in ((2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (4, 4), (5, 3), (6, 4), (5, 6), (6, 10), (12, 5)):
        for make in (_sweep_eisenstein, _sweep_random_monic):
            lines.append(_sweep_call(primitive_element_shift, make(rng, m), make(rng, n)))
    for n in (3, 4, 5, 6):
        for f in (_sweep_eisenstein(rng, n), _sweep_random_monic(rng, n)):
            reflected = Poly([c if (n - k) % 2 == 0 else -c for k, c in enumerate(f.coeffs)])
            lines += [_sweep_call(primitive_element_shift, f, g) for g in (f, reflected)]
    return lines


class TestInvariantSweep:
    """sha256 prefixes of the invariants of seeded fields and of shifts, as
    written when every invariant came from Poly and FieldElement objects and
    the squarefree certificate worked modulo 2^61 - 1."""

    FIELDS = {1: "a61814645bad4e1b", 2: "64744000f60ed92f"}
    SHIFTS = {1: "55f6dd8edda419a0"}

    @pytest.mark.parametrize("seed", sorted(FIELDS))
    def test_field_invariants_unchanged(self, seed):
        digest = hashlib.sha256("\n".join(sweep_field_lines(seed)).encode()).hexdigest()[:16]
        assert digest == self.FIELDS[seed]

    @pytest.mark.parametrize("seed", sorted(SHIFTS))
    def test_shifts_unchanged(self, seed):
        digest = hashlib.sha256("\n".join(sweep_shift_lines(seed)).encode()).hexdigest()[:16]
        assert digest == self.SHIFTS[seed]
