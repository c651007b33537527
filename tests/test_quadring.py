import math
import random
import subprocess
import sys

import pytest

from quadrantal.arith import NotSquareFree, SquareFreeUnverified, primes_up_to, sqrt_mod
from quadrantal.quadring import (
    QuadIdeal,
    factor_ideal,
    ideal_divides_and_quotient,
    ideal_from_generators,
    ideal_gcd,
    ideal_pow,
    ideal_product,
    is_principal,
    minkowski_bound,
    principal_ideal,
    ring_of_integers,
    split_prime,
    unit_ideal,
    zero_ideal,
)

from oracles import mpmath_minkowski_decimal, squares_mod
from test_classgroup import squarefree_fields

F5 = ring_of_integers(-5)
F23 = ring_of_integers(-23)
F2 = ring_of_integers(2)
FI = ring_of_integers(-1)


def random_nonzero_ideal(field, rng, max_norm):
    while True:
        g1 = field.integer(rng.randint(-30, 30), rng.randint(-30, 30))
        g2 = field.integer(rng.randint(-30, 30), rng.randint(-30, 30))
        ideal = ideal_from_generators(field, [g1, g2])
        if not ideal.is_zero() and not ideal.is_unit_ideal() and ideal.norm() <= max_norm:
            return ideal


# m < 0 and m > 0, m = 1, 2, 3 mod 4
REFERENCE_FIELDS = [ring_of_integers(m) for m in (-23, -5, -3, -1, 2, 3, 5, 10, 13)]


def random_scaled_ideal(field, rng, max_norm):
    """A random ideal, times a rational integer 2..5 (so c > 1) about a third
    of the time."""
    ideal = random_nonzero_ideal(field, rng, max_norm)
    k = rng.choice((1, 1, rng.randint(2, 5)))
    return ideal_from_generators(field, [g * k for g in ideal.basis()])


def generator_product(i, j):
    """I*J as the Hermite form of the four basis products: a reference
    independent of the composition of forms."""
    return ideal_from_generators(i.field, [x * y for x in i.basis() for y in j.basis()])


class TestRingConstruction:
    def test_omega_kinds(self):
        assert F5.d == -20 and not F5.half
        assert F23.d == -23 and F23.half
        assert F2.d == 8 and not F2.half

    def test_rejects_non_square_free(self):
        with pytest.raises(NotSquareFree):
            ring_of_integers(12)
        with pytest.raises(NotSquareFree):
            ring_of_integers(-45)
        for bad in (0, 1):
            with pytest.raises(ValueError):
                ring_of_integers(bad)

    def test_unverifiable_error_is_distinct(self):
        # product of three primes just above the trial-division bound:
        # the residual cofactor exceeds bound**3 and cannot be certified
        with pytest.raises(SquareFreeUnverified):
            ring_of_integers(1000003 * 1000033 * 1000037)

    def test_norm_trace_conj(self):
        x = F5.integer(1, 2)
        assert x.norm() == 21 and x.trace() == 2
        assert x.conj() == F5.integer(1, -2)
        assert x.conj().conj() == x
        w = F23.omega()
        assert w.norm() == 6  # (1 + sqrt(-23))/2 has norm (1 + 23)/4

    def test_units_by_norm(self):
        assert F2.integer(1, 1).is_unit()       # 1 + sqrt(2)
        assert not F2.integer(2, 0).is_unit()
        F3 = ring_of_integers(-3)
        assert F3.integer(0, 1).is_unit()       # (1 + sqrt(-3))/2


class TestSqrtMod:
    def test_smaller_root_of_every_residue(self):
        # every odd prime below 3000 and every nonzero residue, against the
        # least root found by squaring 1..(q-1)/2
        for q in primes_up_to(3000)[1:]:
            least = {}
            for x in range((q - 1) // 2, 0, -1):
                least[x * x % q] = x
            for a in range(1, q):
                if a in least:
                    assert sqrt_mod(a, q) == least[a], (a, q)
            non_residues = [a for a in range(1, q) if a not in least]
            for a in non_residues[:3] + non_residues[-3:]:
                with pytest.raises(ValueError):
                    sqrt_mod(a, q)

    def test_zero_and_large_primes(self):
        assert sqrt_mod(0, 7) == 0 and sqrt_mod(14, 7) == 0
        for q in (10**9 + 7, 10**9 + 9, 998244353):  # q = 3, 1, 1 mod 4
            for a in (2, 3, 5, 10, 12345):
                a2 = a * a % q
                assert sqrt_mod(a2, q) == min(a, q - a)


class TestIdealStandardForm:
    def test_two_in_gaussian_integers(self):
        ideal = principal_ideal(FI, FI.integer(2, 0))
        assert (ideal.a, ideal.b, ideal.c) == (1, 0, 2)  # basis {2, 2i}
        g1, g2 = ideal.basis()
        assert g1 == FI.integer(2, 0) and g2 == FI.integer(0, 2)

    def test_norm_3_standard_form(self):
        ideal = ideal_from_generators(F5, [F5.integer(3, 0), F5.integer(1, 2)])
        assert (ideal.a, ideal.b, ideal.c) == (3, 2, 1)
        assert ideal.norm() == 3

    def test_unit_ideal_canonical(self):
        one = ideal_from_generators(F5, [F5.integer(1, 0)])
        assert (one.a, one.b, one.c) == (1, 0, 1)
        assert one == unit_ideal(F5)

    def test_all_zero_generators_give_zero_ideal(self):
        z = ideal_from_generators(F5, [F5.integer(0, 0)])
        assert z.is_zero()
        with pytest.raises(ValueError):
            z.norm()

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            QuadIdeal(F5, 4, 1, 1)  # 4 does not divide N(1 + sqrt(-5)) = 6
        with pytest.raises(ValueError):
            QuadIdeal(F5, 2, 0, 1)  # 2 does not divide N(0 + sqrt(-5)) = 5
        with pytest.raises(ValueError):
            QuadIdeal(F5, -2, 1, 1)

    def test_membership(self):
        p = ideal_from_generators(F5, [F5.integer(2, 0), F5.integer(1, 1)])
        assert p.contains(F5.integer(1, 1))
        assert p.contains(F5.integer(2, 0))
        assert not p.contains(F5.integer(1, 0))


class TestIdealArithmetic:
    def test_ramified_square(self):
        p = ideal_from_generators(F5, [F5.integer(2, 0), F5.integer(1, 1)])
        assert ideal_product(p, p) == principal_ideal(F5, F5.integer(2, 0))

    def test_unit_ideal_is_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            ideal = random_nonzero_ideal(F5, rng, 10**6)
            assert ideal_product(ideal, unit_ideal(F5)) == ideal

    def test_split_pair_multiplies_to_principal(self):
        p1 = ideal_from_generators(F5, [F5.integer(3, 0), F5.integer(1, 1)])
        p2 = ideal_from_generators(F5, [F5.integer(3, 0), F5.integer(1, -1)])
        assert ideal_product(p1, p2) == principal_ideal(F5, F5.integer(3, 0))

    def test_zero_absorbs(self):
        assert ideal_product(zero_ideal(F5), unit_ideal(F5)).is_zero()

    def test_norm_multiplicativity(self):
        rng = random.Random(2)
        for field in (F5, F2, F23):
            for _ in range(67):
                a = random_nonzero_ideal(field, rng, 10**5)
                b = random_nonzero_ideal(field, rng, 10**5)
                assert ideal_product(a, b).norm() == a.norm() * b.norm()
        scaled = 0
        for field in REFERENCE_FIELDS:
            for _ in range(40):
                a = random_scaled_ideal(field, rng, 10**5)
                b = random_scaled_ideal(field, rng, 10**5)
                assert ideal_product(a, b) == generator_product(a, b)
                scaled += a.c > 1
        assert scaled > 40

    def test_principal_norm_is_element_norm(self):
        rng = random.Random(3)
        for field in (F5, F2, F23):
            n = 0
            while n < 34:
                x = field.integer(rng.randint(-50, 50), rng.randint(-50, 50))
                if x.is_zero():
                    continue
                assert principal_ideal(field, x).norm() == abs(x.norm())
                n += 1

    def test_quotient_examples(self):
        p = ideal_from_generators(F5, [F5.integer(2, 0), F5.integer(1, 1)])
        two = principal_ideal(F5, F5.integer(2, 0))
        assert ideal_divides_and_quotient(p, two) == p
        ideal = random_nonzero_ideal(F5, random.Random(4), 10**4)
        assert ideal_divides_and_quotient(ideal, ideal) == unit_ideal(F5)
        six = principal_ideal(F5, F5.integer(6, 0))
        three = principal_ideal(F5, F5.integer(3, 0))
        assert ideal_divides_and_quotient(two, six) == three

    def test_quotient_absent_when_not_contained(self):
        p3 = ideal_from_generators(F5, [F5.integer(3, 0), F5.integer(1, 1)])
        p2 = ideal_from_generators(F5, [F5.integer(2, 0), F5.integer(1, 1)])
        assert ideal_divides_and_quotient(p3, p2) is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            ideal_divides_and_quotient(zero_ideal(F5), unit_ideal(F5))

    def test_gcd_examples(self):
        p2 = ideal_from_generators(F5, [F5.integer(2, 0), F5.integer(1, 1)])
        p3 = ideal_from_generators(F5, [F5.integer(3, 0), F5.integer(1, 1)])
        assert ideal_gcd(p2, p3) == unit_ideal(F5)
        assert ideal_gcd(p2, p2) == p2
        four = principal_ideal(F5, F5.integer(4, 0))
        six = principal_ideal(F5, F5.integer(6, 0))
        assert ideal_gcd(four, six) == principal_ideal(F5, F5.integer(2, 0))
        assert ideal_gcd(zero_ideal(F5), p2) == p2

    def test_gcd_divides_and_is_divided(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_nonzero_ideal(F5, rng, 10**4)
            b = random_nonzero_ideal(F5, rng, 10**4)
            g = ideal_gcd(a, b)
            assert ideal_divides_and_quotient(g, a) is not None
            assert ideal_divides_and_quotient(g, b) is not None
            # any common divisor divides g: use gcd(a, b) composed with a third
            c = ideal_gcd(g, random_nonzero_ideal(F5, rng, 10**4))
            assert ideal_divides_and_quotient(c, g) is not None

    def test_conj_product_is_norm_ideal(self):
        rng = random.Random(6)
        for field in (F5, F23, F2):
            for _ in range(34):
                ideal = random_nonzero_ideal(field, rng, 10**5)
                expected = principal_ideal(field, field.integer(ideal.norm(), 0))
                assert ideal_product(ideal, ideal.conj()) == expected
        scaled = 0
        for field in REFERENCE_FIELDS:
            for _ in range(40):
                ideal = random_scaled_ideal(field, rng, 10**5)
                conj = ideal_from_generators(field, [g.conj() for g in ideal.basis()])
                assert ideal.conj() == conj
                expected = principal_ideal(field, field.integer(ideal.norm(), 0))
                assert ideal_product(ideal, conj) == expected
                assert generator_product(ideal, conj) == expected
                scaled += ideal.c > 1
        assert scaled > 40


class TestSplitPrime:
    def test_two_ramifies_in_sqrt_minus5(self):
        rep = split_prime(F5, 2)
        assert rep.kind == "ramified"
        p, mult = rep.factors[0]
        assert mult == 2 and (p.a, p.b, p.c) == (2, 1, 1)  # (2, 1 + sqrt(-5))

    def test_two_splits_in_sqrt_minus23(self):
        rep = split_prime(F23, 2)
        assert rep.kind == "split"
        assert sorted(p.norm() for p, _ in rep.factors) == [2, 2]

    def test_eleven_inert_in_sqrt_minus5(self):
        # squares mod 11 are {0,1,3,4,5,9}; -5 = 6 mod 11 is not among them
        assert (-5) % 11 not in squares_mod(11)
        assert split_prime(F5, 11).kind == "inert"

    def test_seven_splits_in_sqrt_minus5(self):
        assert (-5) % 7 in squares_mod(7)
        assert split_prime(F5, 7).kind == "split"

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            split_prime(F5, 6)

    def test_splitting_laws_sweep(self):
        # efg = 2, ramified iff q | d, product re-multiplies to (q)
        for m in (-23, -5, -1, 2, 3, 5, 13):
            field = ring_of_integers(m)
            for q in primes_up_to(100):
                rep = split_prime(field, q)
                assert rep.e * rep.f * rep.g == 2
                assert (rep.kind == "ramified") == (field.d % q == 0)
                prod = unit_ideal(field)
                for p, mult in rep.factors:
                    prod = ideal_product(prod, ideal_pow(p, mult))
                assert prod == principal_ideal(field, field.integer(q, 0))
                ref = unit_ideal(field)
                for p, mult in rep.factors:
                    for _ in range(mult):
                        ref = generator_product(ref, p)
                assert ref == prod
                if rep.kind == "split":
                    assert rep.factors[0][0] != rep.factors[1][0]
                    # oracle: the splitting criterion is the square test mod q
                    if q % 2 == 1:
                        assert m % q in squares_mod(q)
                elif rep.kind == "inert" and q % 2 == 1:
                    assert m % q not in squares_mod(q)


class TestFactorIdeal:
    def test_21_in_sqrt_minus5(self):
        factors = factor_ideal(principal_ideal(F5, F5.integer(21, 0)))
        assert [(p.norm(), v) for p, v in factors] == [(3, 1), (3, 1), (7, 1), (7, 1)]

    def test_prime_input(self):
        p = split_prime(F5, 7).factors[0][0]
        assert factor_ideal(p) == [(p, 1)]

    def test_eight_in_sqrt2(self):
        factors = factor_ideal(principal_ideal(F2, F2.integer(8, 0)))
        assert len(factors) == 1
        p, v = factors[0]
        assert v == 6 and p == ideal_from_generators(F2, [F2.integer(2, 0), F2.integer(0, 1)])

    def test_unit_and_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_ideal(unit_ideal(F5))
        with pytest.raises(ValueError):
            factor_ideal(zero_ideal(F5))

    def test_round_trip_random(self):
        rng = random.Random(7)
        for field in (F5, F2, F23):
            for _ in range(34):
                ideal = random_nonzero_ideal(field, rng, 10**4)
                factors = factor_ideal(ideal)
                prod = unit_ideal(field)
                for p, v in factors:
                    prod = ideal_product(prod, ideal_pow(p, v))
                assert prod == ideal
                # uniqueness: refactoring the product gives the same multiset
                assert factor_ideal(prod) == factors

    def test_certificates_survive_optimize(self):
        # with ideal_product broken, the product certificates must still raise
        # when python -O strips asserts
        code = (
            "import quadrantal.quadring as qr\n"
            "F = qr.QuadraticField(-5)\n"
            "qr.ideal_product = lambda i, j: qr.unit_ideal(i.field)\n"
            "for call in (lambda: qr.split_prime(F, 7),\n"
            "             lambda: qr.factor_ideal(qr.principal_ideal(F, F.integer(21)))):\n"
            "    try:\n"
            "        call()\n"
            "    except ArithmeticError:\n"
            "        continue\n"
            "    raise SystemExit('certificate did not raise')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestIsPrincipal:
    def test_norm2_prime_not_principal(self):
        p = ideal_from_generators(F5, [F5.integer(2, 0), F5.integer(1, 1)])
        assert is_principal(p) is None

    def test_i1_i3_in_sqrt_minus23(self):
        i1 = split_prime(F23, 2).factors[0][0]
        rep3 = split_prime(F23, 3)
        for i3, _ in rep3.factors:
            gen = is_principal(ideal_product(i1, i3))
            if gen is not None:
                assert abs(gen.norm()) == 6
                assert gen in (F23.omega(), -F23.omega(), F23.omega().conj(), -F23.omega().conj())
                break
        else:
            pytest.fail("one pairing of the norm-2 and norm-3 primes is principal")

    def test_principal_rational(self):
        seven = principal_ideal(F5, F5.integer(7, 0))
        assert is_principal(seven) == F5.integer(7, 0)

    def test_real_field_principal(self):
        # (sqrt 2) is principal of norm 2
        p = split_prime(F2, 2).factors[0][0]
        gen = is_principal(p)
        assert gen is not None and abs(gen.norm()) == 2
        assert principal_ideal(F2, gen) == p

    def test_real_field_non_principal(self):
        F10 = ring_of_integers(10)
        p = split_prime(F10, 2).factors[0][0]
        assert is_principal(p) is None  # h(Q(sqrt 10)) = 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_principal(zero_ideal(F5))


class TestMinkowski:
    def test_golden_floors(self):
        assert minkowski_bound(F2).floor == 1      # sqrt(8)/2 < 2
        assert minkowski_bound(F5).floor == 2      # 4 sqrt(5)/pi < 3
        assert minkowski_bound(F23).floor == 3     # 2 sqrt(23)/pi < 4

    def test_upper_bound_is_certified(self):
        for field in (F2, F5, F23):
            mb = minkowski_bound(field)
            p, q = mb.upper
            assert mb.floor * q <= p < (mb.floor + 1) * q and math.gcd(p, q) == 1

    def test_decimal_rendering(self):
        assert minkowski_bound(F5).decimal.startswith("2.8470")

    def test_decimals_match_mpmath(self):
        # every square-free m in [-3000, 3000] but 1: 3,647 fields
        fields = squarefree_fields(-3000, 3000)
        assert len(fields) == 3647
        for field in fields:
            assert minkowski_bound(field).decimal == mpmath_minkowski_decimal(field.d), field.m
