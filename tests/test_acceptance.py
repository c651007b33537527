"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.
"""

import math
import random
import time

import mpmath

from quadrantal.arith import NotSquareFree, check_square_free, primes_up_to
from quadrantal.census import ideal_count_sieve, sigma_theoretical
from quadrantal.cyclotomic import euler_phi, multiplicative_order, split_prime_cyclotomic
from quadrantal.numberfield import NumberField, composed_min_poly, tuple_discriminant
from quadrantal.polynomial import Poly
from quadrantal.quadring import (
    class_group,
    factor_ideal,
    ideal_from_generators,
    ideal_pow,
    ideal_product,
    principal_ideal,
    ring_of_integers,
    split_prime,
    unit_ideal,
)
from quadrantal.units import fundamental_unit, torsion_order, unit_group_report

from oracles import hnf_ideal_counts, real_value, units_up_to_height


def check(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{tag} {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_golden_class_numbers():
    expected = {2: 1, -5: 2, -23: 3}
    times = []
    reports = {}
    for m, h in expected.items():
        t0 = time.monotonic()
        reports[m] = class_group(ring_of_integers(m))
        times.append(time.monotonic() - t0)
    ok = all(reports[m].h == h for m, h in expected.items())
    ok = ok and reports[-23].structure == (3,)
    ok = ok and max(times) < 1.0
    check(
        "criterion 1: h(2)=1, h(-5)=2, h(-23)=3 cyclic, each under 1 s",
        ok,
        f"max {max(times)*1000:.0f} ms",
    )


def test_criterion_2_theorem_74_sweep():
    t0 = time.monotonic()
    class_number_one = []
    class_number_bigger = []
    for m in range(-2, -201, -1):
        try:
            check_square_free(m)
        except NotSquareFree:
            continue
        h = class_group(ring_of_integers(m)).h
        (class_number_one if h == 1 else class_number_bigger).append(m)
    elapsed = time.monotonic() - t0
    h_minus_one = class_group(ring_of_integers(-1)).h
    expected = [-2, -3, -7, -11, -19, -43, -67, -163]
    ok = class_number_one == expected and h_minus_one == 1 and elapsed < 30.0
    check(
        "criterion 2: h=1 exactly on the Baker-Stark list within [-200,-2], under 30 s",
        ok,
        f"{elapsed:.1f} s, {len(class_number_one) + len(class_number_bigger)} fields",
    )


def test_criterion_3_failure_of_unique_factorization():
    field = ring_of_integers(-5)
    ideal21 = principal_ideal(field, field.integer(21, 0))
    factors = factor_ideal(ideal21)
    norms = sorted(p.norm() for p, v in factors for _ in range(v))
    four_primes = norms == [3, 3, 7, 7] and all(v == 1 for _, v in factors)
    prod = unit_ideal(field)
    for p, v in factors:
        prod = ideal_product(prod, ideal_pow(p, v))
    remultiplies = prod == ideal21
    # norm argument: no elements of norm 3 or 7, so 3, 7, 1 +- 2 sqrt(-5)
    # (norms 9, 49, 21) cannot factor nontrivially
    small = {
        a * a + 5 * b * b
        for a in range(-8, 9)
        for b in range(-4, 5)
    }
    irreducible = (
        3 not in small
        and 7 not in small
        and field.integer(1, 2).norm() == 21
        and field.integer(1, -2).norm() == 21
    )
    check(
        "criterion 3: (21) = P3 P3' P7 P7' in Z[sqrt(-5)], UFD failure certified",
        four_primes and remultiplies and irreducible,
    )


def test_criterion_4_splitting_laws():
    ok = True
    cases = 0
    for m in (-23, -5, -1, 2, 3, 5, 13):
        field = ring_of_integers(m)
        for q in primes_up_to(100):
            rep = split_prime(field, q)
            ok = ok and rep.e * rep.f * rep.g == 2
            ok = ok and (rep.kind == "ramified") == (field.d % q == 0)
            prod = unit_ideal(field)
            for p, mult in rep.factors:
                prod = ideal_product(prod, ideal_pow(p, mult))
            ok = ok and prod == principal_ideal(field, field.integer(q, 0))
            cases += 1
    check("criterion 4: efg=2, ramified iff q|d, products re-multiply", ok, f"{cases} cases")


def test_criterion_5_units():
    field = ring_of_integers(2)
    lam = fundamental_unit(field)
    reg = unit_group_report(field).regulator
    ok = lam == field.integer(1, 1) and reg.startswith("0.8813735870")
    ok = ok and [torsion_order(ring_of_integers(m)) for m in (-1, -3, -5)] == [4, 6, 2]
    for m in (2, 3, 5, 6, 7, 10, 11, 13):
        try:
            check_square_free(m)
        except NotSquareFree:
            continue
        lam_m = fundamental_unit(ring_of_integers(m))
        lam_val = real_value(m, lam_m.a, lam_m.b)
        ok = ok and abs(lam_m.norm()) == 1
        for a, b in units_up_to_height(m, math.ceil(lam_val)):
            val = real_value(m, a, b)
            if 1 + 1e-9 < val < lam_val - 1e-9:
                ok = False
    check("criterion 5: fundamental units, torsion orders, no smaller unit", ok)


def test_criterion_6_cyclotomic_splitting():
    ok = True
    for p in (5, 7, 11, 13):
        for q in primes_up_to(50):
            if q == p:
                continue
            s = split_prime_cyclotomic(p, q)
            f = multiplicative_order(q, p)
            ok = ok and (s.e, s.f, s.g) == (1, f, (p - 1) // f)
        s = split_prime_cyclotomic(p, p)
        ok = ok and (s.e, s.f, s.g) == (p - 1, 1, 1)
    for m in range(3, 61):
        for q in primes_up_to(50):
            s = split_prime_cyclotomic(m, q)
            ok = ok and s.e * s.f * s.g == euler_phi(m)
    check("criterion 6: cyclotomic (e,f,g) laws and the phi(m) sweep", ok)


def test_criterion_7_discriminants():
    ok = True
    ms = [m for m in range(-30, 31) if m not in (0, 1) and _square_free(m)][:20]
    assert len(ms) == 20
    for m in ms:
        f = NumberField(Poly([-m, 0, 1]))
        one, theta = f.one(), f.theta()
        ok = ok and tuple_discriminant([one, theta]) == 4 * m
        if m % 4 == 1:
            from fractions import Fraction

            omega = f.element([Fraction(1, 2), Fraction(1, 2)])
            ok = ok and tuple_discriminant([one, omega]) == m
    for p in (3, 5, 7, 11, 13, 17):
        f = NumberField(Poly([1] * p))
        basis = [f.element([0] * i + [1]) for i in range(p - 1)]
        ok = ok and tuple_discriminant(basis) == (-1) ** ((p - 1) // 2) * p ** (p - 2)
    check("criterion 7: quadratic and cyclotomic discriminants exact", ok)


def _square_free(m):
    try:
        check_square_free(m)
        return True
    except NotSquareFree:
        return False


def test_criterion_8_ideal_census():
    t0 = time.monotonic()
    ok_sieve = True
    for m in (2, -5, -23):
        field = ring_of_integers(m)
        ok_sieve = ok_sieve and ideal_count_sieve(field, 300).tolist() == hnf_ideal_counts(m, 300)
    k = 10**5
    max_norm_dev = 0.0
    for m in (2, -5, -23):
        field = ring_of_integers(m)
        z_k = sum(ideal_count_sieve(field, k))
        h = class_group(field).h
        with mpmath.workdps(40):
            sigma = sigma_theoretical(field)
            dev = abs(mpmath.mpf(z_k) / k - sigma * h) * mpmath.sqrt(k)
            max_norm_dev = max(max_norm_dev, float(dev))
    elapsed = time.monotonic() - t0
    ok = ok_sieve and max_norm_dev <= 5.0 and elapsed < 60.0
    check(
        "criterion 8: sieve = HNF enumeration to 300; |Z/k - sigma h| sqrt(k) <= 5 at k=1e5",
        ok,
        f"max normalized deviation {max_norm_dev:.4f}, {elapsed:.1f} s",
    )


def test_criterion_9_property_suites():
    rng = random.Random(20260810)
    fields = [ring_of_integers(m) for m in (-5, 2, -23)]

    def random_ideal(field, max_norm=10**4):
        while True:
            g1 = field.integer(rng.randint(-30, 30), rng.randint(-30, 30))
            g2 = field.integer(rng.randint(-30, 30), rng.randint(-30, 30))
            ideal = ideal_from_generators(field, [g1, g2])
            if not ideal.is_zero() and not ideal.is_unit_ideal() and ideal.norm() <= max_norm:
                return ideal

    ok = True
    # ideal norm multiplicativity, 200 pairs
    for i in range(200):
        field = fields[i % 3]
        a, b = random_ideal(field), random_ideal(field)
        ok = ok and ideal_product(a, b).norm() == a.norm() * b.norm()
    # element norm multiplicativity, 200 pairs
    count = 0
    while count < 200:
        field = fields[count % 3]
        x = field.integer(rng.randint(-40, 40), rng.randint(-40, 40))
        y = field.integer(rng.randint(-40, 40), rng.randint(-40, 40))
        ok = ok and (x * y).norm() == x.norm() * y.norm()
        count += 1
    # factorization round trips, 100 per field
    for field in fields:
        for _ in range(100):
            ideal = random_ideal(field)
            prod = unit_ideal(field)
            for p, v in factor_ideal(ideal):
                prod = ideal_product(prod, ideal_pow(p, v))
            ok = ok and prod == ideal
    # field polynomial power law, 50 random elements
    nf = {2: NumberField(Poly([-2, 0, 1])), 3: NumberField(Poly([-3, 0, 0, 1])),
          4: NumberField(Poly([1, 1, 1, 1, 1]))}
    for i in range(50):
        f = nf[(2, 3, 4)[i % 3]]
        a = f.element([rng.randint(-6, 6) for _ in range(f.degree)])
        fp, mp = a.field_polynomial(), a.minimal_polynomial()
        ok = ok and mp ** (f.degree // mp.degree) == fp
    # composed sum roots vanish at 1e-20
    pairs = [(Poly([-2, 0, 1]), Poly([-3, 0, 1])), (Poly([1, 1, 1]), Poly([-2, 0, 0, 1]))]
    with mpmath.workdps(60):
        for p, q in pairs:
            s = composed_min_poly("sum", p, q)
            coeffs = [mpmath.mpf(int(c)) for c in s.coeffs]
            for a in NumberField(p).embeddings():
                for b in NumberField(q).embeddings():
                    val = mpmath.mpc(0)
                    for c in reversed(coeffs):
                        val = val * (a + b) + c
                    ok = ok and abs(val) < mpmath.mpf(10) ** -20
    check("criterion 9: property suites (norms, round trips, power law, roots)", ok)
