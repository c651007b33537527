import hashlib
import math
import random
import time

import pytest

from quadrantal import quadring
from quadrantal.arith import PeriodOverflow
from quadrantal.quadring import (
    QuadInt,
    class_group,
    ideal_from_generators,
    ideal_product,
    is_principal,
    minkowski_floor,
    principal_ideal,
    reduced_equivalent,
    ring_of_integers,
    unit_inverse,
)
from quadrantal.units import fundamental_unit, torsion_units

from oracles import class_number_by_forms, real_class_number_analytic, reduced_forms


class TestGoldenClassGroups:
    def test_sqrt2_trivial(self):
        t0 = time.monotonic()
        rep = class_group(ring_of_integers(2))
        assert time.monotonic() - t0 < 1.0
        assert rep.h == 1
        assert rep.structure == ()
        assert rep.representatives[0].is_unit_ideal()

    def test_sqrt_minus5_order_two(self):
        t0 = time.monotonic()
        rep = class_group(ring_of_integers(-5))
        assert time.monotonic() - t0 < 1.0
        assert rep.h == 2
        assert rep.structure == (2,)
        norm2 = rep.representatives[1]
        assert norm2.norm() == 2 and is_principal(norm2) is None

    def test_sqrt_minus23_cyclic_three(self):
        t0 = time.monotonic()
        rep = class_group(ring_of_integers(-23))
        assert time.monotonic() - t0 < 1.0
        assert rep.h == 3
        assert rep.structure == (3,)
        # prime order: both nontrivial classes generate
        for g in (1, 2):
            seen = {0}
            x = g
            while x != 0:
                seen.add(x)
                x = rep.table[x][g]
            assert seen == {0, 1, 2}

    def test_real_field_sqrt10(self):
        rep = class_group(ring_of_integers(10))
        assert rep.h == 2
        assert rep.structure == (2,)

    def test_known_noncyclic(self):
        # h(Q(sqrt(-21))) = 4 with Klein group structure
        rep = class_group(ring_of_integers(-21))
        assert rep.h == 4
        assert rep.structure == (2, 2)
        # and a cyclic counterpart of the same order
        rep14 = class_group(ring_of_integers(-14))
        assert rep14.h == 4
        assert rep14.structure == (4,)


class TestGroupAxioms:
    def test_table_is_an_abelian_group(self):
        for m in (-5, -23, -14, -21, -30, 10):
            rep = class_group(ring_of_integers(m))
            h, t = rep.h, rep.table
            assert all(t[0][j] == j for j in range(h))
            assert all(t[i][j] == t[j][i] for i in range(h) for j in range(h))
            assert all(
                t[t[i][j]][k] == t[i][t[j][k]]
                for i in range(h)
                for j in range(h)
                for k in range(h)
            )
            for i in range(h):
                assert sorted(t[i]) == list(range(h))  # each row a permutation
                j = list(t[i]).index(0)
                prod = ideal_product(rep.representatives[i], rep.representatives[j])
                assert is_principal(prod) is not None

    def test_representatives_distinct_classes(self):
        rep = class_group(ring_of_integers(-23))
        for i in range(rep.h):
            for j in range(i + 1, rep.h):
                prod = ideal_product(rep.representatives[i], rep.representatives[j].conj())
                assert is_principal(prod) is None


class TestEquivalenceDefinitions:
    def test_conj_test_matches_alpha_beta_definition(self):
        # I ~ J via principal I*conj(J) = (gamma) yields the witness pair
        # (N(J)) * I = (gamma) * J for the textbook definition
        field = ring_of_integers(-23)
        rep = class_group(field)
        classes = {}
        # collect a few ideals per class from small primes
        from quadrantal.arith import primes_up_to
        from quadrantal.quadring import split_prime

        pool = []
        for q in primes_up_to(20):
            sr = split_prime(field, q)
            pool.extend(p for p, _ in sr.factors)
        for ideal in pool:
            idx = rep.class_index(ideal)
            classes.setdefault(idx, []).append(ideal)
        checked = 0
        for idx, ideals in classes.items():
            for i in range(len(ideals)):
                for j in range(len(ideals)):
                    a, b = ideals[i], ideals[j]
                    gamma = is_principal(ideal_product(a, b.conj()))
                    assert gamma is not None
                    lhs = ideal_product(
                        principal_ideal(field, field.integer(b.norm(), 0)), a
                    )
                    rhs = ideal_product(principal_ideal(field, gamma), b)
                    assert lhs == rhs
                    checked += 1
        assert checked >= 9

    def test_reduced_equivalent_stays_in_class(self):
        field = ring_of_integers(-23)
        ideal = ideal_from_generators(field, [field.integer(7, 5), field.integer(11, -2)])
        red = reduced_equivalent(ideal)
        assert red.norm() <= 3
        assert is_principal(ideal_product(ideal, red.conj())) is not None


def squarefree_fields(lo, hi):
    out = []
    for m in range(lo, hi + 1):
        try:
            out.append(ring_of_integers(m))
        except ValueError:
            pass
    return out


class TestReductionOracles:
    def test_imaginary_h_is_the_reduced_form_count(self):
        # every imaginary field with |d| < 5000
        checked = 0
        for field in squarefree_fields(-4999, -1):
            if -field.d < 5000:
                assert class_group(field).h == class_number_by_forms(field.d), field.m
                checked += 1
        assert checked > 1500

    def test_real_h_matches_the_analytic_class_number_formula(self):
        # every real field with m <= 300, 265, 271 and 286 among them
        for field in squarefree_fields(2, 300):
            h = real_class_number_analytic(field.d)
            assert abs(h - round(h)) < 1e-6
            assert class_group(field).h == round(h), field.m

    def test_form_map_holds_every_reduced_form_once(self):
        # every square-free m in [-500, -2] and [2, 1000]
        fields = squarefree_fields(-500, -2) + squarefree_fields(2, 1000)
        assert len(fields) == 912
        for field in fields:
            rep = class_group(field)
            d = field.d
            assert set(rep.forms) == reduced_forms(d), field.m
            members = [[] for _ in range(rep.h)]  # (a, b) of each class's forms
            for (a, big_b), k in rep.forms.items():
                members[k].append((a, (big_b - d % 2) // 2 % a))
            for k, ideal in enumerate(rep.representatives):
                assert (ideal.a, ideal.b) == min(members[k]), (field.m, k)
                assert rep.class_index(ideal) == k, (field.m, k)

    def test_each_cycle_walked_once(self, monkeypatch):
        # one rho-cycle walk per class, none per (class x prime) product
        from quadrantal import quadring

        calls = []
        walk = quadring._cycle

        def counted(*args):
            calls.append(args[1:3])
            return walk(*args)

        monkeypatch.setattr(quadring, "_cycle", counted)
        rep = class_group(ring_of_integers(10000019))
        assert rep.h == 7 and len(calls) == 7

    def test_real_is_principal_walks_the_cycle_once(self, monkeypatch):
        calls = []
        walk = quadring._cycle

        def counted(*args):
            calls.append(args[1:3])
            return walk(*args)

        monkeypatch.setattr(quadring, "_cycle", counted)
        field = ring_of_integers(94)  # h = 1, a principal rho-cycle of 16 forms
        for x in (field.integer(3, 1), field.integer(5, 2), field.integer(0, 1)):
            calls.clear()
            ideal = principal_ideal(field, x)
            assert principal_ideal(field, is_principal(ideal)) == ideal
            assert len(calls) == 1, x
        field = ring_of_integers(10)  # (2, w) is not principal
        calls.clear()
        assert is_principal(ideal_from_generators(field, [field.integer(2), field.integer(0, 1)])) is None
        assert len(calls) == 1

    def test_h1299_and_h_minus_10007(self):
        assert class_group(ring_of_integers(1299)).h == 8
        assert class_group(ring_of_integers(-10007)).h == 77

    @pytest.mark.parametrize("m", [265, 271, 286])
    def test_is_principal_round_trips(self, m):
        field = ring_of_integers(m)
        rep = class_group(field)
        lam = fundamental_unit(field)
        lam_inv = unit_inverse(lam)
        rng = random.Random(m)
        seen = set()
        for _ in range(40):
            n = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
            ideal = ideal_from_generators(
                field, [field.integer(n), field.integer(rng.randint(-40, 40), rng.randint(0, 6))]
            )
            if ideal.is_unit_ideal():
                continue
            gen = is_principal(ideal)
            assert (gen is not None) == (rep.class_index(ideal) == 0)
            seen.add(gen is not None)
            if gen is None:
                assert rep.h > 1
                continue
            assert principal_ideal(field, gen) == ideal
            assert abs(gen.norm()) == ideal.norm()
            # the positive associate of least y >= 0
            assert gen.sign_real() > 0 and gen.b >= 0
            for other in (gen * lam, gen * lam_inv):
                assert other.b < 0 or other.b >= gen.b
        assert True in seen and (False in seen) == (rep.h > 1)


class TestCanonicalReduction:
    @pytest.mark.parametrize("m", [-23, -21, -5, -3, -1, 10, 79, 226])
    def test_one_ideal_per_class(self, m):
        field = ring_of_integers(m)
        rep = class_group(field)
        rng = random.Random(m)
        for _ in range(30):
            ideal = ideal_from_generators(
                field,
                [field.integer(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(2)],
            )
            if ideal.is_zero():
                continue
            red = reduced_equivalent(ideal)
            assert red.c == 1 and red.norm() <= minkowski_floor(field) or red.is_unit_ideal()
            assert reduced_equivalent(red) == red
            assert red == rep.representatives[rep.class_index(ideal)]
            assert is_principal(ideal_product(ideal, red.conj())) is not None


def reference_generator(i):
    """is_principal's generator with alpha carried through every rho-step as
    a QuadInt: J = (conj(alpha)/a0) * I0 goes to alpha * tau/a, one product
    and one exact division per step, from alpha = a0."""
    field, d = i.field, i.field.d
    r = math.isqrt(d) if d > 0 else 0
    a, big_b = quadring._form(i)
    if a == 1:
        return field.integer(i.c, 0)
    a0, big_b, alpha = a, quadring._normalize(r, a, big_b), field.integer(a, 0)

    def rho(a, big_b, alpha):
        tau = field.integer((big_b - (d & 1)) // 2, 1)
        x = tau * alpha
        assert x.a % a == 0 and x.b % a == 0
        c = abs((big_b * big_b - d) // (4 * a))
        return c, quadring._normalize(r, c, -big_b), QuadInt(field, x.a // a, x.b // a)

    while quadring._reduce(field, a, big_b) != (a, big_b):
        a, big_b, alpha = rho(a, big_b, alpha)
    if d < 0:
        if a != 1:
            return None
        cands = [alpha * z for z in torsion_units(field)]
    else:
        start = (a, big_b)
        while a != 1:
            a, big_b, alpha = rho(a, big_b, alpha)
            if (a, big_b) == start:
                return None
        cands = quadring._balanced_associates(alpha, a0)
    x = min((x for x in cands if x.b >= 0), key=lambda x: (x.b, x.norm() < 0, -x.a))
    return field.integer(i.c * x.a, i.c * x.b)


class TestGeneratorReference:
    def test_seeded_ideals(self):
        fields = squarefree_fields(-300, -2) + squarefree_fields(2, 300)
        principal = 0
        for field in fields:
            rng = random.Random(field.m)
            for _ in range(8):
                n = rng.choice((2, 3, 5, 6, 7, 10, 11, 13, 30))
                x = field.integer(rng.randint(-40, 40), rng.randint(0, 6))
                ideal = ideal_from_generators(field, [field.integer(n), x])
                gen = is_principal(ideal)
                assert gen == reference_generator(ideal), (field.m, ideal)
                principal += gen is not None
        assert principal > 1000

    def test_large_field(self):
        field = ring_of_integers(1000000007)
        ideal = ideal_from_generators(field, [field.integer(2), field.integer(1, 1)])
        gen = is_principal(ideal)
        assert gen is not None and gen == reference_generator(ideal)


class TestCyclePeriodCap:
    def principal_cycle(self, field):
        return quadring._reduce(field, *quadring._form(quadring.unit_ideal(field)))[:2]

    def test_cap_admits_its_own_period(self, monkeypatch):
        field = ring_of_integers(94)  # principal rho-cycle of 16 reduced forms
        key = self.principal_cycle(field)
        monkeypatch.setattr(quadring, "MAX_PERIOD", 16)
        assert len(list(quadring._cycle(field, *key))) == 16
        monkeypatch.setattr(quadring, "MAX_PERIOD", 15)
        with pytest.raises(PeriodOverflow, match="period exceeds cap 15"):
            list(quadring._cycle(field, *key))

    def test_every_walk_is_capped(self, monkeypatch):
        monkeypatch.setattr(quadring, "MAX_PERIOD", 15)
        field = ring_of_integers(94)
        with pytest.raises(PeriodOverflow):
            class_group(field)
        with pytest.raises(PeriodOverflow):
            reduced_equivalent(principal_ideal(field, field.integer(3, 1)))
        monkeypatch.setattr(quadring, "MAX_PERIOD", 2)
        field = ring_of_integers(10)  # (2, w) is not principal; its cycle has 3 forms
        with pytest.raises(PeriodOverflow):
            is_principal(ideal_from_generators(field, [field.integer(2), field.integer(0, 1)]))


def test_invariant_factors_from_p_power_torsion_counts():
    from itertools import product

    from quadrantal.quadring import _invariant_factors

    for chain in ((), (2,), (6,), (2, 2), (2, 4), (3, 9), (2, 2, 6), (4, 4), (2, 12)):
        elements = list(product(*[range(n) for n in chain]))
        index = {e: k for k, e in enumerate(elements)}
        table = [
            [index[tuple((x + y) % n for x, y, n in zip(a, b, chain))] for b in elements]
            for a in elements
        ]
        assert _invariant_factors(table) == chain


def report_line(m):
    r = class_group(ring_of_integers(m))
    reps = [(i.a, i.b, i.c) for i in r.representatives]
    return repr((m, r.h, reps, r.table, r.structure, sorted(r.forms.items())))


class TestPrimeFormsWithoutSplitting:
    """class_group takes the forms of the prime ideals below the Minkowski
    bound from chi_d(q) and prime_form, and builds no split_prime report."""

    # sha256 prefix of every report of square-free m in [-600, 600] and of
    # m = 1000000007, as written when the prime forms came from split_prime
    REPORTS = "9f45de18f9d41686"

    def test_no_split_prime_call(self, monkeypatch):
        calls = []

        def spy(field, q):
            calls.append(q)
            return split_prime(field, q)

        split_prime = quadring.split_prime
        monkeypatch.setattr(quadring, "split_prime", spy)
        for m in (-23, -14, 10, 79, -10007, 1000000007):
            assert class_group(ring_of_integers(m)).h >= 1
        assert calls == []

    def test_reports_unchanged(self):
        parts = [report_line(f.m) for f in squarefree_fields(-600, 600)] + [report_line(1000000007)]
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
        assert (len(parts), digest) == (732, self.REPORTS)


# every square-free m in [-1000, -2] and [2, 3000], then -10000019 and
# 1000000007, in blocks of 200 fields: (first m, last m, sha256 prefix of
# their report lines), as written when the classes came from a
# breadth-first search over h x (prime forms) compositions
REPORT_FIELDS = [f.m for f in squarefree_fields(-1000, -2) + squarefree_fields(2, 3000)] + [-10000019, 1000000007]
REPORT_BLOCKS = (
    (-998, -670, "3ad576168569965d"),
    (-669, -341, "cee5b7abd5452a4e"),
    (-339, -13, "c5117a27ecbc0a03"),
    (-11, 317, "5f5aa126878360dc"),
    (318, 646, "e1832644811a4fa7"),
    (647, 977, "03b07c5434c34591"),
    (978, 1302, "ebcc0a68a4726785"),
    (1303, 1627, "495ef433f2b0cc09"),
    (1630, 1966, "578b6077d8559308"),
    (1967, 2291, "58b06745fcc0a02c"),
    (2293, 2618, "66e21845b69eff0e"),
    (2621, 2951, "36b4d248a18f5244"),
    (2953, 1000000007, "c2e3ac0e03edfdea"),
)


class TestCosetGeneration:
    """class_group builds the group coset by coset from its generators and
    numbers the classes as the breadth-first search over the primes did."""

    @pytest.mark.parametrize(
        "block", range(len(REPORT_BLOCKS)), ids=[f"{a}..{b}" for a, b, _ in REPORT_BLOCKS]
    )
    def test_reports_unchanged(self, block):
        first, last, digest = REPORT_BLOCKS[block]
        ms = REPORT_FIELDS[200 * block : 200 * block + 200]
        assert (ms[0], ms[-1]) == (first, last)
        lines = "\n".join(map(report_line, ms))
        assert hashlib.sha256(lines.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "m, h, structure",
        [
            (-10000019, 1275, (1275,)),
            (-1000003, 105, (105,)),
            (-602, 24, (2, 12)),
            (-741, 24, (2, 2, 6)),
            (10000019, 7, (7,)),
        ],
    )
    def test_compositions_within_h_log_h(self, monkeypatch, m, h, structure):
        # at most h - 1 to build the cosets and h per generator for the
        # permutations, with at most log2(h) generators
        calls = []
        compose = quadring._compose

        def counted(*args):
            calls.append(args)
            return compose(*args)

        monkeypatch.setattr(quadring, "_compose", counted)
        rep = class_group(ring_of_integers(m))
        assert (rep.h, rep.structure) == (h, structure)
        assert len(calls) <= h * (h.bit_length() + 1)
