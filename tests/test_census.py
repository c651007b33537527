import math
import random

import mpmath
import pytest

from quadrantal import arith, census, quadring
from quadrantal.census import (
    BLOCK,
    census_check,
    checkpoint_ratios,
    ideal_count_sieve,
    per_class_counts,
    sigma_theoretical,
)
from quadrantal.quadring import (
    ClassGroupReport,
    QuadIdeal,
    class_group,
    ideal_pow,
    ideal_product,
    ring_of_integers,
    split_prime,
)
from quadrantal.units import fundamental_unit, torsion_order

from oracles import hnf_ideal_counts, kronecker, mpmath_census_strings, standard_triples
from test_classgroup import squarefree_fields

F5 = ring_of_integers(-5)
F2 = ring_of_integers(2)
F23 = ring_of_integers(-23)


class TestSieve:
    def test_count_one_at_one(self):
        for field in (F5, F2, F23):
            assert ideal_count_sieve(field, 10)[1] == 1

    def test_small_counts_sqrt_minus5(self):
        a = ideal_count_sieve(F5, 50)
        assert a[2] == 1   # the ramified prime above 2
        assert a[3] == 2   # 3 splits
        assert a[11] == 0  # 11 is inert (odd power)

    def test_norm4_in_sqrt2(self):
        a = ideal_count_sieve(F2, 10)
        assert a[4] == 1  # only (2) = (sqrt 2)^2 has norm 4

    def test_matches_hnf_enumeration(self):
        for field in (F5, F2, F23):
            sieve = ideal_count_sieve(field, 300)
            oracle = hnf_ideal_counts(field.m, 300)
            assert sieve == oracle


def divisor_sum_counts(d, k):
    """b[n] = sum of kronecker(d, e) over the divisors e of n, for n <= k."""
    b = [0] * (k + 1)
    for e in range(1, k + 1):
        chi = kronecker(d, e)
        if chi:
            for n in range(e, k + 1, e):
                b[n] += chi
    return b


class TestSieveOracle:
    """The sieve against a(n) = sum_{e | n} chi_d(e) at cutoffs around its
    seams: the first primes, a square r^2 (where a prime moves from the
    recurrence to the multiplier) and one block of the strided recurrence."""

    SMALL = (1, 2, 3, 4, 30**2 - 1, 30**2, 30**2 + 1)
    BLOCKS = (BLOCK - 1, BLOCK, BLOCK + 1)

    def check(self, field, cutoffs):
        oracle = divisor_sum_counts(field.d, max(cutoffs))
        for k in cutoffs:
            assert ideal_count_sieve(field, k) == oracle[: k + 1], (field.m, k)

    def test_every_field_in_minus100_100(self):
        fields = squarefree_fields(-100, 100)
        # 2 ramified (m = 2, 3 mod 4), split (m = 1 mod 8) and inert (m = 5 mod 8)
        assert {f.m % 8 for f in fields} >= {1, 2, 3, 5, 6, 7}
        for field in fields:
            self.check(field, self.SMALL)

    def test_block_seams_for_every_class_of_m_mod_8(self):
        for m in (17, -7, 2, -6, 3, -5, 5, -3, 6, -2, 7, -1):
            self.check(ring_of_integers(m), self.SMALL + self.BLOCKS)

    def test_discriminant_above_cutoff(self):
        for m in (-10007, 1000003):
            field = ring_of_integers(m)
            assert abs(field.d) > 30**2 + 1
            self.check(field, self.SMALL + self.BLOCKS)

    def test_hyperbola_sum_at_2e5(self):
        # Z(k) = sum_{e <= k} chi_d(e) floor(k/e)
        k = 2 * 10**5
        for m in (2, -23):
            field = ring_of_integers(m)
            z = sum(kronecker(field.d, e) * (k // e) for e in range(1, k + 1))
            assert sum(ideal_count_sieve(field, k)) == z


class TestOddLaneSeams:
    """The odd-lane kernel against a(n) = sum_{e | n} chi_d(e).  Lane i holds
    n = 2 i + 1, 2 enters last through its local factor, a pass runs in
    blocks of BLOCK lanes and a field whose |d| <= k tiles chi_d with period
    |d| (odd d) or |d|/2: the seams are the small cutoffs, the powers of 2,
    2 BLOCK and |d| itself."""

    CUTOFFS = (
        tuple(range(1, 10))
        + tuple(2**v + e for v in range(4, 18) for e in (-1, 0, 1))
        + (2 * BLOCK - 1, 2 * BLOCK + 1)
    )

    def check(self, field, cutoffs):
        oracle = divisor_sum_counts(field.d, max(cutoffs))
        for k in cutoffs:
            assert ideal_count_sieve(field, k) == oracle[: k + 1], (field.m, k)

    @pytest.mark.parametrize("m", [17, -7, 5, -3, 2, -2, 3, -1])
    def test_every_class_of_m_mod_8(self, m):
        # 2 split (m = 1 mod 8), inert (m = 5 mod 8), ramified (m = 2, 3 mod 4)
        field = ring_of_integers(m)
        self.check(field, self.CUTOFFS + tuple(abs(field.d) + e for e in (-1, 0, 1)))

    @pytest.mark.parametrize("m", [-1000003, 1000003, 10, -10007])
    def test_discriminant_above_and_near_cutoff(self, m):
        # |d| odd and even; the last two cross |d| <= k inside the cutoffs
        field = ring_of_integers(m)
        around = tuple(abs(field.d) + e for e in (-1, 0, 1) if abs(field.d) + e <= 2**17)
        self.check(field, self.CUTOFFS + around)

    def test_one_row_lists_no_prime_above_root(self, monkeypatch):
        # the one-row count reads chi_d off a tile of the odd sieve; a list of
        # the primes up to k costs more than the rest of the sieve
        calls = []

        def spy(n):
            calls.append(n)
            return real(n)

        real = arith.primes_up_to
        monkeypatch.setattr(arith, "primes_up_to", spy)
        monkeypatch.setattr(census, "primes_up_to", spy, raising=False)
        for m, k in ((-23, 10**5), (2, 10**5 + 1), (1000003, 10**4), (-7, 99)):
            assert sum(ideal_count_sieve(ring_of_integers(m), k)) > 0
            assert all(n <= math.isqrt(k) for n in calls), (m, k, calls)
            calls.clear()


class TestChiRows:
    """The rows of the n prime to 6 start as the tile's entries: chi_d(n) + 1
    at n = 6 i + r, read off a prefix (|d| > k) or off up to six laps of a
    period, whose length may share 2 or 3 with 6."""

    @pytest.mark.parametrize("m, k", [(1000003, 5000), (-10000019, 3000), (-23, 5000), (6, 700), (-3, 50)])
    def test_rows_against_the_oracle(self, m, k):
        field = ring_of_integers(m)
        tile = census._tile(field, k)
        assert len(tile) == (k + 1 if abs(field.d) > k else abs(field.d))
        for r in (1, 5):
            row = census._chi_row(tile, r, (k + 6 - r) // 6)
            assert [c - 1 for c in row] == [kronecker(field.d, n) for n in range(r, k + 1, 6)], (m, r)


class TestWheelSeams:
    """The kernel against a(n) = sum_{e | n} chi_d(e) for each splitting of
    2 and 3, at its seams: the rows hold the n prime to 6, 2 and 3 enter
    last through their local factors at n = 2^a 3^b, a pass runs in blocks
    of 6 BLOCK n, and a period tile repeats from |d|."""

    SMOOTH = tuple(sorted({2**a * 3**b + e for a in range(15) for b in range(10) for e in (-1, 0, 1)
                     if 2 <= 2**a * 3**b <= 20000}))
    BLOCKS = (6 * BLOCK - 1, 6 * BLOCK, 6 * BLOCK + 1)

    def fields(self):
        """{(chi_d(2), chi_d(3)): the square-free m of least |m| with them}."""
        out = {}
        for m in sorted(range(-200, 200), key=abs):
            if m in (-1, 0, 1) or any(m % (p * p) == 0 for p in (2, 3, 5, 7, 11, 13)):
                continue
            d = ring_of_integers(m).d
            out.setdefault((kronecker(d, 2), kronecker(d, 3)), m)
        return out

    def test_nine_splittings_of_2_and_3(self):
        fields = self.fields()
        assert len(fields) == 9
        for m in fields.values():
            field = ring_of_integers(m)
            cutoffs = self.SMOOTH + self.BLOCKS + tuple(abs(field.d) + e for e in (-1, 0, 1))
            oracle = divisor_sum_counts(field.d, max(cutoffs))
            for k in cutoffs:
                assert ideal_count_sieve(field, k) == oracle[: k + 1], (m, k)


def wheel_shapes(bound):
    """(n, d(n)) for the n <= bound prime to 6 whose exponents on 5, 7, 11,
    ... do not increase: moving the exponents of any n prime to 6 into that
    order gives such an n no larger, with the same d(n)."""
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31)

    def walk(i, n, d, cap):
        yield n, d
        power = n
        for e in range(1, cap + 1):
            power *= primes[i]
            if power > bound:
                break
            yield from walk(i + 1, power, d * (e + 1), e)

    return walk(0, 1, 1, bound.bit_length())


def test_byte_lanes_hold_every_count_prime_to_6():
    # a partial count of the rows lies in [0, d(n)] for an n prime to 6, so
    # one byte holds it up to the least such n with d(n) > 255
    shapes = list(wheel_shapes(10**9))
    assert min(n for n, d in shapes if d > 255) == 929553625 == 5**3 * 7 * 11 * 13 * 17 * 19 * 23
    assert 929553625 > arith.MAX_TABLE
    assert max(d for n, d in shapes if n <= arith.MAX_TABLE) == 144


def test_planes_are_the_bytes_of_c_x():
    # c * x for x = 0 .. 255 in 16-bit lanes carries into no other lane
    # while c * 255 < 2^16; the table's c = a(2^a) a(3^b) stays at or below
    # (a + 1)(b + 1) <= 130 over 2^a 3^b <= MAX_TABLE
    assert max((a + 1) * (b + 1) for a in range(27) for b in range(17) if 2**a * 3**b <= arith.MAX_TABLE) == 130
    for c in range(257):
        assert census._planes(c) == (bytes(c * x & 255 for x in range(256)), bytes(c * x >> 8 for x in range(256))), c


class TestChiTile:
    """The one chi_d tile: chi_d(i) + 1 for i < n, a full period at n = |d|
    and a prefix below it, from one symbol per prime below n."""

    @pytest.mark.parametrize("m, n", [(-23, 23), (10, 40), (1000003, 5001)])
    def test_tile_against_the_oracle(self, m, n):
        d = ring_of_integers(m).d
        assert n <= abs(d)
        tile = census._chi_tile(d, n)
        assert len(tile) == n
        assert [c - 1 for c in tile] == [kronecker(d, i) if i else 0 for i in range(n)]

    def test_census_check_builds_the_tile_once(self, monkeypatch):
        # |d| > k: the prefix serves Z(k), the sieve rows and chi_d(2) and
        # chi_d(3) of the spread, so each prime below n has one symbol
        field, k = ring_of_integers(1000003), 10**4
        calls = []

        def spy(d, q):
            calls.append(q)
            return arith.kronecker(d, q)

        census._chi_tile.cache_clear()
        monkeypatch.setattr(census, "kronecker", spy)
        census_check(field, k)
        primes = [q for q in range(2, k + 1) if all(q % p for p in range(2, math.isqrt(q) + 1))]
        assert sorted(calls) == primes


def divisor_sum(d, n):
    """sum of kronecker(d, e) over the divisors e of n."""
    small = [e for e in range(1, math.isqrt(n) + 1) if n % e == 0]
    return sum(kronecker(d, e) for e in set(small) | {n // e for e in small})


class TestLaneWidth:
    """a(n) <= d(n) must fit a lane: at N = 2^3 3^3 5 7 11 13 = 1081080, with
    2, 3, 5, 7, 11 and 13 all split, a(N) = d(N) = 256, which wraps a byte;
    a borrow out of a lane would corrupt the entries near it."""

    N = 1081080

    def test_256_ideals_of_one_norm(self):
        for m in (120121, -120119):
            field = ring_of_integers(m)
            assert [kronecker(field.d, q) for q in (2, 3, 5, 7, 11, 13)] == [1] * 6
            a = ideal_count_sieve(field, self.N)
            assert a[self.N] == 256
            for n in range(self.N - 100, self.N + 1):
                assert a[n] == divisor_sum(field.d, n), (m, n)

    def test_byte_lanes_end_at_the_first_256(self):
        # below N the lanes are bytes: d(n) <= 240, reached at 720720 =
        # 2^4 3^2 5 7 11 13; from N on they are 16 bits wide
        assert census.BYTE_LANES_BELOW == self.N
        six = (2, 3, 5, 7, 11, 13)
        fields = squarefree_fields(-1559, 1558)
        splitting = [f.m for f in fields if all(kronecker(f.d, q) == 1 for q in six)]
        assert splitting == [-1559]  # the least |m| at which all six split
        field = fields[0]
        rng = random.Random(1559)
        for k in (self.N - 1, self.N, self.N + 1):
            a = ideal_count_sieve(field, k)
            assert len(a) == k + 1
            assert a[720720] == 240
            if k >= self.N:
                assert a[self.N] == 256
            spots = rng.sample(range(1, k + 1), 300) + list(range(k - 50, k + 1))
            for n in spots:
                assert a[n] == divisor_sum(field.d, n), (k, n)


class TestIdealTotal:
    """Z(k) by Dirichlet's hyperbola method against the sum of the sieve,
    both from census._ideal_total and as census_check reports it, on one
    period of chi_d when |d| <= k and on a prefix of it above that."""

    def check(self, field, k, report=None):
        z = sum(ideal_count_sieve(field, k))
        assert census._ideal_total(field, k) == z, (field.m, k)
        assert census_check(field, k, report=report).z_k == z, (field.m, k)

    def test_every_field_in_minus200_200(self):
        for field in squarefree_fields(-200, 200):
            report = class_group(field)
            n = abs(field.d)
            for k in (100, 101, 10**4, n - 1, n, n + 1):
                if k >= 100:
                    self.check(field, k, report)

    @pytest.mark.parametrize("m", [1000003, -10007])
    def test_discriminant_above_cutoff(self, m):
        field = ring_of_integers(m)
        assert abs(field.d) > 1000
        self.check(field, 1000)

    def test_one_field_at_1e6(self):
        field = ring_of_integers(-23)
        k = 10**6
        assert census._ideal_total(field, k) == sum(ideal_count_sieve(field, k))


class TestSigma:
    def test_sqrt2(self):
        # 2^2 log(1+sqrt2) / (2 sqrt 8) = log(1+sqrt2)/sqrt2
        sigma = sigma_theoretical(F2)
        with mpmath.workdps(40):
            assert mpmath.nstr(sigma, 8) == "0.62322524"
            expected = mpmath.log(1 + mpmath.sqrt(2)) / mpmath.sqrt(2)
            assert abs(sigma - expected) < mpmath.mpf(10) ** -25

    def test_sqrt_minus5(self):
        sigma = sigma_theoretical(F5)
        with mpmath.workdps(40):
            expected = mpmath.pi / mpmath.sqrt(20)
            assert abs(sigma - expected) < mpmath.mpf(10) ** -25

    def test_torsion_order_halves_gaussian_density(self):
        # w = 4 for Q(i): sigma = pi/4, half of what w = 2 would give at |d| = 4
        sigma = sigma_theoretical(ring_of_integers(-1))
        with mpmath.workdps(40):
            assert abs(sigma - mpmath.pi / 4) < mpmath.mpf(10) ** -25


def _census_strings(result):
    return (result.sigma, result.z_over_k, result.sigma_h, result.deviation,
            result.normalized_deviation)


def _mpmath_strings(field, result, precision=30):
    unit = fundamental_unit(field).double_coords() if field.m > 0 else None
    return mpmath_census_strings(field.m, field.d, torsion_order(field), unit,
                                 result.z_k, result.h, result.k, precision)


class TestCensusStringsMatchMpmath:
    def test_every_field_to_400_at_three_cutoffs(self):
        # 485 fields at k = 100 and two seeded cutoffs: 1,455 results
        rng = random.Random(18)
        cutoffs = (100, rng.randrange(101, 5000), rng.randrange(5000, 50000))
        fields = squarefree_fields(-400, 400)
        assert len(fields) == 485
        for field in fields:
            for k in cutoffs:
                result = census_check(field, k)
                assert _census_strings(result) == _mpmath_strings(field, result), (field.m, k)

    @pytest.mark.parametrize("m", [-5, 13, 1000000007])
    def test_at_200_digits(self, m):
        field = ring_of_integers(m)
        result = census_check(field, 1000, precision=200)
        assert _census_strings(result) == _mpmath_strings(field, result, 200)


class TestCensusCheck:
    def test_convergence_to_sigma_h(self):
        expected = {2: "0.623225", -5: "1.404962", -23: "1.965202"}
        for m, target in expected.items():
            result = census_check(ring_of_integers(m), 10**5)
            assert abs(float(result.z_over_k) - float(target)) < 0.02
            assert float(result.sigma_h) == pytest.approx(float(target), abs=1e-6)

    def test_deviation_shrinks(self):
        for field in (F2, F5, F23):
            d3 = float(census_check(field, 10**3).deviation)
            d5 = float(census_check(field, 10**5).deviation)
            assert d5 < d3

    def test_small_cutoff_rejected(self):
        with pytest.raises(ValueError):
            census_check(F5, 50)

    def test_table_above_cap_rejected_before_allocating(self):
        k = 10**12
        with pytest.raises(ValueError, match="over the cap"):
            ideal_count_sieve(F5, k)
        with pytest.raises(ValueError, match="over the cap"):
            per_class_counts(F5, k, class_group(F5))

    def test_per_class_cap_before_the_sieve(self, monkeypatch):
        # k + 1 = 10^8 is within the cap, h (k + 1) = 3 10^8 is not: the
        # request fails before the plain table is built
        def sieve(field, k):
            pytest.fail(f"the sieve was built at k = {k}")

        monkeypatch.setattr(census, "ideal_count_sieve", sieve)
        with pytest.raises(ValueError, match="table of 300000000 entries, over the cap"):
            census_check(F23, 10**8 - 1, per_class=True)


class TestPerClass:
    def test_sum_identity(self):
        k = 3000
        for field in (F5, F23):
            report = class_group(field)
            z = per_class_counts(field, k, report)
            total = ideal_count_sieve(field, k)
            assert [sum(z[c][n] for c in range(report.h)) for n in range(k + 1)] == total

    def test_near_even_split(self):
        k = 10**4
        report = class_group(F5)
        z = per_class_counts(F5, k, report)
        z0, z1 = sum(z[0]), sum(z[1])
        assert abs(z0 - z1) / k < 0.01

    @pytest.mark.parametrize("m", [10, -14])
    def test_cutoff_below_one_rejected(self, m):
        field = ring_of_integers(m)
        report = class_group(field)
        for k in (0, -1):
            with pytest.raises(ValueError, match="cutoff must be at least 1"):
                per_class_counts(field, k, report)

    def test_census_per_class_flag(self):
        result = census_check(F5, 2000, per_class=True)
        assert result.per_class is not None and len(result.per_class) == 2
        assert sum(result.per_class) == result.z_k

    def test_per_class_deviations_reported_separately(self):
        # each class tends to sigma; measure both deviations at k = 10^4
        k = 10**4
        report = class_group(F5)
        z = per_class_counts(F5, k, report)
        sigma = float(sigma_theoretical(F5))
        devs = [abs(sum(z[c]) / k - sigma) for c in range(report.h)]
        assert max(devs) < 0.02


def per_class_oracle(field, k, report):
    """z[c][n] from the ideals of norm n <= k, enumerated as standard
    triples and located by class_index."""
    z = [[0] * (k + 1) for _ in range(report.h)]
    for a, b, c in standard_triples(field.m, k):
        z[report.class_index(QuadIdeal(field, a, b, c))][a * c * c] += 1
    return z


class TestPerClassOracle:
    def check(self, field, k):
        report = class_group(field)
        assert per_class_counts(field, k, report) == per_class_oracle(field, k, report), field.m

    def test_every_small_field_at_200(self):
        for field in squarefree_fields(-300, -1) + squarefree_fields(2, 300):
            self.check(field, 200)

    def test_chosen_fields_at_1000(self):
        # w = 4 and 6, h = 2, 4, 3, 77 (imaginary), h = 2, 3, 3 (real)
        for m in (-1, -3, -5, -14, -23, -10007, 10, 79, 223):
            self.check(ring_of_integers(m), 1000)

    def test_real_fields_of_class_number_4_and_8_at_1000(self):
        for m, h in ((82, 4), (145, 4), (226, 8), (399, 8), (1299, 8)):
            field = ring_of_integers(m)
            assert class_group(field).h == h
            self.check(field, 1000)

    def test_real_class_number_one_row_is_the_sieve(self):
        # k = 100^2 + 1 = 73 * 137, one past a square; large primes reach k / 2
        k = 10**4 + 1
        fields = [f for f in squarefree_fields(2, 300) if class_group(f).h == 1]
        assert len(fields) == 92
        for field in fields:
            (row,) = per_class_counts(field, k, class_group(field))
            assert row == ideal_count_sieve(field, k), field.m


class TestClassTotals:
    """census_check's per-class totals are sums of run lengths, with no row
    built; per_class_counts writes the same runs into rows."""

    def check(self, field, k):
        report = class_group(field)
        totals = census_check(field, k, per_class=True, report=report).per_class
        assert totals == tuple(sum(row) for row in per_class_counts(field, k, report)), (field.m, k)

    def test_every_field_to_400_at_three_cutoffs(self):
        fields = squarefree_fields(-400, 400)
        assert len(fields) == 485
        for field in fields:
            for k in (100, 1000, 3001):
                self.check(field, k)

    @pytest.mark.parametrize(
        "m, k",
        [(-1, 10**5), (-3, 10**5), (1299, 100003), (-10007, 30011), (1000003, 10**4), (1000000007, 10**4)],
    )
    def test_units_class_numbers_and_long_periods(self, m, k):
        # w = 4 and 6; h = 8 real and 77 imaginary; |d| > k with long periods
        self.check(ring_of_integers(m), k)

    @pytest.mark.parametrize(
        "m, expected", [(10, (17257, 17247)), (-14, (12605, 12597, 12603, 12603))]
    )
    def test_no_row_is_built(self, m, expected, monkeypatch):
        # the totals of the rows before the rows were dropped from census_check
        def fail(*args):
            pytest.fail("a per-class row was built")

        monkeypatch.setattr(census, "per_class_counts", fail)
        monkeypatch.setattr(census, "_run", fail)
        assert census_check(ring_of_integers(m), 30000, per_class=True).per_class == expected

    def test_a_dropped_point_fails_the_certificate(self, monkeypatch, capsys):
        # m = -1 has w/2 = 2: one point fewer leaves an odd count
        from quadrantal.cli import main

        walk = census._point_runs

        def drop_one(field, k, form):
            runs = walk(field, k, form)
            n, step, second, count = next(runs)
            yield n, step, second, count - 1
            yield from runs

        monkeypatch.setattr(census, "_point_runs", drop_one)
        with pytest.raises(ArithmeticError, match="not multiples of w/2"):
            census_check(ring_of_integers(-1), 1000, per_class=True)
        assert main(["census", "--m", "-1", "--k", "1000", "--per-class"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: certificate failed: point counts of")


class TestRealPerClassSeams:
    """Real per-class lattice rows with h > 1 at the small cutoffs, where the
    first sectors of each rho-cycle begin to count, and around the powers of
    2, where 2 (split in m = 145, 1 mod 8; ramified in the others) gives each
    class its ideals of a new norm 2^v."""

    CUTOFFS = tuple(range(1, 10)) + tuple(2**v + e for v in range(4, 10) for e in (-1, 0, 1))

    @pytest.mark.parametrize("m", [10, 79, 145, 226])
    def test_against_hnf_enumeration(self, m):
        field = ring_of_integers(m)
        report = class_group(field)
        assert report.h > 1
        oracle = per_class_oracle(field, max(self.CUTOFFS), report)
        for k in self.CUTOFFS:
            assert per_class_counts(field, k, report) == [row[: k + 1] for row in oracle], (m, k)


def group_ring_oracle(field, k, report):
    """z[c][n] from the factorization of each n <= k by a smallest-prime-factor
    table: the class vector of n is the group-ring product, over p^j || n,
    of the classes of the ideals of norm p^j, each built from the factors
    of split_prime and located by class_index."""
    h, table = report.h, report.table
    spf = list(range(k + 1))
    for p in range(2, math.isqrt(k) + 1):
        if spf[p] == p:
            for n in range(p * p, k + 1, p):
                if spf[n] == n:
                    spf[n] = p

    def local(p, j):
        """{class: ideals of norm p^j in it}"""
        factors = split_prime(field, p).factors
        if len(factors) == 2:  # split: P^a P'^(j - a)
            ideals = [ideal_product(ideal_pow(factors[0][0], a), ideal_pow(factors[1][0], j - a))
                      for a in range(j + 1)]
        elif factors[0][0].norm() == p:  # ramified: P^j
            ideals = [ideal_pow(factors[0][0], j)]
        else:  # inert: (p)^(j/2)
            ideals = [ideal_pow(factors[0][0], j // 2)] if j % 2 == 0 else []
        out = {}
        for ideal in ideals:
            c = report.class_index(ideal)
            out[c] = out.get(c, 0) + 1
        return out

    local_classes = {}
    vectors = [[0] * h, [1] + [0] * (h - 1)]
    for n in range(2, k + 1):
        p, rest, j = spf[n], n, 0
        while rest % p == 0:
            rest, j = rest // p, j + 1
        if (p, j) not in local_classes:
            local_classes[p, j] = local(p, j)
        vector, source = [0] * h, vectors[rest]
        for a, count in local_classes[p, j].items():
            for b, value in enumerate(source):
                vector[table[a][b]] += count * value
        vectors.append(vector)
    return [list(row) for row in zip(*vectors)]


class TestRealPerClassBlocks:
    """Real per-class lattice rows with h > 1 at k = 4 BLOCK + 1, class by
    class: a point counted in the sectors of the wrong class would leave the
    sums over the classes right."""

    @pytest.mark.parametrize("m", [10, 79, 1299])
    def test_against_the_group_ring_oracle(self, m):
        field, k = ring_of_integers(m), 4 * BLOCK + 1
        report = class_group(field)
        assert report.h > 1
        assert per_class_counts(field, k, report) == group_ring_oracle(field, k, report)


class TestRealPerClassSectors:
    """Real per-class rows from the sectors of the rho-cycle of each class,
    class by class against the group-ring oracle, and at a long period with
    large step quotients."""

    def test_every_real_field_below_120(self):
        k = 3001
        for field in squarefree_fields(2, 119):
            report = class_group(field)
            assert per_class_counts(field, k, report) == group_ring_oracle(field, k, report), field.m

    def test_three_classes_of_a_discriminant_above_the_cutoff(self):
        field, k = ring_of_integers(1000003), 10**4
        report = class_group(field)
        assert report.h == 3 and field.d > k
        assert per_class_counts(field, k, report) == group_ring_oracle(field, k, report)

    def test_long_period_row_is_the_sieve(self):
        field, k = ring_of_integers(1000000007), 10**4
        report = class_group(field)
        cycle = list(quadring._cycle(field, *report.reduced_form(0)[:2]))
        assert report.h == 1 and len(cycle) == 12352 and max(t for *_, t, _ in cycle) == 63244
        (row,) = per_class_counts(field, k, report)
        assert row == ideal_count_sieve(field, k)


class TestRealPerClassLocatesNoPrime:
    """Real per-class rows need no class of any prime ideal: with prime_form
    and ClassGroupReport.form_class both failing, they still match the
    group-ring oracle, which runs first."""

    @pytest.mark.parametrize("m", [10, 79, 1299])
    def test_without_prime_location(self, m, monkeypatch):
        field, k = ring_of_integers(m), 30011
        report = class_group(field)
        expected = group_ring_oracle(field, k, report)

        def locate(*args):
            pytest.fail("a prime ideal was located by its form")

        monkeypatch.setattr(quadring, "prime_form", locate)
        monkeypatch.setattr(census, "prime_form", locate, raising=False)
        monkeypatch.setattr(ClassGroupReport, "form_class", locate)
        assert per_class_counts(field, k, report) == expected


@pytest.fixture(scope="module")
def wide_real_rows():
    """The per-class rows of m = 10 (h = 2) at k = 1,081,081, past BYTE_LANES_BELOW."""
    field, k = ring_of_integers(10), census.BYTE_LANES_BELOW + 1
    report = class_group(field)
    return field, k, report, per_class_counts(field, k, report)


class TestRealPerClassWideLanes:
    """Real per-class lattice rows with h > 1 past BYTE_LANES_BELOW, where
    a(n) can exceed 255 and the plain sieve they sum to holds 16-bit lanes."""

    def test_rows_sum_to_the_sieve_and_the_oracle(self, wide_real_rows):
        field, k, report, rows = wide_real_rows
        assert report.h == 2 and k >= census.BYTE_LANES_BELOW
        total = [sum(column) for column in zip(*rows)]
        assert total == ideal_count_sieve(field, k)
        for n in random.Random(10).sample(range(1, k + 1), 300):
            assert total[n] == divisor_sum(field.d, n), n

    def test_totals_are_z_k(self, wide_real_rows):
        field, k, report, rows = wide_real_rows
        assert sum(map(sum, rows)) == census_check(field, k, report=report).z_k

    def test_class_totals_are_the_row_sums(self, wide_real_rows):
        field, k, report, rows = wide_real_rows
        assert census_check(field, k, per_class=True, report=report).per_class == tuple(map(sum, rows))


class TestTableTypes:
    """Every table is a list of ints, whatever rows the kernel packs it in."""

    def check(self, table):
        assert type(table) is list
        assert {type(a) for a in table} == {int}

    def test_sieve_in_byte_and_16_bit_lanes(self):
        for k in (1000, census.BYTE_LANES_BELOW):
            self.check(ideal_count_sieve(F2, k))

    def test_per_class_rows(self, wide_real_rows):
        tables = [per_class_counts(f, 1000, class_group(f)) for f in (F5, F23, ring_of_integers(10))]
        for rows in tables + [wide_real_rows[3]]:
            assert type(rows) is list and len(rows) > 1
            for row in rows:
                self.check(row)


class TestReportOfAnotherField:
    """A class group passed in must be the field's own: another field's h,
    table and form dict would give a wrong census or a misleading error."""

    @pytest.mark.parametrize("m, other", [(-5, -23), (-5, 10), (10, 79), (10, -5)])
    def test_rejected(self, m, other):
        field, report = ring_of_integers(m), class_group(ring_of_integers(other))
        for per_class in (False, True):
            with pytest.raises(ValueError, match="does not belong"):
                census_check(field, 100, per_class=per_class, report=report)
        with pytest.raises(ValueError, match="does not belong"):
            per_class_counts(field, 100, report)

    def test_own_report_accepted(self):
        for m in (-5, 10):
            field = ring_of_integers(m)
            result = census_check(field, 100, per_class=True, report=class_group(field))
            assert sum(result.per_class) == result.z_k


@pytest.mark.parametrize("k", [100, 101, 178, 10**4, 10**4 + 1])
def test_checkpoints_match_running_sum(k):
    marks = {round(10 ** (i / 4)) for i in range(4, 40)} | {k}
    # m = 1000003 and -10007 put marks below |d|, on a prefix of chi_d
    for field in (F2, F23, ring_of_integers(1000003), ring_of_integers(-10007)):
        a = ideal_count_sieve(field, k)
        expected, z = [], 0
        for n in range(1, k + 1):
            z += a[n]
            if n in marks:
                expected.append((n, z / n))
        assert checkpoint_ratios(field, k) == expected


def test_checkpoint_ratios():
    rows = checkpoint_ratios(F2, 1000)
    assert rows[-1][0] == 1000
    ks = [k for k, _ in rows]
    assert ks == sorted(set(ks))
    a = ideal_count_sieve(F2, 1000)
    assert rows[-1][1] == sum(a) / 1000
