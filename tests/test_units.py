import math
import random

import mpmath
import pytest

from quadrantal.arith import check_square_free, NotSquareFree
from quadrantal import forms, units
from quadrantal.cli import main
from quadrantal.forms import class_group, is_principal
from quadrantal.quadring import principal_ideal, ring_of_integers, split_prime, unit_inverse
from quadrantal.units import (
    PeriodOverflow,
    continued_fraction_of_omega,
    fundamental_unit,
    pell_solve,
    regulator_mp,
    torsion_units,
    unit_group_report,
    unit_membership,
)

from oracles import (
    mpmath_log_unit,
    mpmath_regulator,
    pell_least_solution,
    real_value,
    units_up_to_height,
)
from test_classgroup import squarefree_fields


class TestTorsion:
    def test_gaussian_units(self):
        units = torsion_units(ring_of_integers(-1))
        assert len(units) == 4

    def test_eisenstein_units(self):
        units = torsion_units(ring_of_integers(-3))
        assert len(units) == 6

    def test_generic_real(self):
        units = torsion_units(ring_of_integers(7))
        assert sorted((u.a, u.b) for u in units) == [(-1, 0), (1, 0)]

    def test_generic_imaginary(self):
        assert len(torsion_units(ring_of_integers(-5))) == 2

    def test_orders_exact(self):
        for m in (-1, -3, -5, 2):
            field = ring_of_integers(m)
            units = torsion_units(field)
            w = len(units)
            one = field.integer(1, 0)
            for u in units:
                assert u**w == one
                order = 1
                acc = u
                while acc != one:
                    acc = acc * u
                    order += 1
                assert w % order == 0
            # completeness: exactly w roots of unity among small elements
            roots = [
                (a, b)
                for a, b in units_up_to_height(m, 3)
                if field.integer(a, b) ** (12) == one
            ]
            assert len(roots) == w


def set_cap(monkeypatch, cap):
    """forms.MAX_PERIOD = cap, with no walk kept from under another cap."""
    monkeypatch.setattr(forms, "MAX_PERIOD", cap)
    forms._principal_cycle.cache_clear()
    forms._cycle_unit.cache_clear()
    fundamental_unit.cache_clear()


class TestContinuedFraction:
    def test_sqrt2(self):
        assert continued_fraction_of_omega(ring_of_integers(2)) == ([1, 2], 1)

    def test_golden_ratio(self):
        assert continued_fraction_of_omega(ring_of_integers(5)) == ([1], 1)

    def test_m13_short_period(self):
        quotients, period = continued_fraction_of_omega(ring_of_integers(13))
        assert period <= 10

    def test_imaginary_rejected(self):
        with pytest.raises(ValueError):
            continued_fraction_of_omega(ring_of_integers(-2))

    def test_period_cap(self, monkeypatch):
        # the walk of w's period under a cap of 1 (its cap is MAX_PERIOD)
        set_cap(monkeypatch, 1)
        with pytest.raises(PeriodOverflow, match="period exceeds cap 1$"):
            continued_fraction_of_omega(ring_of_integers(94))

    @pytest.mark.parametrize("m", [2, 3, 5, 13, 94, 4729])
    def test_period_cap_counts_cycle_forms(self, m, monkeypatch):
        # the cap admits a period equal to it and refuses one form more; at
        # m = 5 the expansion has no pre-period, so no index is miscounted
        field = ring_of_integers(m)
        expansion = continued_fraction_of_omega(field)
        period = expansion[1]
        set_cap(monkeypatch, period)
        assert continued_fraction_of_omega(field) == expansion
        set_cap(monkeypatch, period - 1)
        with pytest.raises(PeriodOverflow, match=f"period exceeds cap {period - 1}$"):
            continued_fraction_of_omega(field)


class TestFundamentalUnit:
    def test_golden_values(self):
        cases = {2: (1, 1), 3: (2, 1), 5: (0, 1), 13: (1, 1)}
        for m, (a, b) in cases.items():
            lam = fundamental_unit(ring_of_integers(m))
            assert (lam.a, lam.b) == (a, b)

    def test_imaginary_rejected(self):
        with pytest.raises(ValueError):
            fundamental_unit(ring_of_integers(-7))

    def test_period_cap(self, monkeypatch):
        # the cap admits a period equal to it and refuses one step more
        for m in (2, 3, 13, 94, 4729):
            field = ring_of_integers(m)
            lam, period = fundamental_unit(field), continued_fraction_of_omega(field)[1]
            set_cap(monkeypatch, period)
            assert fundamental_unit(field) == lam
            set_cap(monkeypatch, period - 1)
            with pytest.raises(PeriodOverflow, match=f"period exceeds cap {period - 1}$"):
                fundamental_unit(field)
            monkeypatch.undo()

    def test_over_cap_period_fails_before_folding(self, monkeypatch):
        # the cycle is walked whole before its quotients are folded into lam
        def fold(*args):
            raise AssertionError("the convergents were folded")

        monkeypatch.setattr(forms, "_generator", fold)
        with pytest.raises(PeriodOverflow, match="period exceeds cap 100000"):
            fundamental_unit(ring_of_integers(1000000000039))

    def test_cache_is_bounded(self):
        info = fundamental_unit.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_norm_and_minimality(self):
        for m in (2, 3, 5, 6, 7, 10, 13):
            field = ring_of_integers(m)
            lam = fundamental_unit(field)
            assert abs(lam.norm()) == 1
            lam_val = real_value(m, lam.a, lam.b)
            assert lam_val > 1
            height = math.ceil(lam_val)
            for a, b in units_up_to_height(m, height):
                val = real_value(m, a, b)
                assert not (1 + 1e-9 < val < lam_val - 1e-9), (m, a, b)


class TestOneWalk:
    """Each request walks the principal rho-cycle of m = 10^9 + 7 (period
    12,352) once: the fundamental unit, the continued fraction of w, the
    class group's principal class, principality and the lattice-point
    sectors of a per-class census read one walk.  A per-class census of
    m = 1000003 (h = 3) walks its three class cycles, 1,482 forms, once."""

    PERIOD = 12352

    @pytest.fixture
    def rho_steps(self, monkeypatch):
        steps = [0]
        rho = forms._rho

        def counted(*args):
            steps[0] += 1
            return rho(*args)

        monkeypatch.setattr(forms, "_rho", counted)
        forms._principal_cycle.cache_clear()
        forms._cycle_unit.cache_clear()
        fundamental_unit.cache_clear()
        return steps

    @pytest.mark.parametrize("argv, walks", [
        (["units", "--m", "1000000007"], 1),
        (["census", "--m", "1000000007", "--k", "1000"], 1),
        (["census", "--m", "1000000007", "--k", "1000", "--per-class"], 1),
        (["quad", "classgroup", "--m", "1000000007"], 1),
    ], ids=["units", "census", "census-per-class", "classgroup"])
    def test_request_walks(self, rho_steps, capsys, argv, walks):
        assert main(argv) == 0
        capsys.readouterr()
        assert rho_steps[0] == walks * self.PERIOD

    def test_per_class_census_of_three_classes_walks_each_once(self, rho_steps, capsys):
        assert main(["census", "--m", "1000003", "--k", "1000", "--per-class"]) == 0
        capsys.readouterr()
        assert rho_steps[0] == 1482

    def test_class_group_then_is_principal_walk_once(self, rho_steps):
        field = ring_of_integers(1000000007)
        assert class_group(field).h == 1
        (prime, _), = split_prime(field, 2).factors
        assert is_principal(prime) is not None
        assert rho_steps[0] == self.PERIOD

    def test_unit_report_then_is_principal_fold_lam_once(self, rho_steps, monkeypatch):
        # the whole cycle folds into lam once per field, not once per principal ideal
        folds, fold = [0], forms._generator

        def counted(field, a, big_b, steps):
            folds[0] += steps is forms._principal_cycle(field)
            return fold(field, a, big_b, steps)

        monkeypatch.setattr(forms, "_generator", counted)
        field = ring_of_integers(1000000007)
        unit_group_report(field)
        for x in (field.integer(3, 1), field.integer(5, 2), field.integer(0, 1)):
            assert is_principal(principal_ideal(field, x)) is not None
        assert folds[0] == 1

    def test_class_group_then_unit_report_walk_once(self, rho_steps):
        field = ring_of_integers(1000000007)
        assert class_group(field).h == 1
        unit_group_report(field)
        assert continued_fraction_of_omega(field)[1] == self.PERIOD
        assert rho_steps[0] == self.PERIOD


class TestPell:
    def test_examples(self):
        assert pell_solve(2, "minusOne").x == 1 and pell_solve(2, "minusOne").y == 1
        assert pell_solve(3, "minusOne") is None
        sol = pell_solve(5, "minusFour")
        assert (sol.x, sol.y) == (1, 1)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            pell_solve(2, "timesTwo")

    def test_minimality_brute_force(self):
        kinds = {"plusOne": 1, "minusOne": -1, "plusFour": 4, "minusFour": -4}
        for m in range(2, 31):
            try:
                check_square_free(m)
            except NotSquareFree:
                continue
            for kind, rhs in kinds.items():
                expected = pell_least_solution(m, rhs)
                got = pell_solve(m, kind)
                if expected is None:
                    # brute force saw nothing below y = 200: the solver must
                    # agree it is unsolvable or produce a larger solution
                    assert got is None or got.y > 200
                else:
                    assert got is not None
                    assert (got.x, got.y) == expected
                    assert got.x**2 - m * got.y**2 == rhs


class TestReport:
    def test_imaginary(self):
        rep = unit_group_report(ring_of_integers(-5))
        assert rep.torsion_order == 2 and rep.rank == 0
        assert rep.regulator == "1"
        assert rep.fundamental_unit is None

    def test_real_regulator_digits(self):
        rep = unit_group_report(ring_of_integers(2))
        assert rep.torsion_order == 2 and rep.rank == 1
        assert rep.fundamental_unit == ring_of_integers(2).integer(1, 1)
        assert rep.regulator.startswith("0.8813735870")
        assert rep.precision_digits == 50

    def test_gaussian(self):
        rep = unit_group_report(ring_of_integers(-1))
        assert rep.torsion_order == 4 and rep.rank == 0


class TestMembership:
    def test_examples(self):
        field = ring_of_integers(2)
        lam = fundamental_unit(field)
        assert unit_membership(field, -(lam**3)) == (1, 3)
        assert (lam**3) == field.integer(7, 5)
        assert unit_membership(field, field.integer(1, 0)) == (0, 0)
        f3 = ring_of_integers(-3)
        k, a = unit_membership(f3, f3.integer(0, 1))
        assert a == 0 and k == 1

    def test_non_unit_rejected(self):
        field = ring_of_integers(2)
        with pytest.raises(ValueError):
            unit_membership(field, field.integer(2, 0))

    def test_round_trip(self):
        rng = random.Random(8)
        for m in (2, 5, 13):
            field = ring_of_integers(m)
            lam = fundamental_unit(field)
            for _ in range(34):
                k = rng.randint(0, 1)
                a = rng.randint(-6, 6)
                u = lam**a if a >= 0 else unit_inverse(lam) ** (-a)
                if k:
                    u = -u
                assert unit_membership(field, u) == (k, a)

    def test_imaginary_round_trip(self):
        for m in (-1, -3):
            field = ring_of_integers(m)
            for k, u in enumerate(torsion_units(field)):
                assert unit_membership(field, u) == (k, 0)


def test_regulator_matches_mpmath_log():
    rep = unit_group_report(ring_of_integers(2))
    with mpmath.workdps(60):
        expected = mpmath.log(1 + mpmath.sqrt(2))
        assert abs(mpmath.mpf(rep.regulator) - expected) < mpmath.mpf(10) ** -48


def test_regulators_match_mpmath():
    # every real field with m <= 3000: 1,823 regulators of 50 digits
    fields = squarefree_fields(2, 3000)
    assert len(fields) == 1823
    for field in fields:
        u, v = fundamental_unit(field).double_coords()
        assert unit_group_report(field).regulator == mpmath_regulator(u, v, field.m), field.m


@pytest.mark.parametrize("m", [1000000007, 100000000003])
def test_regulators_of_large_units_match_mpmath(m):
    # the unit of 100000000003 has about 730,000 digits: its coordinates
    # are shifted down, not converted to Decimal whole
    field = ring_of_integers(m)
    u, v = fundamental_unit(field).double_coords()
    assert unit_group_report(field).regulator == mpmath_regulator(u, v, m)
    assert unit_group_report(field, 200).regulator == mpmath_regulator(u, v, m, 200)


def test_regulator_mp_adapter():
    field = ring_of_integers(94)
    u, v = fundamental_unit(field).double_coords()
    with mpmath.workdps(70):
        assert abs(regulator_mp(field, 60) - mpmath_log_unit(u, v, 94, 80)) < mpmath.mpf(10) ** -68
    assert regulator_mp(ring_of_integers(-7)) == 1


def test_membership_of_inverse_powers_of_a_large_unit():
    # lam^-a = (x + y sqrt m)/2 with x, y of thousands of digits and
    # opposite signs: its logarithm comes from its conjugate, not from the
    # difference x + y sqrt(m), which cancels
    field = ring_of_integers(1000000007)
    inverse = unit_inverse(fundamental_unit(field))
    assert unit_membership(field, inverse**3) == (0, -3)
    assert unit_membership(field, -inverse) == (1, -1)


# ---------------------------------------------------------------------------
# reference: the (P, Q) recurrence of a continued fraction
# ---------------------------------------------------------------------------


def reference_cf(m: int, p: int, q: int):
    """The continued fraction of (p + sqrt(m))/q, q | m - p^2: yields each
    partial quotient a_i with the state (P_i, Q_i) of its complete quotient
    (P_i + sqrt(m))/Q_i and the convergent h/k of a_0, ..., a_(i-1) (1/0
    first)."""
    s = math.isqrt(m)
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        a = (p + s) // q
        yield a, (p, q), h1, k1
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        p = a * q - p
        q, r = divmod(m - p * p, q)
        assert r == 0 and q > 0


def omega_state(m: int) -> tuple[int, int]:
    # w = (P + sqrt(m))/Q: (1 + sqrt(m))/2 when m = 1 mod 4, else sqrt(m)
    return (1, 2) if m % 4 == 1 else (0, 1)


def reference_continued_fraction(m: int):
    """Quotients of w through the first repeated state, and the period."""
    seen, quotients = {}, []
    for i, (a, state, _, _) in enumerate(reference_cf(m, *omega_state(m))):
        if state in seen:
            return quotients, i - seen[state]
        seen[state] = i
        quotients.append(a)


def reference_unit(m: int) -> tuple[int, int]:
    """(a, b) of lam = a + b*w > 1: N(h - k*w) = +-Q_i/Q_0 for the convergent
    h/k before the i-th quotient, so the first return of Q to Q_0 gives the
    least unit h - k*w in (0, 1), and lam is its conjugate."""
    q0 = omega_state(m)[1]
    for i, (_, (_, q), h, k) in enumerate(reference_cf(m, *omega_state(m))):
        if i and q == q0:
            # conj(w) = -w for w = sqrt(m) and 1 - w for w = (1 + sqrt(m))/2
            return (h - k, k) if q0 == 2 else (h, k)


def reference_pell(m: int, kind: str):
    """Least positive (x, y) with x^2 - m*y^2 = +-1 or +-4, from the
    convergents of sqrt(m) and (1 + sqrt(m))/2.  Every solution with y >= 1
    is a convergent (Legendre), found where Q returns to Q_0, and the second
    return closes the search."""
    target = {"plusOne": 1, "minusOne": -1, "plusFour": 4, "minusFour": -4}[kind]
    if abs(target) == 4 and m % 4 != 1:
        # x^2 - m*y^2 = 0 mod 4 forces x, y even when m = 2, 3 mod 4
        half = reference_pell(m, kind.replace("Four", "One"))
        return None if half is None else (2 * half[0], 2 * half[1])
    p0, q0 = (1, 2) if abs(target) == 4 else (0, 1)
    returns = 0
    for i, (_, (_, q), h, k) in enumerate(reference_cf(m, p0, q0)):
        if not i or q != q0:
            continue
        x, y = (2 * h - k, k) if q0 == 2 else (h, k)  # h - k*w = (x - y*sqrt(m))/q0
        if x * x - m * y * y == target:
            return x, y
        returns += 1
        if returns == 2:
            return None


def squarefree_real(lo: int, hi: int) -> list[int]:
    out = []
    for m in range(lo, hi + 1):
        try:
            check_square_free(m)
        except NotSquareFree:
            continue
        out.append(m)
    return out


def test_principal_cycle_matches_the_pq_recurrence():
    # quotients, periods, units and all four Pell kinds of 1,823 fields
    fields = squarefree_real(2, 3000)
    assert len(fields) == 1823
    for m in fields:
        field = ring_of_integers(m)
        assert continued_fraction_of_omega(field) == reference_continued_fraction(m), m
        lam = fundamental_unit(field)
        assert (lam.a, lam.b) == reference_unit(m), m
        for kind in ("plusOne", "minusOne", "plusFour", "minusFour"):
            sol = pell_solve(m, kind)
            got = None if sol is None else (sol.x, sol.y)
            assert got == reference_pell(m, kind), (m, kind)
