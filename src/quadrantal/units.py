"""Unit groups of quadratic rings.

Imaginary fields carry only roots of unity (4 of them for m = -1, 6 for
m = -3, otherwise just +-1).  Real fields have the rank-1 group {+-lam^k}.
The fundamental unit lam > 1 and the continued fraction of w both come
from the principal rho-cycle of quadring, the cycle of reduced forms
through (1): its quotients are the period of w, and the generator carried
once round it, as a pair of integer convergents, is lam.  So half-integer
units like (1+sqrt(5))/2 appear directly in the integral basis.  Pell's
four equations x^2 - m y^2 = +-1, +-4 are solved from the powers of lam.
"""

from __future__ import annotations

import functools
from decimal import Context, Decimal, localcontext

from .arith import MAX_PERIOD, PeriodOverflow  # noqa: F401 (re-exported)
from .arith import ln_unit, nstr, record
from .quadring import QuadInt, QuadraticField, _cycle, _generator, _reduce, unit_inverse


# (w, coordinates of the torsion generator) of the rings with roots of unity
# besides +-1: i for m=-1, (1+sqrt(-3))/2 in the half basis for m=-3
_TORSION = {-1: (4, (0, 1)), -3: (6, (0, 1))}


def torsion_order(field: QuadraticField) -> int:
    """w, the number of roots of unity: 4 for m=-1, 6 for m=-3, else 2."""
    return _TORSION.get(field.m, (2, (-1, 0)))[0]


def torsion_generator(field: QuadraticField) -> QuadInt:
    """Deterministic generator: the root of unity of smallest positive
    argument (i for m=-1, (1+sqrt(-3))/2 for m=-3, -1 otherwise)."""
    return field.integer(*_TORSION.get(field.m, (2, (-1, 0)))[1])


def torsion_units(field: QuadraticField) -> list[QuadInt]:
    """All roots of unity in the ring, ordered by ascending argument from 1."""
    w = torsion_order(field)
    if w == 2:
        return [field.integer(1, 0), field.integer(-1, 0)]
    g = torsion_generator(field)
    out = [field.integer(1, 0)]
    for _ in range(w - 1):
        out.append(out[-1] * g)
    return out


# ---------------------------------------------------------------------------
# the principal rho-cycle: the continued fraction of w and the fundamental unit
# ---------------------------------------------------------------------------

def continued_fraction_of_omega(field: QuadraticField, max_period: int = 10**6):
    """Partial quotients of w through one full period, plus the period length.

    The period is read off the principal rho-cycle of forms from (1, B),
    whose quotients obey psi_(i+1) = t_i + 1/psi_i: so the expansion of
    tau = psi_0 = w + (B - d mod 2)/2 is [t_(p-1); t_(p-2), ..., t_0, ...].
    The first p - 1 entries of a period of w form a palindrome, so
    w = [a0; t_0, ..., t_(p-1)] with a0 = floor(w) = (B + d mod 2)/2, except
    for m = 5, where w = tau is reduced and no a0 comes before the period.
    A period of more than max_period forms (default 10^6) raises
    PeriodOverflow.
    """
    if field.m < 0:
        raise ValueError("continued fraction of w needs a real field")
    odd = field.d & 1
    a, big_b = _reduce(field, 1, odd)
    period = [t for _, _, t, _ in _cycle(field, a, big_b, max_period)]
    return ([] if big_b == odd else [(big_b + odd) // 2]) + period, len(period)


# bounded: a unit of a field with a long period runs to thousands of digits
@functools.lru_cache(maxsize=1024)
def fundamental_unit(field: QuadraticField, max_period: int = MAX_PERIOD) -> QuadInt:
    """The unit lam > 1 with U(R) = {+-lam^k}: the generator carried once
    round the principal rho-cycle from (1) back to (1), the product of its
    p complete quotients psi_i = (B_i + sqrt(d))/(2 a_i) > 1, built from the
    quotients' integer convergents; it is checked to be a unit above 1.
    lam has O(period) digits and building it costs O(period^2), so a period
    of more than max_period forms raises PeriodOverflow (10^5 steps give
    57,000 digits in 1-2 s).
    """
    if field.m < 0:
        raise ValueError("imaginary quadratic fields have no fundamental unit")
    a, big_b = _reduce(field, 1, field.d & 1)
    # walk the whole cycle before folding, so an over-cap period fails fast
    lam = _generator(field, a, big_b, list(_cycle(field, a, big_b, max_period)))
    if not lam.is_unit() or (lam - field.integer(1)).sign_real() <= 0:
        raise ArithmeticError(f"{lam} is not a unit above 1")
    return lam


@record
class PellSolution:
    x: int
    y: int
    kind: str  # plusOne | minusOne | plusFour | minusFour

    def to_json_dict(self):
        return {"x": str(self.x), "y": str(self.y), "kind": self.kind}


_PELL_TARGETS = {"plusOne": 1, "minusOne": -1, "plusFour": 1, "minusFour": -1}


def pell_solve(m: int, kind: str):
    """Least positive solution of x^2 - m y^2 = +-1 or +-4, if any.

    Solutions are exactly the powers of the fundamental unit with the right
    norm (and, for the +-1 forms, integral sqrt(m)-coordinates); the first
    qualifying power is the least solution.  minusOne and minusFour are
    absent whenever the fundamental unit has norm +1.
    """
    if kind not in _PELL_TARGETS:
        raise ValueError(f"unknown Pell equation kind {kind!r}")
    field = QuadraticField(m)
    if m < 0:
        raise ValueError("Pell equations need m > 0")
    lam = fundamental_unit(field)
    n_lam = lam.norm()
    target = _PELL_TARGETS[kind]
    if target == -1 and n_lam == 1:
        return None
    power = field.integer(1, 0)
    for _ in range(1, 13):
        power = power * lam
        u, v = power.double_coords()
        if power.norm() != target:
            continue
        if kind in ("plusFour", "minusFour"):
            return PellSolution(u, v, kind)
        if u % 2 == 0 and v % 2 == 0:
            return PellSolution(u // 2, v // 2, kind)
    raise ArithmeticError("a qualifying unit power must exist within 12 steps")


# ---------------------------------------------------------------------------
# the assembled report and membership
# ---------------------------------------------------------------------------

@record
class UnitGroupReport:
    field: QuadraticField
    torsion_order: int
    torsion_generator: QuadInt
    rank: int
    fundamental_unit: QuadInt | None
    regulator: str      # decimal string; exactly "1" when rank = 0
    precision_digits: int

    def to_json_dict(self):
        out = {
            "schema_version": 1,
            "m": self.field.m,
            "w": self.torsion_order,
            "torsion_generator": self.torsion_generator.to_json_dict(),
            "rank": self.rank,
        }
        if self.fundamental_unit is not None:
            out["fundamental_unit"] = self.fundamental_unit.to_json_dict()
        out["regulator"] = self.regulator
        out["precision_digits"] = self.precision_digits
        return out


def regulator_decimal(field: QuadraticField, digits: int = 50) -> Decimal:
    """log(lam) to `digits` significant digits (1 when the rank is 0)."""
    if field.m < 0:
        return Decimal(1)
    return ln_unit(*fundamental_unit(field).double_coords(), field.m, digits)


def regulator_mp(field: QuadraticField, dps: int = 50):
    """regulator_decimal at dps + 10 digits as an mpmath value."""
    import mpmath

    with mpmath.workdps(dps + 10):
        return mpmath.mpf(str(regulator_decimal(field, dps + 10)))


def unit_group_report(field: QuadraticField, precision: int = 50) -> UnitGroupReport:
    rank = 1 if field.m > 0 else 0
    lam = fundamental_unit(field) if rank else None
    reg = nstr(regulator_decimal(field, precision + 10), precision) if rank else "1"
    return UnitGroupReport(
        field, torsion_order(field), torsion_generator(field), rank, lam, reg, precision
    )


def unit_membership(field: QuadraticField, u: QuadInt):
    """The unique (k, a) with u = g^k * lam^a, g the torsion generator.

    a is forced to 0 when the rank is 0; the decomposition is located by
    logarithms and then confirmed by exact recomposition.
    """
    if not u.is_unit():
        raise ValueError(f"{u} is not a unit")
    if field.m < 0:
        g = torsion_generator(field)
        acc = field.integer(1, 0)
        for k in range(torsion_order(field)):
            if acc == u:
                return k, 0
            acc = acc * g
        raise ArithmeticError("units of an imaginary field are torsion")
    sign = u.sign_real()
    v = u if sign > 0 else -u
    k = 0 if sign > 0 else 1
    # |v v'| = 1, so ln v is +-ln of the larger of v and |v'|, which is
    # (|x| + |y| sqrt(m))/2 with no cancellation; it is v when x, y >= 0
    x, y = v.double_coords()
    ln_v = ln_unit(abs(x), abs(y), field.m, 60)
    with localcontext(Context(prec=60)):
        ratio = (ln_v if x >= 0 and y >= 0 else -ln_v) / regulator_decimal(field, 60)
        a = int(ratio.to_integral_value())
    lam = fundamental_unit(field)
    for cand in (a, a - 1, a + 1):
        if _unit_power(field, lam, cand) == v:
            return k, cand
    raise ArithmeticError("log-rounded exponent must be exact within +-1")


def _unit_power(field: QuadraticField, lam: QuadInt, a: int) -> QuadInt:
    if a >= 0:
        return lam**a
    return unit_inverse(lam) ** (-a)
