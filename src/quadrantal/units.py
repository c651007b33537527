"""Unit groups of quadratic rings.

Imaginary fields carry only roots of unity (4 of them for m = -1, 6 for
m = -3, otherwise just +-1).  Real fields have the rank-1 group {+-lam^k}
with the fundamental unit lam > 1 extracted from the continued fraction of
w itself, so that half-integer units like (1+sqrt(5))/2 appear directly in
the integral basis.  Pell's four equations x^2 - m y^2 = +-1, +-4 are
solved from the same unit stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .arith import MAX_PERIOD, PeriodOverflow
from .quadring import QuadInt, QuadraticField, unit_inverse


def torsion_order(field: QuadraticField) -> int:
    """w, the number of roots of unity: 4 for m=-1, 6 for m=-3, else 2."""
    if field.m == -1:
        return 4
    if field.m == -3:
        return 6
    return 2


def torsion_generator(field: QuadraticField) -> QuadInt:
    """Deterministic generator: the root of unity of smallest positive
    argument (i for m=-1, (1+sqrt(-3))/2 for m=-3, -1 otherwise)."""
    if field.m == -1:
        return field.integer(0, 1)
    if field.m == -3:
        return field.integer(0, 1)  # (1+sqrt(-3))/2 in the half basis
    return field.integer(-1, 0)


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
# continued fractions and the fundamental unit
# ---------------------------------------------------------------------------

def _cf_state(field: QuadraticField) -> tuple[int, int]:
    # w = (P + sqrt(m))/Q with Q | m - P^2
    return (1, 2) if field.half else (0, 1)


def _cf_steps(field: QuadraticField):
    """Exact partial-quotient stream of w via the (P, Q) recurrence."""
    m = field.m
    s = math.isqrt(m)
    p, q = _cf_state(field)
    while True:
        a = (p + s) // q
        yield a, (p, q)
        p = a * q - p
        q2, r = divmod(m - p * p, q)
        if r or q2 <= 0:
            raise ArithmeticError("the (P, Q) recurrence preserves divisibility and Q > 0")
        q = q2


def continued_fraction_of_omega(field: QuadraticField, max_period: int = 10**6):
    """Partial quotients of w through one full period, plus the period length.

    Periodicity is detected by repetition of the exact (P, Q) state.
    """
    if field.m < 0:
        raise ValueError("continued fraction of w needs a real field")
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    for i, (a, state) in enumerate(_cf_steps(field)):
        if state in seen:
            start = seen[state]
            return quotients[: i], i - start
        seen[state] = i
        quotients.append(a)
        if i > max_period:
            raise PeriodOverflow(f"period exceeds cap {max_period}")
    raise ArithmeticError("unreachable")


# bounded: a unit of a field with a long period runs to thousands of digits
@functools.lru_cache(maxsize=1024)
def fundamental_unit(field: QuadraticField, max_period: int = MAX_PERIOD) -> QuadInt:
    """The unit lam > 1 with U(R) = {+-lam^k}, from the first convergent
    p/q of w making p - q*w a unit; lam is its large conjugate.

    N(p_(k-1) - q_(k-1)*w) = +-Q_k/Q_0 for the complete quotients
    (P_k + sqrt(m))/Q_k of w, so the first unit is the convergent before
    the first return of Q to Q_0; its norm is checked exactly.  lam has
    O(period) digits and building it costs O(period^2), so a period over
    max_period raises PeriodOverflow (10^5 steps give 57,000 digits in 1-2 s).
    """
    if field.m < 0:
        raise ValueError("imaginary quadratic fields have no fundamental unit")
    q0 = _cf_state(field)[1]
    h0, h1, k0, k1 = 0, 1, 1, 0
    for steps, (a, (_, q)) in enumerate(_cf_steps(field)):
        if steps and q == q0:
            lam = field.integer(h1, -k1).conj()
            if lam.sign_real() < 0:
                lam = -lam
            if not lam.is_unit() or (lam - field.integer(1)).sign_real() <= 0:
                raise ArithmeticError(f"{lam} is not a unit above 1")
            return lam
        if steps >= max_period:
            raise PeriodOverflow(f"period exceeds cap {max_period}")
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
    raise ArithmeticError("unreachable")


@dataclass(frozen=True)
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

@dataclass(frozen=True)
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


def regulator_mp(field: QuadraticField, dps: int = 50):
    """log(lam) as an mpmath value (1 when the rank is 0)."""
    import mpmath

    if field.m < 0:
        return mpmath.mpf(1)
    lam = fundamental_unit(field)
    with mpmath.workdps(dps + 10):
        return mpmath.log(lam.mp_value(dps + 10))


def unit_group_report(field: QuadraticField, precision: int = 50) -> UnitGroupReport:
    import mpmath

    rank = 1 if field.m > 0 else 0
    lam = fundamental_unit(field) if rank else None
    if rank:
        with mpmath.workdps(precision + 10):
            reg = mpmath.nstr(regulator_mp(field, precision), precision)
    else:
        reg = "1"
    return UnitGroupReport(
        field, torsion_order(field), torsion_generator(field), rank, lam, reg, precision
    )


def unit_membership(field: QuadraticField, u: QuadInt):
    """The unique (k, a) with u = g^k * lam^a, g the torsion generator.

    a is forced to 0 when the rank is 0; the decomposition is located by
    logarithms and then confirmed by exact recomposition.
    """
    import mpmath

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
    lam = fundamental_unit(field)
    with mpmath.workdps(60):
        a = int(mpmath.nint(mpmath.log(abs(v.mp_value(60))) / mpmath.log(lam.mp_value(60))))
    for cand in (a, a - 1, a + 1):
        if _unit_power(field, lam, cand) == v:
            return k, cand
    raise ArithmeticError("log-rounded exponent must be exact within +-1")


def _unit_power(field: QuadraticField, lam: QuadInt, a: int) -> QuadInt:
    if a >= 0:
        return lam**a
    return unit_inverse(lam) ** (-a)
