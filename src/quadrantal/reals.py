"""Certified real numbers: pi, the printed decimals and the Minkowski bound.

The printed decimals of the package come from one small core on the
standard `decimal` module (which `fractions` loads anyway): `pi_decimal`
from Machin's formula in integers, `ln_unit` for the logarithm of a real
quadratic unit, and `nstr`, which writes a Decimal as mpmath.nstr writes a
float.  `floor_of_root_quotient` pins floor(mult*sqrt(n)/x) from one
integer square root at each rational bound of x, and with the stored pi
bounds it certifies the Minkowski floor of an imaginary quadratic field.
A split or a factorization never needs any of it, so arith and quadring
leave it here, and their old names for it still resolve (PEP 562).
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction

from .arith import CertificateNotFound, record

# pi to 100 decimals, truncated.  PI_BOUNDS pin the Minkowski floor of
# 2 sqrt|d| / pi unless the quotient is within a relative 10**-100 of an
# integer; PI_LO, the 11-decimal truncation, divides the printed upper bound.
PI_DIGITS = 31415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679
PI_BOUNDS = (Fraction(PI_DIGITS, 10**100), Fraction(PI_DIGITS + 1, 10**100))
PI_LO = Fraction(PI_DIGITS // 10**89, 10**11)


def floor_of_root_quotient(mult: int, n: int, den_lo: Fraction, den_hi: Fraction) -> int:
    """Exact floor(mult*sqrt(n)/x) for mult, n >= 0, given rational bounds
    0 < den_lo < x < den_hi.

    floor(mult*sqrt(n)/(p/q)) = isqrt(mult^2 q^2 n) // p exactly, so the
    floors at the two bounds pin the answer when they agree; otherwise
    CertificateNotFound is raised.
    """
    lo, hi = (math.isqrt(mult * mult * b.denominator**2 * n) // b.numerator
              for b in (den_hi, den_lo))
    if lo != hi:
        raise CertificateNotFound(
            f"floor of {mult}*sqrt({n})/x is {lo} at x = {den_hi} but {hi} at x = {den_lo}")
    return lo


# ---------------------------------------------------------------------------
# decimals
# ---------------------------------------------------------------------------

def _arctan_inverse(x: int, one: int) -> int:
    """atan(1/x) in fixed point with unit `one`, each term truncated."""
    term = total = one // x
    x2, n = x * x, 1
    while term:
        term //= x2
        n += 2
        total += -(term // n) if n % 4 == 3 else term // n
    return total


def pi_decimal(digits: int) -> Decimal:
    """pi to `digits` significant digits, from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in integers with ten guard digits."""
    one = 10 ** (digits + 10)
    scaled = 16 * _arctan_inverse(5, one) - 4 * _arctan_inverse(239, one)
    return Decimal(scaled).scaleb(-(digits + 10), Context(prec=digits))


def ln_unit(u: int, v: int, m: int, digits: int) -> Decimal:
    """ln((u + v sqrt(m))/2) to `digits` significant digits, for u, v >= 0
    and m > 0 with (u + v sqrt(m))/2 >= 1.

    Decimal(int) is quadratic in the digits of the int, so u and v are
    shifted right by the same s bits, keeping about 4 (digits + 10) + 64
    of them, and s ln 2 is added back."""
    s = max(0, max(u.bit_length(), v.bit_length()) - 4 * (digits + 10) - 64)
    with localcontext(Context(prec=digits + 5)):
        x = (Decimal(u >> s) + Decimal(v >> s) * Decimal(m).sqrt()) / 2
        out = x.ln() + s * Decimal(2).ln() if s else x.ln()
    return Context(prec=digits).plus(out)


def nstr(x: Decimal, n: int) -> str:
    """x to n significant digits as mpmath.nstr(x, n) writes it: rounded
    half up, in fixed point when min(-(n // 3), -5) < exponent < n, with
    trailing zeros stripped but one kept after the point, and otherwise
    with an exponent e+N or e-N."""
    if not x:
        return "0.0"
    y = Context(prec=n, rounding=ROUND_HALF_UP).plus(x.copy_abs())
    digits = "".join(map(str, y.as_tuple().digits)).ljust(n, "0")
    exponent, point = y.adjusted(), 1
    if min(-(n // 3), -5) < exponent < n:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            point = exponent + 1
        exponent = 0
    text = ("-" if x < 0 else "") + (digits[:point] + "." + digits[point:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    return text + (f"e{exponent:+d}" if exponent else "")


# ---------------------------------------------------------------------------
# the Minkowski bound of a quadratic field
# ---------------------------------------------------------------------------

@record
class MinkowskiBound:
    floor: int          # largest integer norm the bound admits
    upper: Fraction     # certified rational upper bound for the constant
    decimal: str

    def to_json_dict(self):
        return {
            "floor": str(self.floor),
            "upper_bound": f"{self.upper.numerator}/{self.upper.denominator}",
            "decimal": self.decimal,
        }


def minkowski_floor(field) -> int:
    """The Minkowski floor of a quadring.QuadraticField."""
    ad = abs(field.d)
    if field.m > 0:
        return math.isqrt(ad) // 2
    return floor_of_root_quotient(2, ad, *PI_BOUNDS)


def minkowski_bound(field, precision: int = 30) -> MinkowskiBound:
    """(n!/n^n)(4/pi)^s sqrt|d| for n = 2: sqrt|d|/2 (real), 2 sqrt|d|/pi
    (imaginary).  The integer floor is certified with exact pi bounds."""
    ad = abs(field.d)
    hi = Fraction(math.isqrt(ad * 10**80) + 1, 10**40)
    if field.m > 0:
        upper = hi / 2
    else:
        upper = 2 * hi / PI_LO
    digits = precision + 10
    with localcontext(Context(prec=digits)):
        root = Decimal(ad).sqrt()
        val = root / 2 if field.m > 0 else 2 * root / pi_decimal(digits)
    return MinkowskiBound(minkowski_floor(field), upper, nstr(val, precision))
