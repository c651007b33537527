"""Certified real numbers: pi, logarithms of units, their printed decimals
and the Minkowski bound.

Every printed real of the quadratic side (the regulator, the census
densities, the Minkowski constant) is computed here in integer fixed point
and rounded once, when `nstr` writes it.  A value is an int scaled by a
power of ten, carried with at least ten guard digits past the digits it
prints: `pi_scaled` from Machin's formula, square roots from math.isqrt,
and `ln_unit_scaled`, the logarithm of a real quadratic unit, as
e ln 2 + ln f for 2^e f with 1 <= f < 2, f taken down by square roots
before an atanh series, and ln 2 from a Machin-like atanh formula (Brent,
Fast multiple-precision evaluation of elementary functions, JACM 1976),
every series one truncated loop, `_series`.  `nstr` writes an (int,
decimal exponent) pair as mpmath.nstr writes a float.

A rational bound is a (numerator, denominator) pair of ints.
`floor_of_root_quotient` pins floor(mult*sqrt(n)/x) from one integer square
root at each bound of x, and with the stored pi bounds it certifies the
Minkowski floor of an imaginary quadratic field, whose printed upper bound
is such a pair in lowest terms; so no request that prints a real loads
`decimal` or `fractions`.  A split or a factorization never needs any of this, so arith
and quadring leave it here, and their old names for it still resolve.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import CertificateNotFound, record

# pi to 100 decimals, truncated.  The pi bounds PI_DIGITS/10^100 and
# (PI_DIGITS + 1)/10^100 pin the Minkowski floor of 2 sqrt|d| / pi unless
# the quotient is within a relative 10**-100 of an integer; _PI_LO, the
# 11-decimal truncation, divides the printed upper bound.
PI_DIGITS = 31415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679
_PI_BOUNDS = ((PI_DIGITS, 10**100), (PI_DIGITS + 1, 10**100))  # (numerator, denominator)
_PI_LO = (PI_DIGITS // 10**89, 10**11)


def floor_of_root_quotient(mult: int, n: int, den_lo, den_hi) -> int:
    """Exact floor(mult*sqrt(n)/x) for mult, n >= 0, given rational bounds
    0 < den_lo < x < den_hi, each a (numerator, denominator) pair.

    floor(mult*sqrt(n)/(p/q)) = isqrt(mult^2 q^2 n) // p exactly, so the
    floors at the two bounds pin the answer when they agree; otherwise
    CertificateNotFound is raised.
    """
    lo, hi = (math.isqrt(mult * mult * q * q * n) // p for p, q in (den_hi, den_lo))
    if lo != hi:
        raise CertificateNotFound(
            f"floor of {mult}*sqrt({n})/x is {lo} at x = {_ratio_text(*den_hi)} but {hi} at x = {_ratio_text(*den_lo)}")
    return lo


def _ratio_text(p: int, q: int) -> str:
    """p/q in lowest terms as str(Fraction(p, q)) writes it."""
    g = math.gcd(p, q)
    return f"{p // g}" if q == g else f"{p // g}/{q // g}"


# ---------------------------------------------------------------------------
# fixed point: pi and the logarithm of a unit
# ---------------------------------------------------------------------------

def _series(term: int, num: int, den: int, sign: int) -> int:
    """sum_k sign^k t_k // (2k + 1), t_0 = term and t_(k+1) = t_k num // den: atan(y) (sign -1) or atanh(y)
    (sign 1) in fixed point with unit `one` when term = y one and num / den = y^2, each term truncated."""
    total, n, s = term, 1, 1
    while term:
        term = term * num // den
        n, s = n + 2, s * sign
        total += s * (term // n)
    return total


def _arctan_inverse(x: int, one: int, sign: int) -> int:
    """atan(1/x) for sign = -1 and atanh(1/x) for sign = 1 in fixed point with unit `one`."""
    return _series(one // x, 1, x * x, sign)


def _machin(one: int) -> int:
    """pi in fixed point with unit `one` by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239), within a few units."""
    return 16 * _arctan_inverse(5, one, -1) - 4 * _arctan_inverse(239, one, -1)


def pi_scaled(places: int) -> int:
    """pi * 10^places within 1, from Machin's formula with ten guard digits."""
    return _machin(10 ** (places + 10)) // 10**10


@lru_cache(maxsize=8)
def _ln2(bits: int) -> int:
    """ln 2 * 2^bits, truncated: 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749)
    with 16 guard bits, kept per working precision."""
    one = 1 << (bits + 16)
    return (18 * _arctan_inverse(26, one, 1) - 2 * _arctan_inverse(4801, one, 1)
            + 8 * _arctan_inverse(8749, one, 1)) >> 16


def ln_unit_scaled(u: int, v: int, m: int, places: int) -> int:
    """ln((u + v sqrt(m))/2) * 10^places, within 2, for u, v >= 0 and m > 0
    with (u + v sqrt(m))/2 >= 1.

    Works in binary fixed point with `bits` fraction bits, enough for the
    decimals, the error of r square roots and of e ln 2.  u and v are first
    shifted right by the same s bits, keeping bits + log2(m) + 8 of the
    larger, so a unit of thousands of digits costs what one of bits does.
    lambda = 2^e f with 1 <= f < 2; f^(2^-r) = (1 + z)/(1 - z) after r
    square roots, and ln f = 2^(r + 1) atanh(z), z < 2^-(r + 1).
    """
    size = max(u.bit_length(), v.bit_length())
    roots = math.isqrt(places) + 2
    bits = places * 3322 // 1000 + (size + m.bit_length()).bit_length() + roots + 32
    s = max(0, size - bits - m.bit_length() - 8)
    y = (u >> s << bits) + math.isqrt((v >> s) ** 2 * m << 2 * bits)  # 2 lambda 2^(bits - s)
    n = y.bit_length() - 1
    f = y >> (n - bits) if n >= bits else y << (bits - n)  # f 2^bits, lambda = f 2^(n + s - bits - 1)
    one = 1 << bits
    for _ in range(roots):
        f = math.isqrt(f << bits)
    z = ((f - one) << bits) // (f + one)
    ln = (n + s - bits - 1) * _ln2(bits) + (_series(z, z * z >> bits, one, 1) << (roots + 1))
    return ln * 10**places >> bits


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def nstr(x, n: int) -> str:
    """x to n significant digits as mpmath.nstr(x, n) writes it: rounded
    half up, in fixed point when min(-(n // 3), -5) < exponent < n, with
    trailing zeros stripped but one kept after the point, and otherwise
    with an exponent e+N or e-N.  x is a pair (mantissa, exponent) of ints
    standing for mantissa * 10^exponent."""
    mantissa, exponent = x
    if not mantissa:
        return "0.0"
    y = abs(mantissa)
    extra = len(str(y)) - n
    if extra > 0:  # round half up to n digits
        y, r = divmod(y, 10**extra)
        exponent += extra
        if 2 * r >= 10**extra:
            y += 1
            if y == 10**n:
                y, exponent = y // 10, exponent + 1
    digits = str(y)
    exponent, point = exponent + len(digits) - 1, 1
    digits = digits.ljust(n, "0")
    if min(-(n // 3), -5) < exponent < n:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            point = exponent + 1
        exponent = 0
    text = ("-" if mantissa < 0 else "") + (digits[:point] + "." + digits[point:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    return text + (f"e{exponent:+d}" if exponent else "")


# ---------------------------------------------------------------------------
# the Minkowski bound of a quadratic field
# ---------------------------------------------------------------------------

@record
class MinkowskiBound:
    floor: int                # largest integer norm the bound admits
    upper: tuple[int, int]    # certified upper bound for the constant, in lowest terms
    decimal: str

    def to_json_dict(self):
        return {
            "floor": str(self.floor),
            "upper_bound": "{}/{}".format(*self.upper),
            "decimal": self.decimal,
        }


def minkowski_floor(field) -> int:
    """The Minkowski floor of a quadring.QuadraticField."""
    ad = abs(field.d)
    if field.m > 0:
        return math.isqrt(ad) // 2
    return floor_of_root_quotient(2, ad, *_PI_BOUNDS)


def minkowski_bound(field) -> MinkowskiBound:
    """(n!/n^n)(4/pi)^s sqrt|d| for n = 2: sqrt|d|/2 (real), 2 sqrt|d|/pi
    (imaginary).  The integer floor is certified with exact pi bounds, the
    upper bound is hi/2 or 2 hi/_PI_LO for sqrt|d| < hi = (isqrt(|d| 10^80) + 1)/10^40,
    and the 30-digit decimal is written from 50 places."""
    ad = abs(field.d)
    hi = math.isqrt(ad * 10**80) + 1
    places = 50
    root = math.isqrt(ad * 100**places)  # sqrt|d| 10^places, truncated
    if field.m > 0:
        p, q, value = hi, 2 * 10**40, root // 2
    else:
        p, q, value = 2 * hi * _PI_LO[1], 10**40 * _PI_LO[0], 2 * root * 10**places // pi_scaled(places)
    g = math.gcd(p, q)
    return MinkowskiBound(minkowski_floor(field), (p // g, q // g), nstr((value, -places), 30))
