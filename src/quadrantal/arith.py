"""Rational-integer helpers shared by the rest of the package.

Everything here is exact: Python ints throughout, Fractions where a value
is genuinely rational.  Factorization is honest trial division up to a
fixed bound; inputs that cannot be certified within the bound raise
instead of guessing.  `kronecker` is the one chi_d(q) = (d/q), Euler's
criterion included, of the splitting law, sqrt_mod and the census.  `power`
is the one square-and-multiply of the package, for elements, polynomials
and ideals alike, and `floor_of_root_quotient` pins floor(mult*sqrt(n)/x)
from one integer square root at each rational bound of x.

The printed decimals of the package come from one small core on the
standard `decimal` module (which `fractions` loads anyway): `pi_decimal`
from Machin's formula in integers, `ln_unit` for the logarithm of a real
quadratic unit, and `nstr`, which writes a Decimal as mpmath.nstr writes
a float.  `record` makes the frozen report classes.
"""

from __future__ import annotations

import itertools
import math
import operator
from decimal import ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction

# Trial-division bound shared by every factorization in the package.
FACTOR_BOUND = 10**6

# Cap on the entries of any table sized by an input (a list of this many
# ints is about 800 MB); larger requests raise before allocating.
MAX_TABLE = 10**8

# Cap on the decimal digits QUADRANTAL_PRECISION may ask of a printed value:
# a logarithm at 1,015 digits takes about 20 ms, at 5,000 digits almost 2 s.
MAX_PRECISION = 1000

# pi to 100 decimals, truncated.  PI_BOUNDS pin the Minkowski floor of
# 2 sqrt|d| / pi unless the quotient is within a relative 10**-100 of an
# integer; PI_LO, the 11-decimal truncation, divides the printed upper bound.
PI_DIGITS = 31415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679
PI_BOUNDS = (Fraction(PI_DIGITS, 10**100), Fraction(PI_DIGITS + 1, 10**100))
PI_LO = Fraction(PI_DIGITS // 10**89, 10**11)


class FactorBoundExceeded(ValueError):
    """An integer could not be factored by trial division within FACTOR_BOUND."""


class NotSquareFree(ValueError):
    """The given integer has a square factor."""


class SquareFreeUnverified(ValueError):
    """Square-freeness could not be certified within the trial-division bound."""


class PeriodOverflow(ValueError):
    """A continued-fraction period or rho-cycle exceeded the requested cap."""


class CertificateNotFound(ValueError):
    """A bounded search (a shift, a working precision) or a pair of rational
    bounds ended before it could certify its answer."""


# Cap on the steps of a continued-fraction period or rho-cycle walk: the
# fundamental unit of such a period has about 57,000 digits (1-2 s).
MAX_PERIOD = 10**5


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit (and far larger) inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_sieve(n: int) -> bytearray:
    """flags[i] = 0xFF when 2 i + 1 <= n is prime, else 0: a sieve of the odd
    numbers only.  A flag of all ones masks a byte by AND."""
    size = (n + 1) // 2  # flags[i] stands for 2 i + 1
    flags = bytearray([255]) * size
    if size:
        flags[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if flags[i]:
            # the odd multiples of p = 2 i + 1 from p^2 = 2 (2 i^2 + 2 i) + 1
            start = 2 * i * (i + 1)
            flags[start :: 2 * i + 1] = bytes(len(range(start, size, 2 * i + 1)))
    return flags


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by the odd sieve, n up to MAX_TABLE."""
    if n < 2:
        return []
    if n + 1 > MAX_TABLE:
        raise ValueError(f"a sieve up to {n} needs {n + 1} entries, over the cap {MAX_TABLE}")
    return [2, *itertools.compress(range(1, n + 1, 2), odd_sieve(n))]


def factorize(n: int, bound: int = FACTOR_BOUND) -> list[tuple[int, int]]:
    """Factor |n| > 0 into sorted (prime, exponent) pairs by trial division.

    A residual cofactor above the bound is accepted only when it is itself
    certified prime; otherwise FactorBoundExceeded is raised.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out = []
    d = 2
    while d * d <= n and d <= bound:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        if n <= bound * bound or is_prime(n):
            out.append((n, 1))
        else:
            raise FactorBoundExceeded(f"residual cofactor {n} exceeds trial-division bound")
    return out


def check_square_free(m: int, bound: int = FACTOR_BOUND) -> None:
    """Certify that m is square-free, or raise.

    Trial division up to `bound`; a residual cofactor r with all prime
    factors > bound is square-free iff it is not a perfect square, provided
    r <= bound**3 (at most two prime factors).  Beyond that we refuse to
    guess and raise SquareFreeUnverified.
    """
    n = abs(m)
    if n == 0:
        raise NotSquareFree("0 is not square-free")
    if n == 1:
        return
    d = 2
    while d * d <= n and d <= bound:
        if n % d == 0:
            n //= d
            if n % d == 0:
                raise NotSquareFree(f"{m} is divisible by {d}**2")
        d += 1 if d == 2 else 2
    if n > 1 and n > bound:
        r = math.isqrt(n)
        if r * r == n:
            raise NotSquareFree(f"{m} has square factor {r}**2")
        if n > bound**3:
            raise SquareFreeUnverified(
                f"cannot certify square-freeness of {m} within bound {bound}"
            )


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def kronecker(d: int, q: int) -> int:
    """The Kronecker symbol chi_d(q) = (d/q) for a prime q, with d = 0 or 1
    mod 4 when q = 2: 0 when q | d, else 1 or -1 as d is or is not a square
    mod q, by d mod 8 for q = 2 and Euler's criterion for odd q."""
    if q == 2:
        return d % 2 and (1 if d % 8 == 1 else -1)
    r = pow(d, q >> 1, q)
    return r if r < 2 else -1


def sqrt_mod(a: int, q: int) -> int:
    """A square root of a modulo a prime q; a must be a residue.

    Euler's x = a^((q+1)/4) when q = 3 mod 4, Tonelli-Shanks otherwise
    (Cohen GTM 138, Alg. 1.5.1); the result is the smaller of the two roots,
    making callers deterministic.
    """
    a %= q
    if a == 0 or q == 2:
        return a
    if kronecker(a, q) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {q}")
    if q % 4 == 3:
        x = pow(a, (q + 1) // 4, q)
        return min(x, q - x)
    # Tonelli-Shanks
    s, d = 0, q - 1
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while kronecker(z, q) == 1:
        z += 1
    c = pow(z, d, q)
    x = pow(a, (d + 1) // 2, q)
    t = pow(a, d, q)
    m = s
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        t = t * b * b % q
        c = b * b % q
        m = i
    return min(x, q - x)


def power(x, k: int, one, mul=operator.mul):
    """x**k for k >= 0 by square-and-multiply from `one`, squaring only while
    bits of k remain: at most 2 k.bit_length() calls of mul."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


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
# decimals and records
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


def record(cls=None, *, hidden=()):
    """Class decorator for a frozen record of the annotated fields, in order.

    It adds an __init__ that takes the fields by position or keyword (a
    class attribute is a field's default), and __eq__, __hash__ and
    __repr__ field by field over the fields not `hidden`.  Setting or
    deleting an attribute raises AttributeError.
    """
    if cls is None:
        return lambda c: record(c, hidden=hidden)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    shown = tuple(n for n in names if n not in hidden)
    key = operator.attrgetter(*shown)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(values) < len(names):
            missing = [n for n in names if n not in values]
            raise TypeError(f"{cls.__name__}() is missing {', '.join(missing)}")
        self.__dict__.update(values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    def frozen(self, name, *value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set or delete {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = frozen
    return cls
