"""Rational-integer helpers of the quadratic side: sieves, square-freeness,
the extended gcd, the Kronecker symbol and square roots modulo a prime.

Everything here is exact, in Python ints.  `kronecker` is the one
chi_d(q) = (d/q), Euler's criterion included, of the splitting law, sqrt_mod
and the census.  The integer core (the caps, the exception classes,
`is_prime`, `factorize`, `power` and `record`) is in quadrantal.integers,
which the polynomial side imports alone; every name of it resolves here
too.  The printed reals, the pi bounds and the exact root floors are in
quadrantal.reals, and their names still resolve here on first use, through
the package's one forwarder, quadrantal._forward.
"""

from __future__ import annotations

import itertools
import math

from . import _forward
from .integers import (  # noqa: F401 (re-exported)
    FACTOR_BOUND, MAX_PERIOD, MAX_PRECISION, MAX_TABLE, CertificateNotFound, FactorBoundExceeded, Frozen,
    NotSquareFree, PeriodOverflow, SquareFreeUnverified, factorize, is_prime, power, record,
)


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


# the names that moved to reals, resolved on first use (PEP 562)
__getattr__ = _forward(globals(), dict.fromkeys(
    "PI_DIGITS PI_BOUNDS PI_LO floor_of_root_quotient _arctan_inverse pi_decimal ln_unit nstr".split(), "reals"))
