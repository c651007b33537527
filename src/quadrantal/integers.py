"""The integer core: the caps, the exception classes, primality,
factorization, `power` and `record`.

This is all that the polynomial side (polynomial, numberfield, cyclotomic)
takes from the rational integers, so a poly, field or cyclo request compiles
none of the quadratic-residue code in quadrantal.arith, which re-exports
every name here.  Everything is exact, in Python ints.  Factorization is
honest trial division up to a fixed bound; inputs that cannot be certified
within the bound raise instead of guessing.  `power` is the one
square-and-multiply of the package, for elements, polynomials and ideals
alike.  `record` makes the frozen report classes, and `Frozen` is the one
slotted base of the value classes (QuadraticField, QuadInt, QuadIdeal,
Poly, FieldElement); both refuse setting and deleting an attribute alike.
"""

from __future__ import annotations

import operator

# Trial-division bound shared by every factorization in the package.
FACTOR_BOUND = 10**6

# Cap on the entries of any table sized by an input (a list of this many
# ints is about 800 MB); larger requests raise before allocating.
MAX_TABLE = 10**8

# Cap on the decimal digits QUADRANTAL_PRECISION may ask of a printed value:
# a logarithm at 1,015 digits takes about 20 ms, at 5,000 digits almost 2 s.
MAX_PRECISION = 1000

# Cap on the steps of a continued-fraction period or rho-cycle walk: the
# fundamental unit of such a period has about 57,000 digits (1-2 s).
MAX_PERIOD = 10**5


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


# ---------------------------------------------------------------------------
# records and values
# ---------------------------------------------------------------------------

def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


class Frozen:
    """Base of the slotted value classes: __init__ sets each slot once with
    object.__setattr__, and setting or deleting one later raises."""

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen


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

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
