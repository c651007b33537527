"""Exact univariate polynomials over Q (and over Z as a special case).

A polynomial is an immutable tuple of Fractions indexed by degree, with the
zero polynomial stored as the empty tuple and no trailing zeros ever kept,
so structural equality is mathematical equality.  Arithmetic is exact; no
floats enter anywhere.

Two text encodings round-trip:

    dense text   "c0 + c1*x + c2*x^2"      (coefficients as int or num/den)
    JSON array   ["c0", "c1", ..., "cn"]   (decimal strings, arbitrary size)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .arith import MAX_TABLE, factorize, is_prime


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"bad coefficient {c!r}")


class Poly:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = _coerce(c)
        return Poly([c * a for a in self.coeffs])

    def shift_compose(self, c) -> "Poly":
        """p(x + c), by Horner on the shifted variable."""
        c = _coerce(c)
        out = Poly()
        xc = Poly([c, 1])
        for a in reversed(self.coeffs):
            out = out * xc + Poly([a])
        return out

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        out = 0 * x
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return self if lead == 1 else Poly([c / lead for c in self.coeffs])

    # -- encodings ---------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)

    def to_json_array(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json_array(cls, arr) -> "Poly":
        return cls([Fraction(str(c)) for c in arr])

    @classmethod
    def from_text(cls, s: str) -> "Poly":
        s = s.strip()
        if s in ("", "0"):
            return cls()
        # normalize "a - b" to "a + -b" so splitting on '+' is safe
        s = re.sub(r"(?<=[0-9x)])\s*-\s*", " + -", s)
        coeffs: dict[int, Fraction] = {}
        for term in s.split("+"):
            term = term.replace(" ", "")
            if not term:
                continue
            # a lone "-" is the coefficient -1 of an x term: "-x", "-x^3"
            m = re.fullmatch(r"(-?\d+(?:/\d+)?|-(?=\*?x))?(?:\*?(x)(?:\^(\d+))?)?", term)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ValueError(f"cannot parse polynomial term {term!r}")
            c = Fraction(m.group(1)) if m.group(1) not in (None, "-") else (
                Fraction(-1) if m.group(1) == "-" else Fraction(1)
            )
            k = 0 if m.group(2) is None else (1 if m.group(3) is None else int(m.group(3)))
            coeffs[k] = coeffs.get(k, Fraction(0)) + c
        n = max(coeffs) + 1
        if n > MAX_TABLE:
            raise ValueError(f"degree {n - 1} is over the cap of {MAX_TABLE} coefficients")
        return cls([coeffs.get(i, Fraction(0)) for i in range(n)])

    def __repr__(self):
        return f"Poly({self.to_text()})"


X = Poly([0, 1])


def poly_divmod(dividend: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder in Q[x].

    dividend = q*divisor + r with r = 0 or deg r < deg divisor.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("polynomial division by zero polynomial")
    q = [Fraction(0)] * max(0, dividend.degree - divisor.degree + 1)
    rem = list(dividend.coeffs)
    d = divisor.degree
    lead = divisor.coeffs[-1]
    for i in range(len(rem) - 1 - d, -1, -1):
        f = rem[i + d] / lead
        if f:
            q[i] = f
            for j, b in enumerate(divisor.coeffs):
                rem[i + j] -= f * b
        rem[i + d] = Fraction(0)
    return Poly(q), Poly(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[x] by the Euclidean algorithm, normalizing each step."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
        if not b.is_zero():
            b = b.monic()
    return a.monic()


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns (g, s, t) monic g with s*a + t*b = g."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = Poly([1]), Poly()
    t0, t1 = Poly(), Poly([1])
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.coeffs[-1]
    inv = 1 / lead
    return r0.monic(), s0.scale(inv), t0.scale(inv)


def content_and_primitive_part(p: Poly) -> tuple[int, Poly]:
    """Split an integer polynomial as content * primitive part.

    The content is the positive gcd of the coefficients; the sign stays on
    the primitive part, so content * primitive == p exactly.
    """
    if p.is_zero():
        raise ValueError("content of the zero polynomial is undefined")
    if not p.is_integral():
        raise ValueError("content requires integer coefficients")
    g = math.gcd(*(int(c) for c in p.coeffs))
    return g, Poly([int(c) // g for c in p.coeffs])


def eisenstein_witness(p: Poly):
    """A prime certifying irreducibility by Eisenstein's criterion, or None.

    Only primes dividing the constant term can qualify, so the search over
    them is complete.  Absence of a witness proves nothing.
    """
    if p.degree < 1:
        raise ValueError("Eisenstein needs a nonconstant polynomial")
    if not p.is_integral():
        raise ValueError("Eisenstein needs integer coefficients")
    a0 = int(p.coeffs[0])
    if a0 == 0:
        return None
    lead = int(p.coeffs[-1])
    for q, _ in factorize(a0):
        if lead % q == 0:
            continue
        if a0 % (q * q) == 0:
            continue
        if all(int(c) % q == 0 for c in p.coeffs[:-1]):
            return q
    return None


def cyclotomic_poly_prime(p: int) -> Poly:
    """The p-th cyclotomic polynomial 1 + x + ... + x^(p-1) for prime p; its
    p coefficients are capped at MAX_TABLE."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > MAX_TABLE:
        raise ValueError(f"Phi_{p} has {p} coefficients, over the cap {MAX_TABLE}")
    return Poly([1] * p)


def squarefree_part(p: Poly) -> Poly:
    """p with repeated factors removed: p / gcd(p, p'), made monic."""
    if p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    g = poly_gcd(p, p.derivative())
    q, r = poly_divmod(p, g)
    if not r.is_zero():
        raise ArithmeticError("gcd(p, p') does not divide p")
    return q.monic()
