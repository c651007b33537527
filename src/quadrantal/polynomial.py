"""Exact univariate polynomials over Q (and over Z as a special case).

A polynomial is an immutable tuple of coefficients indexed by degree, with
the zero polynomial stored as the empty tuple and no trailing zeros ever
kept.  A coefficient is an `int` when its value is an integer and a
`fractions.Fraction` otherwise, never a float, so structural equality is
mathematical equality and integer polynomials run on machine-speed ints.
Every quotient goes through `exact_div`, which stays an `int` when the
division is exact.  `fractions` is imported only when a value first leaves
the integers: work that stays in Z loads neither it nor the `decimal` and
`numbers` modules it imports.

Every gcd, squarefreeness included, is Brown's modular gcd on one kernel,
Euclid over GF(p) on int lists (Brown 1971; von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 6): degree 0 modulo one prime proves two
inputs coprime, and exact division certifies a CRT image of higher degree.

Two text encodings round-trip:

    dense text   "c0 + c1*x + c2*x^2"      (coefficients as int or num/den)
    JSON array   ["c0", "c1", ..., "cn"]   (decimal strings, arbitrary size)
"""

from __future__ import annotations

import math
import re

from .integers import MAX_TABLE, Frozen, factorize, is_prime, power


# the first prime of the modular gcd, which tries the primes below it next:
# the largest prime below 2^30, so that every residue is one CPython digit
SQUAREFREE_PRIME = 2**30 - 35

# Cap on the decimal exponent of a coefficient string such as '1e-5': the
# value of '1e-1000000' has a million-digit denominator.
MAX_EXPONENT = 1000

# the decimal exponent that ends a literal such as '1.5e-3', in Fraction's syntax
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")

_Fraction = None  # fractions.Fraction, once _fraction has imported it


def _fraction():
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction


def coefficient(c):
    """c as a coefficient: an int when its value is an integer, else a
    Fraction.  Accepts int, Fraction and decimal or num/den strings; a
    float is refused.  A plain ASCII integer literal ('-12', '007') is read
    by int and any other string by Fraction, so only a value that is not an
    int imports `fractions`.  A string that ends in a decimal exponent of
    more than MAX_EXPONENT, up or down, raises ValueError."""
    if type(c) is int:
        return c
    if isinstance(c, str):
        digits = c[1:] if c[:1] in ("-", "+") else c
        if digits.isdigit() and digits.isascii():
            return int(c)
        exponent = _EXPONENT.search(c)
        if exponent:
            e = exponent[1].replace("_", "").lstrip("0")  # int() of a long string is slow
            if len(e) > 30 or int(e or 0) > MAX_EXPONENT:
                raise ValueError(f"{c.strip()!r} has an exponent beyond the cap of {MAX_EXPONENT}")
    Fraction = _Fraction or _fraction()
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, (int, str)):
        return coefficient(Fraction(c))
    raise TypeError(f"bad coefficient {c!r}")


def exact_div(a, b):
    """a / b for int or Fraction a and b: an int when the quotient is an
    integer, else a Fraction.  Two ints never meet in a float division, and
    only an inexact quotient imports `fractions`."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return (_Fraction or _fraction())(a, b) if r else q
    return coefficient(a / b)  # a Fraction on at least one side


class Poly(Frozen):
    """Dense univariate polynomial over Q: each coefficient is an int when
    integral, else a Fraction (see `coefficient`)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else coefficient(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = coefficient(c)
        return Poly([c * a for a in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        return power(self, k, Poly([1]))

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
        return self if lead == 1 else Poly([exact_div(c, lead) for c in self.coeffs])

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
        return cls([str(c) for c in arr])

    @classmethod
    def from_text(cls, s: str) -> "Poly":
        s = s.strip()
        if s in ("", "0"):
            return cls()
        # normalize "a - b" to "a + -b" so splitting on '+' is safe
        s = re.sub(r"(?<=[0-9x)])\s*-\s*", " + -", s)
        coeffs = {}  # degree -> coefficient
        for term in s.split("+"):
            term = term.replace(" ", "")
            if not term:
                continue
            # a lone "-" is the coefficient -1 of an x term: "-x", "-x^3"
            m = re.fullmatch(r"(-?\d+(?:/\d+)?|-(?=\*?x))?(?:\*?(x)(?:\^(\d+))?)?", term)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ValueError(f"cannot parse polynomial term {term!r}")
            c = coefficient(m.group(1)) if m.group(1) not in (None, "-") else (
                -1 if m.group(1) == "-" else 1
            )
            k = 0 if m.group(2) is None else (1 if m.group(3) is None else int(m.group(3)))
            coeffs[k] = coeffs.get(k, 0) + c
        n = max(coeffs) + 1
        if n > MAX_TABLE:
            raise ValueError(f"degree {n - 1} is over the cap of {MAX_TABLE} coefficients")
        return cls([coeffs.get(i, 0) for i in range(n)])

    def __repr__(self):
        return f"Poly({self.to_text()})"


def poly_divmod(dividend: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder in Q[x].

    dividend = q*divisor + r with r = 0 or deg r < deg divisor.  A monic
    divisor (a minimal polynomial) takes each quotient coefficient as the
    top remainder coefficient, with no exact_div.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("polynomial division by zero polynomial")
    d = divisor.degree
    if dividend.degree < d:
        return Poly(), dividend
    q = [0] * (dividend.degree - d + 1)
    rem = list(dividend.coeffs)
    lead, low = divisor.coeffs[-1], divisor.coeffs[:-1]
    for i in range(len(rem) - 1 - d, -1, -1):
        f = rem[i + d] if lead == 1 else exact_div(rem[i + d], lead)
        if f:
            q[i] = f
            rem[i : i + d] = [r - f * b for r, b in zip(rem[i : i + d], low)]
    return Poly(q), Poly(rem[:d])


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p), by Euclid, of the int lists a and b (constant
    term first), b nonzero mod p."""
    a, b = [c % p for c in a], [c % p for c in b]
    while not b[-1]:
        b.pop()
    while b:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        for i in range(len(a) - 1 - db, -1, -1):
            t = a[i + db] * inv % p
            if t:
                for j in range(db):
                    a[i + j] = (a[i + j] - t * b[j]) % p
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _primitive(cs) -> list[int]:
    """The ints and Fractions cs cleared of denominators and content."""
    den = math.lcm(*[c.denominator for c in cs])
    cs = [int(c * den) for c in cs] if den > 1 else cs
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else list(cs)


_ONE = Poly([1])  # the gcd of coprime inputs, built once


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[x] by Brown's modular algorithm: with A, B the primitive
    parts of a, b and gamma = gcd(lc A, lc B), gcd(A, B) mod a prime p not
    dividing gamma has at least the true degree, so degree 0 proves a, b
    coprime.  Primes run down from SQUAREFREE_PRIME; one of degree above the
    least seen is dropped, a lower one restarts the CRT, and a stable image of
    gamma * gcd(A, B) mod p gives the gcd if its primitive part divides a, b."""
    if a.is_zero() or b.is_zero():
        if a.is_zero() and b.is_zero():
            raise ValueError("gcd(0, 0) is undefined")
        return (a or b).monic()
    big_a, big_b = _primitive(a.coeffs), _primitive(b.coeffs)
    gamma = math.gcd(big_a[-1], big_b[-1])
    p, least, image, m = SQUAREFREE_PRIME + 2, len(big_a) + len(big_b), None, 1
    while True:
        p -= 2
        if gamma % p == 0 or (p < SQUAREFREE_PRIME and not is_prime(p)):  # the first is prime
            continue
        g = _gcd_mod(big_a, big_b, p)
        if len(g) == 1:
            return _ONE
        if len(g) > least:
            continue
        if len(g) < least:
            least, image, m = len(g), None, 1
        g = [c * gamma % p for c in g]
        if image is not None:
            inv = pow(m, -1, p)
            g = [h + m * ((c - h) * inv % p) for h, c in zip(image, g)]
        m *= p
        new = [c - m if 2 * c > m else c for c in g]
        if new == image:
            h = Poly(_primitive(new))
            if not (poly_divmod(a, h)[1] or poly_divmod(b, h)[1]):
                return h.monic()
        image = new


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


def is_squarefree(f: Poly) -> bool:
    """Whether f has no repeated root, i.e. gcd(f, f') = 1 in Q[x] by
    `poly_gcd`.  Constants are squarefree; the zero polynomial raises ValueError."""
    return poly_gcd(f, f.derivative()).degree == 0


def squarefree_part(p: Poly) -> Poly:
    """p with repeated factors removed: p / gcd(p, p'), made monic."""
    if p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    g = poly_gcd(p, p.derivative())
    return (poly_divmod(p, g)[0] if g.degree else p).monic()
