"""The ring of integers of Q(sqrt(m)) and its ideal calculus.

Elements are a + b*w for the integral basis {1, w}, w = sqrt(m) or
(1+sqrt(m))/2 according to m mod 4.  A nonzero ideal is kept in the unique
standard form

    I = c * ( Z*a + Z*(b + w) ),   a, c > 0,  0 <= b < a,  a | N(b + w),

whose two generators {c*a, c*(b+w)} realize the two-generator theorem
constructively; equality of ideals is equality of triples.  Only ideals
given by generators, and gcds, go through a 2x2 integer Hermite reduction.

Prime splitting follows the classical case law, the case read off the
Kronecker symbol chi_d(q) = arith.kronecker(d, q) (1 split, -1 inert, 0
ramified):

    odd q not dividing d : split iff m is a square mod q, else inert
    odd q dividing d     : (q) = (q, sqrt(m))^2
    q = 2, d odd         : split iff m = 1 mod 8, inert iff m = 5 mod 8
    q = 2, d even        : (2, sqrt(m))^2 or (2, 1+sqrt(m))^2 by m mod 4

A prime over q is the form (q, B), B^2 = d mod 4q, or (q) when inert;
factorizations are read off the standard form, both certified by products.

Ideal products are Dirichlet composition of the forms (a, B) of the
primitive parts (_form), and conjugation is (a, B) -> (a, -B).  Reduction,
principality and class groups are quadrantal.forms, and the Minkowski bound
is quadrantal.reals; their names still resolve here on first use, through
quadrantal._forward, so a split or a factorization compiles neither.
Fields, elements and ideals are immutable values (integers.Frozen).
"""

from __future__ import annotations

import math

from . import _forward
from .arith import Frozen, check_square_free, factorize, is_prime, kronecker, power, record, sqrt_mod, xgcd
from .arith import MAX_PERIOD, PeriodOverflow, primes_up_to  # noqa: F401 (re-exported)


class QuadraticField(Frozen):
    """Q(sqrt(m)) together with its ring of integers, m square-free."""

    __slots__ = ("m", "d", "half", "signature")

    def __init__(self, m: int):
        if m in (0, 1):
            raise ValueError("m must be a square-free integer other than 0 and 1")
        check_square_free(m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "half", m % 4 == 1)
        object.__setattr__(self, "d", m if m % 4 == 1 else 4 * m)
        object.__setattr__(self, "signature", (2, 0) if m > 0 else (0, 1))

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and self.m == other.m

    def __hash__(self):
        return hash(("QuadraticField", self.m))

    def __repr__(self):
        w = "(1+sqrt(m))/2" if self.half else "sqrt(m)"
        return f"QuadraticField(m={self.m}, w={w}, d={self.d})"

    # -- element constructors -------------------------------------------------

    def integer(self, a: int, b: int = 0) -> "QuadInt":
        return QuadInt(self, a, b)

    def omega(self) -> "QuadInt":
        return QuadInt(self, 0, 1)

    def omega_norm_poly(self, b: int) -> int:
        """N(b + w) as a rational integer."""
        if self.half:
            return b * b + b + (1 - self.m) // 4
        return b * b - self.m


def ring_of_integers(m: int) -> QuadraticField:
    """The ring of integers of Q(sqrt(m)); errors on non-square-free m."""
    return QuadraticField(m)


class QuadInt(Frozen):
    """a + b*w in the ring of integers of a quadratic field."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: QuadraticField, a: int, b: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", int(a))
        object.__setattr__(self, "b", int(b))

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements of different quadratic fields")

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        return (
            isinstance(other, QuadInt)
            and self.field == other.field
            and (self.a, self.b) == (other.a, other.b)
        )

    def __hash__(self):
        return hash((self.field.m, self.a, self.b))

    def __add__(self, other):
        self._check(other)
        return QuadInt(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        self._check(other)
        return QuadInt(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return QuadInt(self.field, -self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.field, self.a * other, self.b * other)
        self._check(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        if self.field.half:
            # w^2 = (m-1)/4 + w
            return QuadInt(
                self.field,
                a * c + b * d * ((self.field.m - 1) // 4),
                a * d + b * c + b * d,
            )
        return QuadInt(self.field, a * c + b * d * self.field.m, a * d + b * c)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers only for units; use unit_inverse")
        return power(self, k, QuadInt(self.field, 1, 0))

    def conj(self) -> "QuadInt":
        """The nontrivial automorphism, sqrt(m) -> -sqrt(m)."""
        if self.field.half:
            return QuadInt(self.field, self.a + self.b, -self.b)
        return QuadInt(self.field, self.a, -self.b)

    def norm(self) -> int:
        """x * conj(x), always a rational integer."""
        u, v = self.double_coords()
        return (u * u - self.field.m * v * v) // 4

    def trace(self) -> int:
        return self.double_coords()[0]

    def is_unit(self) -> bool:
        return self.norm() in (1, -1)

    def double_coords(self) -> tuple[int, int]:
        """(u, v) with value = (u + v*sqrt(m)) / 2."""
        if self.field.half:
            return 2 * self.a + self.b, self.b
        return 2 * self.a, 2 * self.b

    def sign_real(self) -> int:
        """Exact sign under the embedding sending sqrt(m) to +sqrt(m) (m > 0)."""
        if self.field.m < 0:
            raise ValueError("sign under a real embedding needs m > 0")
        u, v = self.double_coords()
        if u == 0 and v == 0:
            return 0
        if u >= 0 and v >= 0:
            return 1
        if u <= 0 and v <= 0:
            return -1
        lhs = u * u - self.field.m * v * v  # sign(u + v sqrt(m)) when signs differ
        return (1 if lhs > 0 else -1) * (1 if u > 0 else -1)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bw = "w" if self.b == 1 else ("-w" if self.b == -1 else f"{self.b}*w")
        if self.a == 0:
            return bw
        return f"{self.a}+{bw}" if not bw.startswith("-") else f"{self.a}{bw}"

    def __repr__(self):
        return f"QuadInt({self.field.m}, {self})"

    def to_json_dict(self):
        return {"a": self.a, "b": self.b}


def unit_inverse(u: QuadInt) -> QuadInt:
    """Inverse of a unit: conj(u) * N(u), exactly."""
    n = u.norm()
    if n not in (1, -1):
        raise ValueError("not a unit")
    return u.conj() * n


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
    g, out = torsion_generator(field), [field.integer(1, 0)]
    for _ in range(torsion_order(field) - 1):
        out.append(out[-1] * g)
    return out


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class QuadIdeal(Frozen):
    """Nonzero ideal in standard form c*(Z*a + Z*(b+w)); the zero ideal is
    the distinguished triple (0, 0, 0)."""

    __slots__ = ("field", "a", "b", "c")

    def __init__(self, field: QuadraticField, a: int, b: int, c: int):
        if (a, b, c) == (0, 0, 0):
            pass  # zero ideal
        else:
            if a <= 0 or c <= 0 or not 0 <= b < a:
                raise ValueError(f"not a standard-form triple: {(a, b, c)}")
            if field.omega_norm_poly(b) % a != 0:
                raise ValueError(f"inadmissible triple {(a, b, c)}: a does not divide N(b+w)")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def is_zero(self) -> bool:
        return self.c == 0

    def is_unit_ideal(self) -> bool:
        return (self.a, self.b, self.c) == (1, 0, 1)

    def __eq__(self, other):
        return (
            isinstance(other, QuadIdeal)
            and self.field == other.field
            and (self.a, self.b, self.c) == (other.a, other.b, other.c)
        )

    def __hash__(self):
        return hash((self.field.m, self.a, self.b, self.c))

    def norm(self) -> int:
        """|R/I| = a * c**2."""
        if self.is_zero():
            raise ValueError("norm of the zero ideal")
        return self.a * self.c * self.c

    def basis(self) -> tuple[QuadInt, QuadInt]:
        """The two-generator basis {c*a, c*(b+w)}."""
        f = self.field
        return f.integer(self.c * self.a, 0), f.integer(self.c * self.b, self.c)

    def contains(self, x: QuadInt) -> bool:
        if self.is_zero():
            return x.is_zero()
        if x.b % self.c != 0:
            return False
        return (x.a - (x.b // self.c) * self.c * self.b) % (self.c * self.a) == 0

    def contains_ideal(self, other: "QuadIdeal") -> bool:
        if other.is_zero():
            return True
        return all(self.contains(g) for g in other.basis())

    def conj(self) -> "QuadIdeal":
        """c * (a, -B): the conjugate of the primitive part's form."""
        if self.is_zero():
            return self
        a, big_b = _form(self)
        return QuadIdeal(self.field, a, _form_b(self.field, a, -big_b), self.c)

    def __repr__(self):
        if self.is_zero():
            return f"QuadIdeal({self.field.m}, zero)"
        return f"QuadIdeal({self.field.m}, a={self.a}, b={self.b}, c={self.c})"

    def to_json_dict(self):
        return {"m": self.field.m, "a": str(self.a), "b": str(self.b), "c": str(self.c)}

    @classmethod
    def from_json_dict(cls, data) -> "QuadIdeal":
        field = QuadraticField(int(data["m"]))
        return cls(field, int(data["a"]), int(data["b"]), int(data["c"]))


def zero_ideal(field: QuadraticField) -> QuadIdeal:
    return QuadIdeal(field, 0, 0, 0)


def unit_ideal(field: QuadraticField) -> QuadIdeal:
    return QuadIdeal(field, 1, 0, 1)


def ideal_from_generators(field: QuadraticField, gens) -> QuadIdeal:
    """Standard form of the ideal generated by the given elements.

    The Z-module spanned by {g, g*w : g in gens} is Hermite-reduced in the
    coordinates of the basis {1, w}.
    """
    vecs = []
    w = field.omega()
    for g in gens:
        if isinstance(g, int):
            g = field.integer(g, 0)
        if g.is_zero():
            continue
        gw = g * w
        vecs.append((g.a, g.b))
        vecs.append((gw.a, gw.b))
    if not vecs:
        return zero_ideal(field)
    # the vector (x0, C) with C = gcd of all w-coordinates
    x0, yc = 0, 0
    for vx, vy in vecs:
        if vy:
            g, s, t = xgcd(yc, vy)
            x0, yc = s * x0 + t * vx, g
    if yc <= 0:
        raise ArithmeticError("a nonzero ideal spans rank 2")
    xs = [vx - (vy // yc) * x0 for vx, vy in vecs]
    big_a = 0
    for x in xs:
        big_a = math.gcd(big_a, x)
    if big_a <= 0:
        raise ArithmeticError("a nonzero ideal spans rank 2")
    big_b = x0 % big_a
    if big_a % yc or big_b % yc:
        raise ArithmeticError("omega-closure forces divisibility")
    return QuadIdeal(field, big_a // yc, big_b // yc, yc)


def principal_ideal(field: QuadraticField, x: QuadInt) -> QuadIdeal:
    return ideal_from_generators(field, [x])


def ideal_product(i: QuadIdeal, j: QuadIdeal) -> QuadIdeal:
    """Standard form of I*J = c_i*c_j*g*I3, the primitive parts composed as
    forms (I3 and g from _compose); zero absorbs."""
    if i.field != j.field:
        raise ValueError("ideals of different fields")
    if i.is_zero() or j.is_zero():
        return zero_ideal(i.field)
    a, big_b, g = _compose(i.field.d, *_form(i), *_form(j))
    return QuadIdeal(i.field, a, _form_b(i.field, a, big_b), i.c * j.c * g)


def ideal_gcd(i: QuadIdeal, j: QuadIdeal) -> QuadIdeal:
    """gcd(I, J): the ideal generated by both bases together."""
    if i.field != j.field:
        raise ValueError("ideals of different fields")
    if i.is_zero():
        return j
    if j.is_zero():
        return i
    return ideal_from_generators(i.field, list(i.basis()) + list(j.basis()))


def ideal_divides_and_quotient(i: QuadIdeal, j: QuadIdeal):
    """K with J = I*K when I divides J (i.e. J is contained in I), else None.

    Uses I * conj(I) = (N(I)): the quotient is J * conj(I) with the
    rational factor N(I) removed; the result is verified by re-multiplying.
    """
    if i.is_zero():
        raise ValueError("division by the zero ideal")
    if j.is_zero():
        return zero_ideal(i.field)
    if not i.contains_ideal(j):
        return None
    ni = i.norm()
    p = ideal_product(j, i.conj())
    if p.c % ni:
        raise ArithmeticError("quotient must clear the rational norm factor")
    k = QuadIdeal(i.field, p.a, p.b, p.c // ni)
    if ideal_product(i, k) != j:
        raise ArithmeticError(f"{i} * {k} is not {j}")
    return k


def ideal_pow(i: QuadIdeal, k: int) -> QuadIdeal:
    if k < 0:
        raise ValueError("negative ideal power")
    return power(i, k, unit_ideal(i.field), ideal_product)


# ---------------------------------------------------------------------------
# prime splitting
# ---------------------------------------------------------------------------

@record
class SplittingReport:
    field: QuadraticField
    q: int
    kind: str  # "split" | "inert" | "ramified"
    e: int
    f: int
    g: int
    factors: tuple  # ((QuadIdeal, multiplicity), ...)

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "m": self.field.m,
            "q": str(self.q),
            "type": self.kind,
            "e": self.e,
            "f": self.f,
            "g": self.g,
            "factors": [
                {"ideal": p.to_json_dict(), "multiplicity": mult} for p, mult in self.factors
            ],
        }


def splitting_kind(field: QuadraticField, q: int) -> str:
    """Split/inert/ramified for a prime q without building the ideals: the
    Kronecker symbol chi_d(q) is 1, -1 or 0."""
    return ("ramified", "split", "inert")[kronecker(field.d, q)]


def prime_form(field: QuadraticField, q: int) -> tuple[int, int]:
    """The form (q, B) of a prime ideal over a split or ramified prime q:
    B = d mod 2 and B^2 = d mod 4q, checked; the conjugate prime is (q, -B)."""
    d = field.d
    if q == 2:
        big_b = 1 if d % 2 else 2 * (field.m % 2)
    else:
        big_b = sqrt_mod(d, q)
        big_b += q * ((big_b - d) % 2)
    if (big_b * big_b - d) % (4 * q):
        raise ArithmeticError(f"({q}, {big_b}) is not a form of discriminant {d}")
    return q, big_b


def split_prime(field: QuadraticField, q: int) -> SplittingReport:
    """Factor (q) per the quadratic splitting laws: a split or ramified prime
    is the form (q, B), B = d mod 2 and B^2 = d mod 4q, with its conjugate
    (q, -B); an inert one is (q).  The factors are checked to be distinct
    (split) and to multiply to (q)."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    kind = splitting_kind(field, q)
    if kind == "inert":
        factors, efg = ((QuadIdeal(field, 1, 0, q), 1),), (1, 2, 1)
    else:
        big_b = prime_form(field, q)[1]
        bs = sorted({_form_b(field, q, big_b), _form_b(field, q, -big_b)})
        ps = [QuadIdeal(field, q, b, 1) for b in bs]
        if kind == "ramified":
            factors, efg = ((ps[0], 2),), (2, 1, 1)
        elif len(ps) == 2:
            factors, efg = ((ps[0], 1), (ps[1], 1)), (1, 1, 2)
        else:
            raise ArithmeticError(f"the split factors of {q} coincide")
    prod = unit_ideal(field)
    for p, mult in factors:
        for _ in range(mult):
            prod = ideal_product(prod, p)
    if prod != QuadIdeal(field, 1, 0, q):
        raise ArithmeticError(f"the factors of {q} multiply to {prod}, not ({q})")
    return SplittingReport(field, q, kind, *efg, factors)


def factor_ideal(i: QuadIdeal):
    """Prime-ideal factorization as a list of (prime ideal, multiplicity),
    primes ordered by (q, b).  For I = c * (Z*a + Z*(b + w)) a prime q
    contributes (q)^v_q(c), and the primitive part is divisible by the prime
    (q, b mod q) exactly v_q(a) times; the product is checked against I."""
    if i.is_zero() or i.is_unit_ideal():
        raise ValueError("factor a nonzero, proper ideal")
    field = i.field
    va, vc = dict(factorize(i.a)), dict(factorize(i.c))
    out = []
    prod = unit_ideal(field)
    for q in sorted(va.keys() | vc.keys()):
        for p, mult in split_prime(field, q).factors:
            v = mult * vc.get(q, 0) + (va.get(q, 0) if (p.a, p.b) == (q, i.b % q) else 0)
            if v:
                out.append((p, v))
                prod = ideal_product(prod, ideal_pow(p, v))
    if prod != i:
        raise ArithmeticError(f"the factors of {i} multiply to {prod}")
    return out


# ---------------------------------------------------------------------------
# ideals as binary quadratic forms
# ---------------------------------------------------------------------------

def _form(i: QuadIdeal) -> tuple[int, int]:
    """(a, B) of the form (a, B, C) of I's primitive part Z*a + Z*(b + w):
    B = 2b (+1 when d is odd), C = N(b + w)/a = (B^2 - d)/(4a)."""
    return i.a, 2 * i.b + (i.field.d & 1)


def _form_b(field: QuadraticField, a: int, big_b: int) -> int:
    """b of the standard form Z*a + Z*(b + w) = Z*a + Z*(B + sqrt(d))/2."""
    return ((big_b - (field.d & 1)) // 2) % a


def _compose(d: int, a1: int, b1: int, a2: int, b2: int) -> tuple[int, int, int]:
    """(a3, B3, g) with (a1, B1) * (a2, B2) = g * (a3, B3) for the ideals of
    forms of discriminant d (Dirichlet composition, Cohen GTM 138, Alg. 5.4.7)."""
    if a1 > a2:
        a1, b1, a2, b2 = a2, b2, a1, b1
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, g = 0, a1
    else:
        g, y1, _ = xgcd(a2, a1)
    if s % g == 0:
        x2, y2, g1 = 0, -1, g
    else:
        g1, x2, y2 = xgcd(s, g)
        y2 = -y2
    v1, v2 = a1 // g1, a2 // g1
    c2 = (b2 * b2 - d) // (4 * a2)
    r = (y1 * y2 * n - x2 * c2) % v1
    return v1 * v2, b2 + 2 * v2 * r, g1


# the names that moved out, by their module now, resolved on first use (PEP 562)
__getattr__ = _forward(globals(), {name: home for home, names in {
    "forms": """_normalize _rho _reduce _cycle _generator _class_forms reduced_equivalent
        is_principal _balanced_associates ClassGroupReport _invariant_factors class_group""",
    "reals": """PI_BOUNDS PI_LO floor_of_root_quotient nstr pi_decimal MinkowskiBound minkowski_floor
        minkowski_bound"""}.items() for name in names.split()})
