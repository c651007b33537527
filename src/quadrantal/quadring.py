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

Classes come from binary quadratic forms: the primitive ideal
Z*a + Z*(b + w) has the norm form (a, B, C) of discriminant d, B = 2b (+1
when m = 1 mod 4), C = N(b + w)/a.  One reduction operator, the rho-step
J -> (conj(tau)/N(J)) * J, takes it to the Gauss-reduced form (imaginary;
one per class) or onto the rho-cycle of reduced ideals (real; the least
(a, b) on it stands for the class).  Principality is "reduces to (1)"; the
quotients of the steps fold into a pair of integer convergents that gives
the generator, and units reads the fundamental unit off the cycle of (1)
the same way.  Ideal (and class) products are Dirichlet composition of
forms, conjugation is (a, B) -> (a, -B), and the class group grows coset
by coset from the prime forms below the Minkowski bound.  No float decides
any of it (Cohen, GTM 138, 5.3-5.7; Buchmann and Vollmer, Binary Quadratic
Forms, ch. 6 and 9).
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
import math

from .arith import (
    MAX_PERIOD,
    PI_BOUNDS,
    PI_LO,
    PeriodOverflow,
    check_square_free,
    factorize,
    floor_of_root_quotient,
    is_prime,
    kronecker,
    nstr,
    pi_decimal,
    power,
    primes_up_to,
    record,
    sqrt_mod,
    xgcd,
)


class QuadraticField:
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

    def __setattr__(self, *a):
        raise AttributeError("QuadraticField is immutable")

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


class QuadInt:
    """a + b*w in the ring of integers of a quadratic field."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: QuadraticField, a: int, b: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", int(a))
        object.__setattr__(self, "b", int(b))

    def __setattr__(self, *a):
        raise AttributeError("QuadInt is immutable")

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

    def mp_value(self, dps: int = 50):
        """Numerical value (real embedding with sqrt(m) > 0, or the upper
        complex embedding for m < 0); cross-check use only."""
        import mpmath

        u, v = self.double_coords()
        with mpmath.workdps(dps):
            s = mpmath.sqrt(abs(self.field.m))
            if self.field.m > 0:
                return (u + v * s) / 2
            return (u + v * s * mpmath.mpc(0, 1)) / 2

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


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class QuadIdeal:
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

    def __setattr__(self, *a):
        raise AttributeError("QuadIdeal is immutable")

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
# ideals as binary quadratic forms: the reduction operator
# ---------------------------------------------------------------------------

def _form(i: QuadIdeal) -> tuple[int, int]:
    """(a, B) of the form (a, B, C) of I's primitive part Z*a + Z*(b + w):
    B = 2b (+1 when d is odd), C = N(b + w)/a = (B^2 - d)/(4a)."""
    return i.a, 2 * i.b + (i.field.d & 1)


def _form_b(field: QuadraticField, a: int, big_b: int) -> int:
    """b of the standard form Z*a + Z*(b + w) = Z*a + Z*(B + sqrt(d))/2."""
    return ((big_b - (field.d & 1)) // 2) % a


def _normalize(r: int, a: int, big_b: int) -> int:
    """B moved by a multiple of 2a into (-a, a], or into (sqrt(d) - 2a, sqrt(d))
    when d > 0 and a < sqrt(d); r = isqrt(d) for d > 0 and 0 for d < 0."""
    lo = r + 1 - 2 * a if a <= r else 1 - a
    return lo + (big_b - lo) % (2 * a)


def _rho(field: QuadraticField, r: int, a: int, big_b: int) -> tuple[int, int, int, int]:
    """One rho-step.  J = Z*a + Z*tau, tau = (B + sqrt(d))/2, goes to the
    equivalent (conj(tau)/a) * J = Z*a' + Z*(B' + sqrt(d))/2, with a' = |C|
    for C = N(tau)/a, and B' = -B normalized mod 2a'.  Returns (a', B', t, s)
    with the quotient t = (B + B')/(2a') and s = sign C: psi = tau/a steps
    to psi' = t - s/psi (see _generator)."""
    c = (big_b * big_b - field.d) // (4 * a)
    a = abs(c)
    b = _normalize(r, a, -big_b)
    return a, b, (big_b + b) // (2 * a), 1 if c > 0 else -1


def _reduce(field: QuadraticField, a: int, big_b: int) -> tuple[int, int]:
    """(a, B) of a reduced form in the class of the ideal I0 of (a, B).

    N(x*a + y*tau) = a*(a x^2 + B x y + C y^2), so the form is the norm form
    of I0 = Z*a + Z*tau.  Imaginary fields stop at the Gauss-reduced form
    |B| <= a <= C (B >= 0 when a = C), real fields at the first form with
    |sqrt(d) - 2a| < B < sqrt(d).  It moves forms only; is_principal
    retraces its rho-steps to fold their quotients into a generator.
    """
    d = field.d
    r = math.isqrt(d) if d > 0 else 0
    big_b = _normalize(r, a, big_b)
    while True:
        if d < 0:
            c = (big_b * big_b - d) // (4 * a)
            if a < c or (a == c and big_b >= 0):
                return a, big_b
        elif max(r + 1 - 2 * a, 2 * a - r) <= big_b <= r:
            return a, big_b
        a, big_b, _, _ = _rho(field, r, a, big_b)


def _cycle(field: QuadraticField, a: int, big_b: int, cap: int | None = None):
    """The rho-cycle of the reduced real form (a, B): yields (a, B, t, s) for
    every reduced ideal of the class, once, with the quotient t and sign
    s = -1 of the rho-step leaving it.  A cycle of more than cap forms
    (MAX_PERIOD if None) raises PeriodOverflow once cap have been yielded."""
    r = math.isqrt(field.d)
    cap = MAX_PERIOD if cap is None else cap
    start = (a, big_b)
    for _ in range(cap):
        a2, b2, t, s = _rho(field, r, a, big_b)
        yield a, big_b, t, s
        if (a2, b2) == start:
            return
        a, big_b = a2, b2
    raise PeriodOverflow(f"period exceeds cap {cap}")


def _generator(field: QuadraticField, a: int, big_b: int, steps) -> QuadInt:
    """alpha = a * psi_0 * ... * psi_(k-1), psi_i = (B_i + sqrt(d))/(2 a_i),
    for the k rho-steps (., ., t_i, s_i) of `steps` from the normalized form
    (a, B) = (a_0, B_0) of I0: the form reached is (conj(alpha)/a) * I0.

    psi_(i+1) = t_i - s_i/psi_i, so P_k = psi_0 ... psi_(k-1) obeys
    P_(i+2) = t_i P_(i+1) - s_i P_i from P_0 = 1, P_1 = psi_0, and each P_k
    is u*psi_0 + v with integer convergents u, v.  alpha = u*tau + v*a for
    tau = (B + sqrt(d))/2 is then one QuadInt, with no division left.
    """
    u0, v0, u1, v1 = 0, 1, 1, 0  # P_0 = 1, P_1 = psi_0
    for _, _, t, s in steps:
        if s > 0:  # C > 0: imaginary fields, and some steps of a real reduction
            u0, v0 = -u0, -v0
        u0, v0, u1, v1 = u1, v1, t * u1 + u0, t * v1 + v0
    return field.integer(u0 * ((big_b - (field.d & 1)) // 2) + v0 * a, u0)


def _class_forms(field: QuadraticField, a: int, big_b: int):
    """(least, forms): the reduced forms of the class of the reduced form
    (a, B), itself (imaginary) or its rho-cycle (real), and the least (a, b)
    among them, which stands for the class (a real cycle holds every
    primitive ideal of the class below sqrt(d)/2, so its least norm)."""
    forms = [(a, big_b)] if field.d < 0 else [s[:2] for s in _cycle(field, a, big_b)]
    return min(forms, key=lambda s: (s[0], _form_b(field, *s))), forms


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


def reduced_equivalent(i: QuadIdeal) -> QuadIdeal:
    """The canonical ideal of the class of I: the Gauss-reduced form
    (imaginary) or the least (a, b) on the rho-cycle (real, PeriodOverflow
    above MAX_PERIOD forms); the zero ideal is returned unchanged."""
    if i.is_zero():
        return i
    a, big_b = _class_forms(i.field, *_reduce(i.field, *_form(i)))[0]
    return QuadIdeal(i.field, a, _form_b(i.field, a, big_b), 1)


def is_principal(i: QuadIdeal):
    """A generator of I when I is principal, else None.

    I = c*I0 is principal when I0 reduces to (1): the reduced form is
    (1, B, C) (imaginary), or (1) lies on the rho-cycle (real, walked once,
    up to (1)).  The quotients of the rho-steps from I0 to (1) fold into the
    integer pair of one generator of I0 (_generator), times c.  Among its
    associates the one returned has the least y >= 0 in x + y*w, a positive
    norm before a negative one, then the larger x; real fields only take the
    positive associates.  The certificate (gen) = I is checked.  A real
    rho-cycle of more than MAX_PERIOD forms raises PeriodOverflow.
    """
    if i.is_zero():
        raise ValueError("the zero ideal has no generator")
    field = i.field
    d = field.d
    a0, big_b0 = _form(i)
    if a0 == 1:
        return field.integer(i.c, 0)
    # retrace the reduction's rho-steps for their quotients
    r = math.isqrt(d) if d > 0 else 0
    big_b0 = _normalize(r, a0, big_b0)
    reduced = _reduce(field, a0, big_b0)
    a, big_b, steps = a0, big_b0, []
    while (a, big_b) != reduced:
        steps.append(_rho(field, r, a, big_b))
        a, big_b = steps[-1][:2]
    if d < 0:
        from .units import torsion_units

        if a != 1:
            return None
        alpha = _generator(field, a0, big_b0, steps)
        cands = [alpha * z for z in torsion_units(field)]
    else:
        for step in _cycle(field, a, big_b):
            if step[0] == 1:
                break
            steps.append(step)
        else:
            return None
        cands = _balanced_associates(_generator(field, a0, big_b0, steps), a0)
    x = min((x for x in cands if x.b >= 0), key=lambda x: (x.b, x.norm() < 0, -x.a))
    gen = field.integer(i.c * x.a, i.c * x.b)
    if principal_ideal(field, gen) != i:
        raise ArithmeticError(f"{gen} does not generate {i}")
    return gen


def _balanced_associates(gen: QuadInt, t: int) -> list[QuadInt]:
    """The positive associates h/lam, h, h*lam of gen, lam > 1 the
    fundamental unit and h the least one with h >= sqrt(t).

    y is proportional to h - t/h (norm t), increasing in h and >= 0 from
    sqrt(t) on, or to h + t/h (norm -t), least near sqrt(t); so every other
    positive associate has a negative y or a larger one than one of these.
    """
    from .units import fundamental_unit

    field = gen.field
    unit = fundamental_unit(field)
    inv = unit_inverse(unit)
    h = gen if gen.sign_real() > 0 else -gen

    def below_root_t(x):
        return (x * x - field.integer(t)).sign_real() < 0

    while below_root_t(h):
        h = h * unit
    while not below_root_t(h * inv):
        h = h * inv
    return [h * inv, h, h * unit]


# ---------------------------------------------------------------------------
# Minkowski bound and the class group
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


def minkowski_floor(field: QuadraticField) -> int:
    ad = abs(field.d)
    if field.m > 0:
        return math.isqrt(ad) // 2
    return floor_of_root_quotient(2, ad, *PI_BOUNDS)


def minkowski_bound(field: QuadraticField, precision: int = 30) -> MinkowskiBound:
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


@record(hidden=("forms",))
class ClassGroupReport:
    """The class group: h, one representative per class (the principal
    class first), the composition table of class indices and the invariant
    factors.

    `forms` maps every reduced form (a, B) of discriminant d to the index of
    its class: an imaginary class holds one (its Gauss-reduced form), a real
    class the forms on one rho-cycle.  class_group fills it as it meets each
    class, so locating an ideal or a form is one reduction and a lookup.
    """

    field: QuadraticField
    h: int
    representatives: tuple  # QuadIdeal, principal class first
    table: tuple            # h x h composition table of class indices
    structure: tuple        # invariant factors d1 | d2 | ... (empty for h = 1)
    forms: dict             # (a, B) -> class; not compared, hashed or shown

    def reduced_form(self, k: int) -> tuple[int, int, int]:
        """(a, B, C): a reduced form of the primitive ideal of class k's
        representative."""
        a, big_b = _reduce(self.field, *_form(self.representatives[k]))
        return a, big_b, (big_b * big_b - self.field.d) // (4 * a)

    def form_class(self, a: int, big_b: int) -> int:
        """Index of the class of the primitive ideal with form (a, B)."""
        k = self.forms.get(_reduce(self.field, a, big_b))
        if k is None:
            raise ArithmeticError(f"the form ({a}, {big_b}) reduces outside every class")
        return k

    def class_index(self, i: QuadIdeal) -> int:
        """Index of the class containing the given nonzero ideal."""
        if i.field != self.field or i.is_zero():
            raise ValueError(f"{i} is not a nonzero ideal of {self.field}")
        return self.form_class(*_form(i))

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "m": self.field.m,
            "h": self.h,
            "structure": list(self.structure),
            "representatives": [r.to_json_dict() for r in self.representatives],
            "table": [list(row) for row in self.table],
        }


def _invariant_factors(table) -> tuple:
    """Invariant factors d1 | d2 | ... of the group with this table.

    |G[p^k]| = p^(sum_j min(e_j, k)) over the cyclic p-parts Z/p^(e_j), so
    |G[p^k]| / |G[p^(k-1)]| = p^r counts the r parts of order >= p^k, and
    each of the r largest invariant factors takes one more p.
    """
    h = len(table)
    orders = []
    for x in range(h):
        y, k = x, 1
        while y != 0:
            y = table[y][x]
            k += 1
        orders.append(k)
    parts = [1] * h.bit_length()  # parts[j]: the (j+1)-th largest factor
    for p, e in factorize(h) if h > 1 else ():
        sizes = [sum(1 for o in orders if p**k % o == 0) for k in range(e + 1)]
        for k in range(1, e + 1):
            j = 0
            while sizes[k] >= sizes[k - 1] * p ** (j + 1):
                parts[j] *= p
                j += 1
    return tuple(d for d in reversed(parts) if d > 1)


def class_group(field: QuadraticField) -> ClassGroupReport:
    """Class group from the primes below the Minkowski bound, coset by coset.

    Prime classes generate the group (every class holds an ideal of norm at
    or below the bound, and such an ideal factors into primes of small
    norm).  A prime form whose reduction misses the form -> class dict lies
    outside the subgroup H met so far and becomes a generator g: it adds the
    cosets H*g, H*g^2, ... until g^e is back in H, each new class one
    composition of its parent with g, its rho-cycle walked once into the
    dict and its least (a, b) its representative.  Each generator's
    permutation c -> class(c*g) gives every table row from its parent's,
    and a breadth-first search over the primes, replayed on the rows,
    numbers the classes: h*(generators + 1) <= h*log2(2h) compositions at
    most, not h*(primes).  A rho-cycle over MAX_PERIOD forms raises
    PeriodOverflow; the principal cycle is walked first.
    """
    d = field.d
    forms = {}  # every reduced form met so far -> its class, in coset order
    reps = []   # (a, B) of each class's representative

    def add(key):
        least, cycle = _class_forms(field, *key)
        forms.update(dict.fromkeys(cycle, len(reps)))
        reps.append(least)

    def times(c: int, g) -> tuple[int, int]:
        return _reduce(field, *_compose(d, *reps[c], *g)[:2])

    # the principal cycle first: a period over MAX_PERIOD fails before the
    # prime ideals below the Minkowski bound are split
    add(_reduce(field, *_form(unit_ideal(field))))
    gens, primes = [], []  # (g, |H| before g, |H| after g); each prime form's class
    for q in primes_up_to(minkowski_floor(field)):
        if kronecker(d, q) >= 0:  # an inert (q) is principal, generates nothing
            big_b = prime_form(field, q)[1]  # (q, +-B mod 2q): split_prime's primes
            for b in sorted({big_b % (2 * q), -big_b % (2 * q)}):
                key, g = _reduce(field, q, b), (q, b)
                if key not in forms:  # class n = |H| is g, class n + c is c*g
                    n = len(reps)
                    add(key)
                    while (power := times(len(reps) - n, g)) not in forms:
                        add(power)
                    gens.append((g, n, len(reps)))
                primes.append(forms[key])
    h = len(reps)
    rows = {0: list(range(h))}  # rows[c][x] = class(c*x); each popped as its table row is built
    for g, n, end in gens:  # c*g is class c + n for c < end - n
        sigma = [*range(n, end), *(forms[times(c, g)] for c in range(end - n, h))]
        for c in range(n, end):
            rows[c] = list(map(sigma.__getitem__, rows[c - n]))
    order, seen = [0], {0}  # the classes in breadth-first order
    for c in order:
        if len(order) == h:
            break
        new = [x for x in dict.fromkeys(map(rows[c].__getitem__, primes)) if x not in seen]
        seen.update(new)
        order.extend(new)
    number = sorted(range(h), key=order.__getitem__)  # class -> its place in order
    table = tuple(tuple(map(number.__getitem__, map(rows.pop(c).__getitem__, order))) for c in order)
    reps = tuple(QuadIdeal(field, a, _form_b(field, a, b), 1) for a, b in map(reps.__getitem__, order))
    forms = {f: number[c] for f, c in forms.items()}
    return ClassGroupReport(field, h, reps, table, _invariant_factors(table), forms)
