"""Number fields Q(theta) presented by a monic integer polynomial.

Elements are residue polynomials of degree < n; all arithmetic reduces
modulo the defining polynomial and stays exact.  Coefficients, traces,
norms and discriminants are ints when integral and Fractions otherwise
(`polynomial.coefficient`).  The invariants run on int lists: with D the
lcm of an element's denominators (`polynomial._cleared`, the one place a
denominator is cleared), Tr(a) = Tr(Da)/D, N(a) = N(Da)/D^n and
chi_a(x) = D^-n chi_Da(Dx), so every kernel sees an algebraic integer;
a Poly is built only for a polynomial result or a squarefree test.  The
degree is capped at MAX_DEGREE.  Traces, discriminants, field polynomials
and composed polynomials all come from Newton power sums s_k = theta_1^k
+ ... + theta_n^k of the roots (Cohen, GTM 138, section 4.3); norms are
Bareiss determinants of multiplication matrices; the signature comes from
a Sturm sequence, which also fixes how many embeddings are real.
composed_min_poly keeps its last 8 results and the power sums of the last
8 polynomials it read, so a shift finds R_1 as the composed sum left it,
and R_1's certificate also covers p and q.  mpmath embeddings (60 digits
by default) serve only primitive_element_shift when R_c is not
squarefree, to order conjugates and separate alpha_i + c*beta_j.  Tests
check exact values against them; they never decide one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .integers import CertificateNotFound, Frozen, _remove, factorize, power
from .polynomial import (
    Poly,
    _cleared,
    _primitive,
    coefficient,
    exact_div,
    is_squarefree,
    poly_divmod,
    poly_gcd,
    squarefree_part,
)

EMBEDDING_DPS = 60
# power sums cost O(n^2) and norms are n x n determinants
MAX_DEGREE = 400
# the shifts c tried by primitive_element_shift
MAX_SHIFT = 1000
# the divisors of a0 a defining polynomial of degree 3 or more may have: each is tried as a root
MAX_DIVISORS = 2**18


# ---------------------------------------------------------------------------
# exact matrix helpers (lists of lists of Fractions / ints)
# ---------------------------------------------------------------------------

def mat_det(m):
    """Exact determinant (int or Fraction): each row is scaled to integers
    by the lcm of its denominators for `_int_det`."""
    cleared = [_cleared([coefficient(x) for x in row]) for row in m]
    return exact_div(_int_det([b for _, b in cleared]), math.prod(d for d, _ in cleared))


def _int_det(a) -> int:
    """Determinant of a square matrix of int rows, which it overwrites, by
    fraction-free Bareiss elimination: every intermediate is an integer."""
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), 0)
            if not i:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        top, pivot = a[k], a[k][k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if a else 1


def char_poly(m) -> Poly:
    """Monic characteristic polynomial det(xI - M), exactly.

    Faddeev-LeVerrier: M_1 = M, c_k = -tr(M M_{k-1})/k, M_k = M(M_{k-1} + c I).
    Divisions are by rational integers, exact through exact_div.
    """
    n = len(m)
    m = [[coefficient(x) for x in row] for row in m]
    coeffs = [1]  # leading coefficient of x^n
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        ck = exact_div(-sum(mk[i][i] for i in range(n)), k)
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = [[sum(m[i][t] * mk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return Poly(list(reversed(coeffs)))


# ---------------------------------------------------------------------------
# Newton power sums
# ---------------------------------------------------------------------------

def power_sums(p: Poly, count: int) -> list[int]:
    """[s_0, ..., s_{count-1}], s_k the sum of the k-th powers of the roots
    of the monic integer polynomial p, by Newton's identities
    s_k = -k*b_k - sum_{j=1}^{min(k-1, n)} b_j*s_{k-j}, b_j = coeff of x^(n-j)."""
    n, b, low, s = p.degree, p.coeffs[::-1], p.coeffs[-2::-1], [p.degree]
    for k in range(1, count):
        acc = sum(map(mul, low, s[k - 1:0:-1]))
        s.append(-(acc + k * b[k] if k <= n else acc))
    return s


def from_power_sums(s) -> list[int]:
    """Coefficients, constant term first, of the monic polynomial whose
    roots have power sums s_1, s_2, ... (s[0] is ignored), by Newton's
    identities b_k = -(s_k + sum_{j=1}^{k-1} b_j*s_{k-j}) / k.  The roots
    are algebraic integers, so each quotient is exact (ArithmeticError)."""
    b = []
    for k in range(1, len(s)):
        q, r = divmod(-(s[k] + sum(map(mul, b, s[k - 1:0:-1]))), k)
        if r:
            raise ArithmeticError("power sums of algebraic integers must give integer coefficients")
        b.append(q)
    return b[::-1] + [1]


@lru_cache(maxsize=8)  # p and q of the last compositions: a sum, a product and a shift share them
def _power_sums(p: Poly, count: int) -> tuple[int, ...]:
    return tuple(power_sums(p, count))


def _columns(coeffs, f) -> list[list]:
    """Columns of multiplication by sum_k coeffs[k] theta^k modulo f."""
    cols = [list(coeffs) + [0] * (len(f) - 1 - len(coeffs))]
    for _ in range(len(f) - 2):
        # times theta: shift up, then replace theta^n by -(f - x^n)(theta)
        top, col = cols[-1][-1], [0] + cols[-1][:-1]
        cols.append([c - top * a for c, a in zip(col, f)] if top else col)
    return cols


# ---------------------------------------------------------------------------
# the field and its elements
# ---------------------------------------------------------------------------

class NumberField:
    """Q(theta) for theta a root of a monic irreducible integer polynomial.

    Irreducibility is an assumed precondition, not certified: only a
    rational root (an integer dividing a0) is rejected, and from degree 3 on
    a0 may have at most MAX_DIVISORS divisors (CertificateNotFound).  The
    degree is at most MAX_DEGREE (ValueError above it).
    """

    def __init__(self, minpoly: Poly):
        if not (minpoly.is_monic() and minpoly.is_integral() and minpoly.degree >= 1):
            raise ValueError("defining polynomial must be monic, integral, nonconstant")
        if minpoly.degree > MAX_DEGREE:
            raise ValueError(f"degree {minpoly.degree} is over the cap {MAX_DEGREE}")
        self._reject_integer_roots(minpoly)
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self._embeddings = None
        self._power_sums = power_sums(minpoly, 2 * self.degree - 1)

    @staticmethod
    def _reject_integer_roots(p: Poly):
        """A rational root of a monic integer polynomial is an integer
        dividing a0.  Those of x^2 + b x + a0 can only be (-b +- s)/2, s =
        isqrt(b^2 - 4 a0), so their absolute values are the divisors tried;
        a higher degree tries every divisor of a0, built from factorize(a0),
        when there are at most MAX_DIVISORS of them (CertificateNotFound).
        They are tried in ascending order, each before its negative, so the
        root reported is the least in absolute value, positive first."""
        if p.degree == 1:
            return
        a0 = p.coeffs[0]
        if a0 == 0:
            raise ValueError("defining polynomial is divisible by x")
        if p.degree == 2:
            b = p.coeffs[1]
            s = math.isqrt(max(b * b - 4 * a0, 0))
            divisors = [abs(s - b) // 2, abs(s + b) // 2]
        else:
            factors = factorize(a0)
            if (count := math.prod(e + 1 for _, e in factors)) > MAX_DIVISORS:
                raise CertificateNotFound(
                    f"constant term has {count} divisors to try as roots, over the cap {MAX_DIVISORS}")
            divisors = [1]
            for q, e in factors:
                divisors = [d * q**i for d in divisors for i in range(e + 1)]
        for d in sorted(divisors):
            for r in (d, -d):
                if p(r) == 0:
                    raise ValueError(f"defining polynomial has rational root {r}")

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.minpoly.to_text()})"

    # -- embeddings ---------------------------------------------------------

    def embeddings(self, dps: int = EMBEDDING_DPS):
        """Conjugates of theta at `dps` digits, ordered: real roots ascending,
        then complex roots by (Re, positive Im before negative).  The count of
        roots with |Im| < 10^(-dps/2) must be Sturm's r1 (CertificateNotFound)."""
        import mpmath

        if self._embeddings is None or self._embeddings[0] < dps:
            with mpmath.workdps(dps + 10):
                coeffs = [mpmath.mpf(int(c)) for c in reversed(self.minpoly.coeffs)]
                roots = [mpmath.mpc(r) for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)]
                eps = mpmath.mpf(10) ** (-dps // 2)
                reals = sorted(r.real for r in roots if abs(r.imag) < eps)
                cplx = sorted((r for r in roots if abs(r.imag) >= eps),
                              key=lambda r: (r.real, 0 if r.imag > 0 else 1, abs(r.imag)))
                if len(reals) != (r1 := self.signature()[0]):
                    raise CertificateNotFound(f"{len(reals)} roots look real at {dps} digits, but Sturm counts {r1}")
                ordered = [mpmath.mpc(r) for r in reals] + list(cplx)
            self._embeddings = (dps, tuple(ordered))
        return self._embeddings[1]

    def signature(self) -> tuple[int, int]:
        """(r1, r2): real embeddings and pairs of complex ones.

        Sturm's theorem: r1 = V(-inf) - V(+inf), V the sign changes of the
        sequence f, f', -rem(f, f'), ... (Basu, Pollack and Roy,
        Algorithms in Real Algebraic Geometry, ch. 2).  Only the leading
        coefficients' signs matter, so each remainder is replaced by its
        positive multiple with coprime integer coefficients.
        """
        seq = [self.minpoly, self.minpoly.derivative()]
        while seq[-1].degree > 0:
            r = poly_divmod(seq[-2], seq[-1])[1]
            if r.is_zero():
                break
            seq.append(-Poly(_primitive(r.coeffs)))
        plus = [1 if p.coeffs[-1] > 0 else -1 for p in seq]
        minus = [s if p.degree % 2 == 0 else -s for s, p in zip(plus, seq)]
        r1 = _sign_changes(minus) - _sign_changes(plus)
        return r1, (self.degree - r1) // 2

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        """sum_k coeffs[k] theta^k, reduced from the top by theta^(i+n) =
        -(f - x^n)(theta) theta^i, f the defining polynomial: no quotient."""
        f, rem = self.minpoly.coeffs, list((coeffs if isinstance(coeffs, Poly) else Poly(coeffs)).coeffs)
        for i in range(len(rem) - len(f), -1, -1):
            if top := rem.pop():
                rem[i:] = [r - top * a for r, a in zip(rem[i:], f)]
        return FieldElement(self, Poly(rem))

    def zero(self) -> "FieldElement":
        return FieldElement(self, Poly())

    def one(self) -> "FieldElement":
        return FieldElement(self, Poly([1]))

    def theta(self) -> "FieldElement":
        return self.element(Poly([0, 1]))

    def rational(self, c) -> "FieldElement":
        return self.element(Poly([c]))


class FieldElement(Frozen):
    """An element q(theta), stored as the unique representative of degree < n."""

    __slots__ = ("field", "repr")

    def __init__(self, field: NumberField, rep: Poly):
        if rep.degree >= field.degree:
            raise ValueError("representative not reduced")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "repr", rep)

    def _check(self, other: "FieldElement"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("elements live in different fields")

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.repr == other.repr
        )

    def __hash__(self):
        return hash((self.field, self.repr))

    def is_zero(self) -> bool:
        return self.repr.is_zero()

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, self.repr + other.repr)

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, self.repr - other.repr)

    def __neg__(self):
        return FieldElement(self.field, -self.repr)

    def __mul__(self, other):
        self._check(other)
        return self.field.element(self.repr * other.repr)

    def inverse(self) -> "FieldElement":
        """1/a = -(a^(n-1) + c_(n-1) a^(n-2) + ... + c_1)/c_0 by Cayley-Hamilton
        on a's field polynomial sum c_k x^k, whose c_0 = (-1)^n N(a) is 0 at a
        nonzero a only when the defining polynomial is reducible (ValueError)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        c = self.field_polynomial().coeffs
        if c[0] == 0:
            raise ValueError("defining polynomial is reducible: gcd is nonconstant")
        r = self.field.one()
        for ck in c[-2:0:-1]:
            r = r * self + self.field.rational(ck)
        return r * self.field.rational(exact_div(-1, c[0]))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.field.one())

    def __repr__(self):
        return f"<{self.repr.to_text()} in {self.field!r}>"

    # -- invariants ----------------------------------------------------------

    def trace_and_norm(self):
        """(trace, norm), computed independently."""
        return self.trace(), self.norm()

    def trace(self):
        """Tr(a) = Tr(Da)/D, Tr(sum_k c_k theta^k) = sum_k c_k s_k with s_k
        the field's power sums."""
        d, b = _cleared(self.repr.coeffs)
        return exact_div(sum(map(mul, b, self.field._power_sums)), d)

    def norm(self):
        """N(a) = N(Da)/D^n, N(Da) the Bareiss determinant of the
        multiplication matrix of Da, taken on its columns (det M^T = det M)."""
        d, b = _cleared(self.repr.coeffs)
        return exact_div(_int_det(_columns(b, self.field.minpoly.coeffs)), d**self.field.degree)

    def field_polynomial(self) -> Poly:
        """prod_i (x - a(theta_i)), a power of the minimal polynomial, as
        D^-n chi_Da(Dx): Newton's identities on Tr((Da)^k) = ((M^T)^k s)[0],
        M the multiplication matrix of Da and s the field's power sums."""
        d, b = _cleared(self.repr.coeffs)
        n, s = self.field.degree, self.field._power_sums
        cols = _columns(b, self.field.minpoly.coeffs)
        w, traces = s[:n], [n]
        for _ in range(n):
            w = [sum(map(mul, col, w)) for col in cols]
            traces.append(w[0])
        return Poly([exact_div(c, d ** (n - k)) for k, c in enumerate(from_power_sums(traces))])

    def minimal_polynomial(self) -> Poly:
        """Monic minimal polynomial over Q: squarefree part of the field
        polynomial, with the power relation f = p**s confirmed exactly."""
        f = self.field_polynomial()
        p = squarefree_part(f)
        s, r = divmod(f.degree, p.degree)
        if r or (s > 1 and p**s != f):  # s = 1: f is squarefree and p is f
            raise ValueError(
                "defining polynomial is reducible: field polynomial is not a power of the minimal one"
            )
        return p

    def is_algebraic_integer(self) -> bool:
        return self.minimal_polynomial().is_integral()


def tuple_discriminant(elements):
    """Discriminant det[T(a_i a_j)] of an n-tuple, n the field degree.

    Nonzero exactly when the tuple is a Q-basis of the field.  The trace
    matrix is A*H*A^T, A the rows of power-basis coordinates and
    H[k][l] = T(theta^(k+l)) = s_(k+l) the Hankel matrix of power sums,
    so the discriminant is det(A)^2 * det(H): O(n^3).
    """
    elements = list(elements)
    if not elements:
        raise ValueError("empty tuple")
    field = elements[0].field
    n = field.degree
    if len(elements) != n:
        raise ValueError(f"need exactly {n} elements, got {len(elements)}")
    s, rows, scale = field._power_sums, [], 1
    for e in elements:
        if e.field != field:
            raise ValueError("elements live in different fields")
        d, b = _cleared(e.repr.coeffs)
        rows.append(b + [0] * (n - len(b)))
        scale *= d
    return exact_div(_int_det(rows) ** 2 * _int_det([s[k:k + n] for k in range(n)]), scale**2)


def denominator_clearing(a: FieldElement) -> tuple[int, FieldElement]:
    """The smallest n >= 1 with n*a an algebraic integer; n = 1 exactly
    when a is already integral.

    With minimal polynomial sum_k c_(d-k) x^(d-k), n*a has coefficients
    n^k c_(d-k), integral iff k*v_q(n) >= v_q(den c_(d-k)) for every prime
    q and k.  So n = prod q^e_q with e_q = max_k ceil(v_q(den c_(d-k)) / k),
    q over the primes of the lcm of the denominators.
    """
    if a.is_zero():
        raise ValueError("denominator clearing of zero")
    p = a.minimal_polynomial()
    d = p.degree
    n = 1
    for q, _ in factorize(_cleared(p.coeffs)[0]):
        e = max(-(-_remove(p.coeffs[d - k].denominator, q)[0] // k) for k in range(1, d + 1))
        n *= q**e
    b = a.field.rational(n) * a
    if not b.is_algebraic_integer():
        raise ArithmeticError(f"{n} times the element is not an algebraic integer")
    return n, b


@lru_cache(maxsize=8)  # the last compositions: a shift finds its R_1 as the sum left it
def composed_min_poly(op: str, p: Poly, q: Poly) -> Poly:
    """Monic integer polynomial whose roots are all alpha_i + beta_j (op
    'sum') or alpha_i * beta_j (op 'product'), from the power sums of those
    roots: sum_i C(k,i) s_i(p) s_(k-i)(q) or s_k(p) s_k(q) (Bostan, Flajolet,
    Salvy and Schost 2006).  Degree deg(p)*deg(q), at most MAX_DEGREE; not
    necessarily irreducible."""
    if not all(f.is_monic() and f.is_integral() and f.degree >= 1 for f in (p, q)):
        raise ValueError("composedMinPoly needs monic nonconstant integer polynomials")
    n = _composed_degree(p, q)
    sp, sq = _power_sums(p, n + 1), _power_sums(q, n + 1)
    if op == "sum":  # row k of the binomials as running products C(k, i + 1) = C(k, i) (k - i)/(i + 1)
        s = []
        for k in range(n + 1):
            c, acc = 1, 0
            for i in range(k + 1):
                acc += c * sp[i] * sq[k - i]
                c = c * (k - i) // (i + 1)
            s.append(acc)
    elif op == "product":
        s = list(map(mul, sp, sq))
    else:
        raise ValueError(f"unknown composition {op!r}")
    return Poly(from_power_sums(s))


def primitive_element_shift(p: Poly, q: Poly) -> int:
    """Smallest c >= 0 such that theta = alpha + c*beta is primitive for the
    pair of fields defined by p and q (alpha, beta their first roots under
    the conjugate ordering).

    The required inequalities alpha_i + c beta_j != alpha + c beta (j != 1)
    hold when R_c, the composed sum of p and c^m q(y/c) (m = deg q), is
    squarefree; for p == q, R_1 = F_2 Q^2 with F_2(x) = 2^n p(x/2), and c =
    1 when F_2 is prime to Q = prod_{i<j} (x - alpha_i - alpha_j); else
    numerically at escalating precision.  deg(p)*deg(q) is at most
    MAX_DEGREE, and c at most MAX_SHIFT (CertificateNotFound).
    """
    # R_1 is the sum composed_min_poly keeps; a repeated alpha or beta repeats one of its roots
    squarefree = (all(f.is_monic() and f.is_integral() and f.degree >= 1 for f in (p, q))
                  and p.degree * q.degree <= MAX_DEGREE and is_squarefree(composed_min_poly("sum", p, q)))
    for name, f in (("p", p), ("q", q)):
        if not (f.is_monic() and f.is_integral() and f.degree >= 1):
            raise ValueError("need monic integer polynomials")
        # an irreducible polynomial is squarefree; a repeated root stalls the
        # numeric root finder, and a repeated beta defeats every shift c
        if not (squarefree or is_squarefree(f)):
            raise ValueError(f"{name} has a repeated root")
    n = _composed_degree(p, q)
    if q.degree == 1:
        return 0
    NumberField._reject_integer_roots(p)
    NumberField._reject_integer_roots(q)
    fields = None
    # from c = 1: at c = 0, alpha + c*beta_j is the same for every j
    for c in range(1, MAX_SHIFT + 1):
        # R_c, whose roots are the alpha_i + c beta_j; R_1's certificate was taken above
        if squarefree if c == 1 else is_squarefree(composed_min_poly("sum", p, _roots_times(q, c))):
            return c
        if c == 1 and p == q:  # Q's power sums are (s_k(R_1) - 2^k s_k(p))/2
            s, sp = power_sums(composed_min_poly("sum", p, q), n + 1), _power_sums(p, n + 1)
            Q = Poly(from_power_sums([(s[k] - (sp[k] << k)) // 2 for k in range((n - p.degree) // 2 + 1)]))
            if poly_gcd(_roots_times(p, 2), Q).degree == 0:
                return 1
        if not fields:  # p == q shares one field, so its conjugates are found once
            fields = (NumberField(p),) * 2 if p == q else (NumberField(p), NumberField(q))
        if _separation_certified(*fields, c):
            return c
    raise CertificateNotFound(f"no admissible shift found up to {MAX_SHIFT}; inputs degenerate?")


def _roots_times(f: Poly, c: int) -> Poly:
    """c^m f(x/c), m = deg f: monic and integral for such an f, with roots c times its roots."""
    return Poly([a * c ** (f.degree - k) for k, a in enumerate(f.coeffs)])


def _composed_degree(p: Poly, q: Poly) -> int:
    """deg p * deg q, the degree of a composed polynomial, at most MAX_DEGREE."""
    n = p.degree * q.degree
    if n > MAX_DEGREE:
        raise ValueError(f"composed degree {p.degree} * {q.degree} = {n} is over the cap {MAX_DEGREE}")
    return n


def _sign_changes(signs) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _separation_certified(fp: NumberField, fq: NumberField, c: int) -> bool:
    import mpmath

    dps = EMBEDDING_DPS
    while dps <= 4 * EMBEDDING_DPS:
        alphas = fp.embeddings(dps)
        betas = fq.embeddings(dps)
        target = alphas[0] + c * betas[0]
        accept = mpmath.mpf(10) ** (-dps // 2)
        reject = mpmath.mpf(10) ** (-(dps - 10))
        worst = min((abs(a + c * b - target) for a in alphas for b in betas[1:]), default=None)
        if worst is None or worst > accept:
            return True
        if worst < reject:
            return False
        dps *= 2
    raise CertificateNotFound("could not certify root separation; raise precision")
