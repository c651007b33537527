"""Number fields Q(theta) presented by a monic integer polynomial.

Elements are residue polynomials of degree < n; all arithmetic reduces
modulo the defining polynomial and stays exact.  Coefficients, traces,
norms and discriminants are ints when integral and Fractions otherwise
(`polynomial.coefficient`), so an algebraic integer's products, power
sums and determinants run on ints, and every quotient goes through
`polynomial.exact_div`.  The degree is capped at MAX_DEGREE.  Traces,
discriminants, field polynomials and composed polynomials all come from
Newton power sums s_k = theta_1^k + ... + theta_n^k of the roots (Cohen,
GTM 138, section 4.3); norms are Bareiss determinants of multiplication
matrices; the signature comes from a Sturm sequence.  Numerical
embeddings (mpmath, 60 significant digits by default) exist only for
cross-checks and for ordering conjugates; they are never the source of
an exact value.
"""

from __future__ import annotations

import math

from .arith import CertificateNotFound, factorize, power
from .polynomial import (
    Poly,
    coefficient,
    content_and_primitive_part,
    exact_div,
    is_squarefree,
    poly_divmod,
    poly_xgcd,
    squarefree_part,
)

EMBEDDING_DPS = 60
# power sums cost O(n^2) and norms are n x n determinants
MAX_DEGREE = 400
# the shifts c tried by primitive_element_shift
MAX_SHIFT = 1000


# ---------------------------------------------------------------------------
# exact matrix helpers (lists of lists of Fractions / ints)
# ---------------------------------------------------------------------------

def mat_det(m):
    """Exact determinant (int or Fraction).  Rows with a fractional entry
    are scaled to integers, then fraction-free Bareiss elimination keeps
    every intermediate an integer."""
    n = len(m)
    if n == 0:
        return 1
    scale = 1
    a = []
    for row in m:
        row = [coefficient(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        if den != 1:
            scale *= den
            row = [int(x * den) for x in row]
        a.append(row)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, top = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            lead = row[k]
            row[k + 1:] = [(x * pivot - lead * y) // prev for x, y in zip(row[k + 1:], top)]
            row[k] = 0
        prev = pivot
    return exact_div(sign * a[n - 1][n - 1], scale)


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
    n = p.degree
    b = [int(c) for c in reversed(p.coeffs)]
    s = [n]
    for k in range(1, count):
        acc = k * b[k] if k <= n else 0
        for j in range(1, min(k - 1, n) + 1):
            acc += b[j] * s[k - j]
        s.append(-acc)
    return s


def from_power_sums(s) -> Poly:
    """The monic polynomial of degree len(s) - 1 whose roots have power
    sums s_1, s_2, ... (s[0] is ignored): Newton's identities solved for
    b_k = -(s_k + sum_{j=1}^{k-1} b_j*s_{k-j}) / k, ints while the
    quotients are integers."""
    b = [1]
    for k in range(1, len(s)):
        b.append(exact_div(-(s[k] + sum(b[j] * s[k - j] for j in range(1, k))), k))
    return Poly(list(reversed(b)))


# ---------------------------------------------------------------------------
# the field and its elements
# ---------------------------------------------------------------------------

class NumberField:
    """Q(theta) for theta a root of a monic irreducible integer polynomial.

    Irreducibility is an assumed precondition, checked heuristically only:
    no integer roots, plus an Eisenstein certificate when one exists.  The
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
        dividing a0; try every such divisor, built from factorize(a0)."""
        if p.degree == 1:
            return
        a0 = p.coeffs[0]
        if a0 == 0:
            raise ValueError("defining polynomial is divisible by x")
        divisors = [1]
        for q, e in factorize(a0):
            divisors = [d * q**i for d in divisors for i in range(e + 1)]
        # cofactor pairs (d, a0/d) enter in ascending d <= sqrt|a0|; that
        # order fixes which root is reported when there are several
        candidates = set()
        for d in sorted(d for d in divisors if d * d <= abs(a0)):
            candidates.update((d, -d, a0 // d, -(a0 // d)))
        for r in candidates:
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
        then complex roots by (Re, positive Im before negative)."""
        import mpmath

        if self._embeddings is None or self._embeddings[0] < dps:
            with mpmath.workdps(dps + 10):
                coeffs = [mpmath.mpf(int(c)) for c in reversed(self.minpoly.coeffs)]
                roots = [mpmath.mpc(r) for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)]
                eps = mpmath.mpf(10) ** (-dps // 2)
                reals = sorted(
                    (r.real for r in roots if abs(r.imag) < eps),
                    key=lambda r: r,
                )
                cplx = sorted(
                    (r for r in roots if abs(r.imag) >= eps),
                    key=lambda r: (r.real, 0 if r.imag > 0 else 1, abs(r.imag)),
                )
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
            den = math.lcm(*(c.denominator for c in r.coeffs))
            seq.append(content_and_primitive_part(r.scale(-den))[1])
        plus = [1 if p.coeffs[-1] > 0 else -1 for p in seq]
        minus = [s if p.degree % 2 == 0 else -s for s, p in zip(plus, seq)]
        r1 = _sign_changes(minus) - _sign_changes(plus)
        return r1, (self.degree - r1) // 2

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, Poly):
            p = coeffs
        else:
            p = Poly(coeffs)
        _, r = poly_divmod(p, self.minpoly)
        return FieldElement(self, r)

    def zero(self) -> "FieldElement":
        return FieldElement(self, Poly())

    def one(self) -> "FieldElement":
        return FieldElement(self, Poly([1]))

    def theta(self) -> "FieldElement":
        return self.element(Poly([0, 1]))

    def rational(self, c) -> "FieldElement":
        return self.element(Poly([c]))


class FieldElement:
    """An element q(theta), stored as the unique representative of degree < n."""

    __slots__ = ("field", "repr")

    def __init__(self, field: NumberField, rep: Poly):
        if rep.degree >= field.degree:
            raise ValueError("representative not reduced")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "repr", rep)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: "FieldElement"):
        if self.field != other.field:
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
        _, r = poly_divmod(self.repr * other.repr, self.field.minpoly)
        return FieldElement(self.field, r)

    def inverse(self) -> "FieldElement":
        """1/a via the extended gcd of the representative with the minimal
        polynomial: s*repr + t*minpoly = 1 gives s(theta) = 1/a."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        g, s, _ = poly_xgcd(self.repr, self.field.minpoly)
        if g.degree != 0:
            raise ValueError("defining polynomial is reducible: gcd is nonconstant")
        _, r = poly_divmod(s, self.field.minpoly)
        return FieldElement(self.field, r)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.field.one())

    def __repr__(self):
        return f"<{self.repr.to_text()} in {self.field!r}>"

    # -- invariants ----------------------------------------------------------

    def multiplication_matrix(self):
        """Matrix of multiplication by self on the power basis, over Q:
        column j holds the coordinates of self*theta^j."""
        n = self.field.degree
        f = self.field.minpoly.coeffs
        col = [self.repr[i] for i in range(n)]
        cols = [col]
        for _ in range(n - 1):
            # times theta: shift up, then replace theta^n by -(f - x^n)(theta)
            top, col = col[-1], [0] + col[:-1]
            if top:
                col = [c - top * f[i] for i, c in enumerate(col)]
            cols.append(col)
        return [list(row) for row in zip(*cols)]

    def trace_and_norm(self):
        """(trace, norm), computed independently."""
        return self.trace(), self.norm()

    def trace(self):
        """Tr(sum_k c_k theta^k) = sum_k c_k s_k, s_k the field's power sums."""
        s = self.field._power_sums
        return coefficient(sum(c * s[k] for k, c in enumerate(self.repr.coeffs)))

    def norm(self):
        """Bareiss determinant of the multiplication matrix."""
        return mat_det(self.multiplication_matrix())

    def field_polynomial(self) -> Poly:
        """prod_i (x - q(theta_i)), a power of the minimal polynomial: its
        roots have power sums Tr(self^k), turned into coefficients by
        Newton's identities."""
        power, traces = self.field.one(), [self.field.degree]
        for _ in range(self.field.degree):
            power = power * self
            traces.append(power.trace())
        return from_power_sums(traces)

    def minimal_polynomial(self) -> Poly:
        """Monic minimal polynomial over Q: squarefree part of the field
        polynomial, with the power relation f = p**s confirmed exactly."""
        f = self.field_polynomial()
        p = squarefree_part(f)
        s, r = divmod(f.degree, p.degree)
        if r or p**s != f:
            raise ValueError(
                "defining polynomial is reducible: field polynomial is not a power of the minimal one"
            )
        return p

    def is_algebraic_integer(self) -> bool:
        return self.minimal_polynomial().is_integral()

    def conjugate_values(self, dps: int = EMBEDDING_DPS):
        """Numerical conjugates q(theta_i), for cross-checks only."""
        import mpmath

        vals = []
        with mpmath.workdps(dps + 10):
            for th in self.field.embeddings(dps):
                acc = mpmath.mpc(0)
                for c in reversed(self.repr.coeffs):
                    acc = acc * th + mpmath.mpf(c.numerator) / c.denominator
                vals.append(acc)
        return vals


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
    for e in elements:
        if e.field != field:
            raise ValueError("elements live in different fields")
    s = field._power_sums
    hankel = [[s[k + l] for l in range(n)] for k in range(n)]
    coords = mat_det([[e.repr[k] for k in range(n)] for e in elements])
    return coefficient(coords**2 * mat_det(hankel))


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
    for q, _ in factorize(math.lcm(*(c.denominator for c in p.coeffs))):
        e = 0
        for k in range(1, d + 1):
            den, v = p.coeffs[d - k].denominator, 0
            while den % q == 0:
                den //= q
                v += 1
            e = max(e, -(-v // k))
        n *= q**e
    b = a.field.rational(n) * a
    if not b.is_algebraic_integer():
        raise ArithmeticError(f"{n} times the element is not an algebraic integer")
    return n, b


def composed_min_poly(op: str, p: Poly, q: Poly) -> Poly:
    """Monic integer polynomial whose roots are all alpha_i + beta_j (op
    'sum') or alpha_i * beta_j (op 'product'), from the power sums of those
    roots: sum_i C(k,i) s_i(p) s_(k-i)(q) or s_k(p) s_k(q) (Bostan, Flajolet,
    Salvy and Schost 2006).  Degree deg(p)*deg(q), at most MAX_DEGREE; not
    necessarily irreducible."""
    for f in (p, q):
        if not (f.is_monic() and f.is_integral() and f.degree >= 1):
            raise ValueError("composedMinPoly needs monic nonconstant integer polynomials")
    n = _composed_degree(p, q)
    sp, sq = power_sums(p, n + 1), power_sums(q, n + 1)
    if op == "sum":
        s = [sum(math.comb(k, i) * sp[i] * sq[k - i] for i in range(k + 1)) for k in range(n + 1)]
    elif op == "product":
        s = [a * b for a, b in zip(sp, sq)]
    else:
        raise ValueError(f"unknown composition {op!r}")
    out = from_power_sums(s)
    if not out.is_integral():
        raise ArithmeticError("composed polynomial of monic integer polynomials must be integral")
    return out


def primitive_element_shift(p: Poly, q: Poly) -> int:
    """Smallest c >= 0 such that theta = alpha + c*beta is primitive for the
    pair of fields defined by p and q (alpha, beta their first roots under
    the conjugate ordering).

    The required inequalities alpha_i + c beta_j != alpha + c beta (j != 1)
    are certified either exactly, through squarefreeness of the composed
    sum polynomial, or numerically at escalating precision.  deg(p)*deg(q)
    is at most MAX_DEGREE, and c at most MAX_SHIFT (CertificateNotFound).
    """
    for name, f in (("p", p), ("q", q)):
        if not (f.is_monic() and f.is_integral() and f.degree >= 1):
            raise ValueError("need monic integer polynomials")
        # an irreducible polynomial is squarefree; a repeated root stalls the
        # numeric root finder, and a repeated beta defeats every shift c
        if not is_squarefree(f):
            raise ValueError(f"{name} has a repeated root")
    _composed_degree(p, q)
    if q.degree == 1:
        return 0
    fp, fq = NumberField(p), NumberField(q)
    # from c = 1: at c = 0, alpha + c*beta_j is the same for every j
    for c in range(1, MAX_SHIFT + 1):
        if _composed_sum_squarefree(p, q, c) or _separation_certified(fp, fq, c):
            return c
    raise CertificateNotFound(f"no admissible shift found up to {MAX_SHIFT}; inputs degenerate?")


def _composed_degree(p: Poly, q: Poly) -> int:
    """deg p * deg q, the degree of a composed polynomial, at most MAX_DEGREE."""
    n = p.degree * q.degree
    if n > MAX_DEGREE:
        raise ValueError(f"composed degree {p.degree} * {q.degree} = {n} is over the cap {MAX_DEGREE}")
    return n


def _composed_sum_squarefree(p: Poly, q: Poly, c: int) -> bool:
    # roots of qq are c * (roots of q): c^n q(x/c), still monic and integral
    n = q.degree
    qq = Poly([q.coeffs[i] * c ** (n - i) for i in range(n + 1)])
    return is_squarefree(composed_min_poly("sum", p, qq))


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
        worst = None
        for a in alphas:
            for b in betas[1:]:
                sep = abs(a + c * b - target)
                if worst is None or sep < worst:
                    worst = sep
        if worst is None or worst > accept:
            return True
        if worst < reject:
            return False
        dps *= 2
    raise CertificateNotFound("could not certify root separation; raise precision")
