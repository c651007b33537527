"""Classes of quadratic ideals as binary quadratic forms: reduction, the
rho-cycle, principality and the class group.

The primitive ideal Z*a + Z*(b + w) has the norm form (a, B, C) of
discriminant d, B = 2b (+1 when m = 1 mod 4), C = N(b + w)/a.  One
reduction operator, the rho-step J -> (conj(tau)/N(J)) * J, takes it to the
Gauss-reduced form (imaginary; one per class) or onto the rho-cycle of
reduced ideals (real; the least (a, b) on it stands for the class).
Principality is "reduces to (1)"; the quotients of the steps fold into a
pair of integer convergents that gives the generator, and a whole cycle
folds into the fundamental unit the same way.  Class products are
quadring's Dirichlet composition of forms; the class group grows coset by
coset from the prime forms below the Minkowski bound in O(h) memory, all a
census reads, and only a report adds the h x h table (at most MAX_TABLE
entries) and the invariant factors, the Smith normal form of the
generators' relations.  No float decides any of it (Cohen, GTM 138, 2.4
and 5.3-5.7; Buchmann and Vollmer, Binary Quadratic Forms, ch. 6 and 9).
"""

from __future__ import annotations

import functools
import math

from .arith import MAX_PERIOD, MAX_TABLE, PeriodOverflow, kronecker, primes_up_to, record
from .quadring import (
    QuadIdeal, QuadInt, QuadraticField, _compose, _form, _form_b, prime_form, principal_ideal,
    torsion_units, unit_inverse,
)
from .reals import minkowski_floor


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


def _reduce(field: QuadraticField, a: int, big_b: int, steps: list | None = None) -> tuple[int, int]:
    """(a, B) of a reduced form in the class of the ideal I0 of (a, B).

    N(x*a + y*tau) = a*(a x^2 + B x y + C y^2), so the form is the norm form
    of I0 = Z*a + Z*tau.  Imaginary fields stop at the Gauss-reduced form
    |B| <= a <= C (B >= 0 when a = C), real fields at the first form with
    |sqrt(d) - 2a| < B < sqrt(d).  Each rho-step (a', B', t, s) is appended
    to `steps` when one is given, for is_principal to fold into a generator.
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
        step = _rho(field, r, a, big_b)
        if steps is not None:
            steps.append(step)
        a, big_b, _, _ = step


def _cycle(field: QuadraticField, a: int, big_b: int):
    """The rho-cycle of the reduced real form (a, B): yields (a, B, t, s) for
    every reduced ideal of the class, once, with the quotient t and sign
    s = -1 of the rho-step leaving it.  A cycle of more than MAX_PERIOD
    forms raises PeriodOverflow once MAX_PERIOD have been yielded."""
    r = math.isqrt(field.d)
    start = (a, big_b)
    for _ in range(MAX_PERIOD):
        a2, b2, t, s = _rho(field, r, a, big_b)
        yield a, big_b, t, s
        if (a2, b2) == start:
            return
        a, big_b = a2, b2
    raise PeriodOverflow(f"period exceeds cap {MAX_PERIOD}")


@functools.lru_cache(maxsize=1)  # the last field's only: a cycle at the cap holds about 14 MB
def _principal_cycle(field: QuadraticField) -> tuple:
    """The steps (a, B, t, s) of the rho-cycle of a real field from (1, B), its one reduced form
    of norm 1: the principal class, the fundamental unit and the continued fraction of w read it."""
    return tuple(_cycle(field, *_reduce(field, 1, field.d & 1)))


@functools.lru_cache(maxsize=1)  # beside _principal_cycle: the last field's only
def _cycle_unit(field: QuadraticField) -> QuadInt:
    """The generator folded once round the principal rho-cycle from (1), the
    fundamental unit lam: is_principal balances by it, and
    units.fundamental_unit checks it."""
    cycle = _principal_cycle(field)
    return _generator(field, *cycle[0][:2], cycle)


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
    (a, B), itself (imaginary) or its rho-cycle (real; _principal_cycle at
    a = 1), and the least (a, b) among them, which stands for the class (a
    real cycle holds every primitive ideal of the class below sqrt(d)/2)."""
    if field.d < 0:
        return (a, big_b), [(a, big_b)]
    forms = [s[:2] for s in (_principal_cycle(field) if a == 1 else _cycle(field, a, big_b))]
    return min(forms, key=lambda s: (s[0], _form_b(field, *s))), forms

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
    (1, B, C) (imaginary), or a step of the principal rho-cycle, walked once
    per field (real, _principal_cycle).  The quotients of the rho-steps from
    I0 to it, then round the cycle on to (1), fold into the integer pair of
    one generator of I0 (_generator), times c.  Among its associates the one
    returned has the least y >= 0 in x + y*w, a positive norm before a
    negative one, then the larger x; real fields only take the positive
    associates, and the whole cycle from (1) folds once per field into lam,
    the fundamental unit (_cycle_unit).  The certificate (gen) = I is
    checked.  A principal cycle of more than MAX_PERIOD forms raises
    PeriodOverflow, whatever the class of I.
    """
    if i.is_zero():
        raise ValueError("the zero ideal has no generator")
    field, d = i.field, i.field.d
    a0, big_b0 = _form(i)
    if a0 == 1:
        return field.integer(i.c, 0)
    big_b0 = _normalize(math.isqrt(d) if d > 0 else 0, a0, big_b0)
    a, big_b = _reduce(field, a0, big_b0, steps := [])
    if d < 0:
        if a != 1:
            return None
        alpha = _generator(field, a0, big_b0, steps)
        cands = [alpha * z for z in torsion_units(field)]
    else:
        cycle = _principal_cycle(field)
        j = next((j for j, step in enumerate(cycle) if step[:2] == (a, big_b)), None)
        if j is None:
            return None
        steps += cycle[j:] if j else ()  # the steps from (a, B) round to (1): none from (1)
        cands = _balanced_associates(_generator(field, a0, big_b0, steps), a0, _cycle_unit(field))
    x = min((x for x in cands if x.b >= 0), key=lambda x: (x.b, x.norm() < 0, -x.a))
    gen = field.integer(i.c * x.a, i.c * x.b)
    if principal_ideal(field, gen) != i:
        raise ArithmeticError(f"{gen} does not generate {i}")
    return gen


def _balanced_associates(gen: QuadInt, t: int, unit: QuadInt) -> list[QuadInt]:
    """The positive associates h/lam, h, h*lam of gen, lam = unit > 1 the
    fundamental unit and h the least one with h >= sqrt(t).

    y is proportional to h - t/h (norm t), increasing in h and >= 0 from
    sqrt(t) on, or to h + t/h (norm -t), least near sqrt(t); so every other
    positive associate has a negative y or a larger one than one of these.
    """
    field = gen.field
    inv = unit_inverse(unit)
    h = gen if gen.sign_real() > 0 else -gen

    def below_root_t(x):
        return (x * x - field.integer(t)).sign_real() < 0

    while below_root_t(h):
        h = h * unit
    while not below_root_t(h * inv):
        h = h * inv
    return [h * inv, h, h * unit]


@record(hidden=("forms",))
class ClassGroupReport:
    """The class group: h, one representative per class (the principal
    class first), the composition table of class indices and the invariant
    factors.

    `forms` maps every reduced form (a, B) of discriminant d to the index of
    its class, class by class in walk order (cycles): an imaginary class
    holds one (its Gauss-reduced form), a real class its rho-cycle, rho of
    each form the next and of the last the first; locating an ideal or a
    form is one reduction and a lookup.
    """

    field: QuadraticField
    h: int
    representatives: tuple  # QuadIdeal, principal class first
    table: tuple            # h x h composition table of class indices
    structure: tuple        # invariant factors d1 | d2 | ... (empty for h = 1)
    forms: dict             # (a, B) -> class; not compared, hashed or shown

    def cycles(self) -> list:
        """Each class's reduced forms (a, B, C), by class index, in walk order."""
        out = [[] for _ in range(self.h)]
        for (a, big_b), k in self.forms.items():
            out[k].append((a, big_b, (big_b * big_b - self.field.d) // (4 * a)))
        return out

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


def _invariant_factors(relations) -> tuple:
    """Invariant factors d1 | d2 | ... (1s left out) of Z^r modulo the rows
    of a nonsingular r x r matrix (short rows padded with 0s), its Smith
    normal form: the least entry left pivots, clearing its row and column by
    floor division, until it divides all left (a row it fails on is added in)."""
    r = len(relations)
    m = [[*row, *[0] * (r - len(row))] for row in relations]
    for t in range(r):
        while True:
            _, i, j = min((abs(x), i, j) for i in range(t, r) for j, x in enumerate(m[i]) if j >= t and x)
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            p = m[t][t]
            m[t + 1:] = [[x - row[t] // p * y for x, y in zip(row, m[t])] for row in m[t + 1:]]
            qs = [0] * (t + 1) + [x // p for x in m[t][t + 1:]]
            m[t:] = [[x - q * row[t] for x, q in zip(row, qs)] for row in m[t:]]
            if any(m[t][t + 1:]) or any(row[t] for row in m[t + 1:]):
                continue
            rest = next((row for row in m[t + 1:] if any(x % p for x in row)), None)
            if rest is None:
                break
            m[t] = [x + y for x, y in zip(m[t], rest)]
    return tuple(abs(row[t]) for t, row in enumerate(m) if abs(row[t]) > 1)


def class_group(field: QuadraticField) -> ClassGroupReport:
    """Class group from the primes below the Minkowski bound, coset by coset.

    Prime classes generate the group (every class holds an ideal of norm at
    or below the bound, and such an ideal factors into primes of small
    norm).  A prime form whose reduction misses the form -> class dict lies
    outside the subgroup H met so far and becomes a generator g: it adds the
    cosets H*g, ..., H*g^(e-1), each new class one composition of its parent
    with g (h - 1 in all), its rho-cycle walked once into the dict (_cosets,
    in O(h) memory).  Class x + n*j + z (x < n = |H|, j < e, z past
    H*g^(e-1)) is x*g^j*z, so c*g is c + n, or x*rho + z at j = e - 1 for
    rho = class(g^e) in H: the table rows need no composition, and the
    relations g^e = rho give the invariant factors (Smith normal form,
    checked to multiply to h).  A breadth-first search over the primes,
    replayed on the rows, numbers the classes (_tabulate).  A rho-cycle over
    MAX_PERIOD forms raises PeriodOverflow; the principal cycle is walked
    first.  A table over MAX_TABLE entries raises ValueError before any row.
    """
    return _tabulate(field, _cosets(field))


def _cosets(field: QuadraticField) -> tuple:
    """class_group's coset walk: (reps, forms, gens, primes), the (a, B) of
    each class's representative, the form -> class dict, (|H| before g,
    |H| after g, class of g^e) per generator g and each prime form's class."""
    d = field.d
    forms = {}  # every reduced form met so far -> its class, in coset order
    reps = []   # (a, B) of each class's representative

    def add(key):
        least, cycle = _class_forms(field, *key)
        forms.update(dict.fromkeys(cycle, len(reps)))
        reps.append(least)

    # the principal cycle first: a period over MAX_PERIOD fails before the
    # prime ideals below the Minkowski bound are split
    add(_reduce(field, 1, d & 1))
    gens, primes = [], []  # (|H| before g, |H| after g, class of g^e); each prime form's class
    for q in primes_up_to(minkowski_floor(field)):
        if kronecker(d, q) >= 0:  # an inert (q) is principal, generates nothing
            big_b = prime_form(field, q)[1]  # (q, +-B mod 2q): split_prime's primes
            for b in sorted({big_b % (2 * q), -big_b % (2 * q)}):
                key = _reduce(field, q, b)
                if key not in forms:  # class n = |H| is g, class n + c is c*g
                    n = len(reps)
                    add(key)
                    while (power := _reduce(field, *_compose(d, *reps[-n], q, b)[:2])) not in forms:
                        add(power)
                    gens.append((n, len(reps), forms[power]))
                primes.append(forms[key])
    return reps, forms, gens, primes


def _tabulate(field: QuadraticField, cosets: tuple) -> ClassGroupReport:
    """class_group's report from the coset walk: the table, structure and numbering."""
    reps, forms, gens, primes = cosets
    h = len(reps)
    if h * h > MAX_TABLE:
        raise ValueError(f"class group of order {h} needs a table of {h * h} entries, over the cap {MAX_TABLE}")
    rows = {0: list(range(h))}  # rows[c][x] = class(c*x); each popped as its table row is built
    for n, end, rho in gens:
        sigma = [c + n if c % end < end - n else rows[rho][c % n] + c - c % end for c in range(h)]
        for c in range(n, end):
            rows[c] = list(map(sigma.__getitem__, rows[c - n]))
    structure = _invariant_factors(  # g^(end/n) = rho, rho's digits (rho % top) // k at the earlier g
        [[-(rho % top // k) for k, top, _ in gens[:i]] + [end // n] for i, (n, end, rho) in enumerate(gens)])
    if math.prod(structure) != h:
        raise ArithmeticError(f"invariant factors {structure} of a group of order {h}")
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
    return ClassGroupReport(field, h, reps, table, structure, forms)
