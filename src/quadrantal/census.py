"""Counting ideals of a quadratic ring by norm.

Ideals factor uniquely into prime ideals, so the count of ideals of norm
exactly n is multiplicative, with local factors read off the splitting type
of each prime:

    split q    : j + 1 ideals of norm q^j
    inert q    : 1 if j is even, else 0
    ramified q : exactly 1 for every j

Their series is the Euler product over the prime ideals p, prod
1/(1 - N(p)^-s) = zeta(s) L(s, chi_d), chi_d the Kronecker character of d
(1 split, -1 inert, 0 ramified; Cohen GTM 138, 5.3 and 5.10).  In the group
ring of the class group, prod 1/(1 - [p] N(p)^-s) counts the ideals of norm
n in class c as its coefficient of [c] n^-s.

One kernel multiplies it out on h rows, one per class (h = 1 for the plain
count), from 1 at n = 1 in the principal class.  A prime ideal of class g
and norm Q runs rows[c][Q t] += rows[c g^-1][t] for t ascending: a split q
has two (classes g and g^-1), a ramified q one, and an inert q is the ideal
(q) of norm q^2 in the principal class.

The coefficients are packed in 16-bit lanes, and a block of a pass is one
big-integer add of two runs of lanes.  The kernel only ever adds, so each
partial coefficient counts a subset of the ideals of norm n: it lies in
[0, d(n)], d(n) <= 768 for n <= 10^8, and no lane carries.  A prime
q > sqrt(k) divides n <= k at most once, so once the primes up to sqrt(k)
are done its multiples, still 0, get a copy of the final prefix: the sum of
rows[c g^-1] and rows[c g] for a split q, rows[c g] for a ramified one.  An
inert q > sqrt(k) has no ideal of norm up to k and is skipped.

Per-class counts: in an imaginary field the ideals of norm n in the class
of I^-1 correspond, w to one, to the representations of n by the reduced
form f of I, so the class counts are r_f(n)/w, lattice points of the
ellipse f(x, y) <= k (Cohen GTM 138, 5.2; Buell, Binary Quadratic Forms).
A real field runs the kernel on h rows, each split or ramified prime
located by its form (q, B) and the class group's form -> class dict.

The cumulative count Z(k) is compared against the asymptotic density
sigma * h with sigma = 2^(r+1) pi^s rho / (w sqrt|d|); the reported
normalized deviation |Z(k)/k - sigma*h| * sqrt(k) tracks the k^(-1/2)
error law without pretending to know its constant.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, islice

from .arith import MAX_TABLE, primes_up_to
from .quadring import ClassGroupReport, QuadraticField, class_group, prime_form, splitting_kind
from .units import regulator_mp, torsion_order

BLOCK = 1 << 14  # entries per block of a strided pass
_CHI = {"split": 1, "inert": -1, "ramified": 0}  # chi_d(q) by splitting type
_ORDER = sys.byteorder  # of the lanes in an array("H")


def _check_report(field: QuadraticField, report: ClassGroupReport) -> None:
    if report.field != field:
        raise ValueError(f"the class group of {report.field} does not belong to {field}")


def _check_table_size(entries: int) -> None:
    if entries > MAX_TABLE:
        raise ValueError(f"cutoff needs a table of {entries} entries, over the cap {MAX_TABLE}")


def ideal_count_sieve(field: QuadraticField, k: int) -> list[int]:
    """a[0..k] with a[n] = number of ideals of norm exactly n (a[0] = 0).

    The Euler product on one row, every prime ideal in the one class: a
    prime q <= sqrt(k) runs its pass twice when split, once when ramified
    and once at q^2 when inert, additions only; a larger split q copies the
    doubled prefix into its multiples, a ramified one the prefix itself,
    and an inert one is skipped.
    """
    if k < 1:
        raise ValueError("cutoff must be at least 1")
    _check_table_size(k + 1)
    return _euler_product(field, k)[0].tolist()


def _prime_classes(field: QuadraticField, k: int, report: ClassGroupReport | None):
    """The primes the Euler product uses, grouped by (chi_d(q), class of a
    prime ideal over q), each group ascending: every split or ramified
    q <= k, and the inert q <= sqrt(k).  The class is 0 for an inert q and,
    with no report, for every q."""
    primes = primes_up_to(k)
    # d is fundamental, so chi_d is a character mod |d|: it is decided once
    # per residue class of the primes (a prime dividing d is alone in its
    # class, and when |d| > k every prime is)
    modulus = abs(field.d)
    if modulus <= k:
        residues = list(map(modulus.__rmod__, primes))
        chars = {r: _CHI[splitting_kind(field, q)] + 1 for r, q in dict(zip(residues, primes)).items()}
        chis = bytes(map(chars.__getitem__, residues))  # chi_d(q) + 1, a byte per prime
        del residues
    else:
        chis = bytes(_CHI[splitting_kind(field, q)] + 1 for q in primes)
    # the ramified primes divide d, the inert ones the product uses are small
    upto = {1: k, 0: modulus, -1: math.isqrt(k)}
    split, ramified, inert = (
        list(compress(islice(primes, bisect_right(primes, upto[chi])), map((chi + 1).__eq__, chis)))
        for chi in (1, 0, -1)
    )
    if report is None:
        return {(1, 0): split, (0, 0): ramified, (-1, 0): inert}
    groups = {(-1, 0): inert}
    for chi, qs in ((1, split), (0, ramified)):
        for q in qs:
            groups.setdefault((chi, report.form_class(*prime_form(field, q))), []).append(q)
    return groups


def _euler_product(field: QuadraticField, k: int, report: ClassGroupReport | None = None):
    """rows[c][n] = ideals of norm n <= k in class c, as h arrays("H"), by
    the group-ring Euler product (the module docstring); one row when there
    is no report.

    A pass of a prime ideal of norm Q runs in strided blocks [lo, hi] with
    hi < Q lo, so every entry it reads is final, and fewer than BLOCK
    entries.  The passes commute, so they run group by group.
    """
    table = report.table if report is not None else ((0,),)
    h = len(table)
    inverse = [row.index(0) for row in table]
    groups = _prime_classes(field, k, report)  # first: its temporaries are freed before the rows
    rows = [array("H", bytes(2 * (k + 1))) for _ in range(h)]
    rows[0][1] = 1
    root = math.isqrt(k)
    # the pass of a prime ideal of class g adds class c g^-1 into row c
    sources = [[table[c][inverse[g]] for c in range(h)] for g in range(h)]
    for (chi, g), qs in groups.items():
        for q in qs[: bisect_right(qs, root)]:
            if chi == -1:
                _multiply(rows, q * q, k, sources[0])
            else:
                _multiply(rows, q, k, sources[g])
                if chi == 1:
                    _multiply(rows, q, k, sources[inverse[g]])
    for (chi, g), qs in groups.items():
        if chi == -1:
            continue
        ideals = (g, inverse[g]) if chi == 1 else (g,)
        views = []
        for c in range(h):
            pre = sum(int.from_bytes(rows[sources[i][c]][: root + 1], _ORDER) for i in ideals)
            pre = array("H", pre.to_bytes(2 * (root + 1), _ORDER))
            views.append((memoryview(rows[c]), memoryview(pre)))
        for q in qs[bisect_right(qs, root) :]:
            top = k // q
            for row, pre in views:
                row[q : q * top + 1 : q] = pre[1 : top + 1]
    return rows


def _multiply(rows: list, q: int, k: int, sources) -> None:
    """rows[c][q t] += rows[sources[c]][t] for t = 1 .. k // q, ascending."""
    top = k // q
    lo = 1
    while lo <= top:
        hi = min(top, q * lo - 1, lo + BLOCK - 1)
        lanes = slice(q * lo, q * hi + 1, q)
        blocks = [int.from_bytes(row[lo : hi + 1], _ORDER) for row in rows]
        for row, s in zip(rows, sources):
            dst = int.from_bytes(row[lanes], _ORDER) + blocks[s]
            row[lanes] = array("H", dst.to_bytes(2 * (hi - lo + 1), _ORDER))
        lo = hi + 1


def sigma_theoretical(field: QuadraticField, precision: int = 30):
    """The per-class ideal density 2^(r+1) pi^s rho / (w sqrt|d|) as an
    mpmath value at the requested precision."""
    import mpmath

    r = 1 if field.m > 0 else 0
    s = 0 if field.m > 0 else 1
    w = torsion_order(field)
    with mpmath.workdps(precision + 15):
        rho = regulator_mp(field, precision + 15)
        sigma = 2 ** (r + 1) * mpmath.pi**s * rho / (w * mpmath.sqrt(abs(field.d)))
        if field.m > 0:
            # cross-check the specialised real-quadratic forms 2 log(lam)/sqrt(m)
            # (m = 1 mod 4) and log(lam)/sqrt(m)
            alt = (2 if field.half else 1) * rho / mpmath.sqrt(field.m)
            if not mpmath.almosteq(sigma, alt, rel_eps=mpmath.mpf(10) ** (-precision)):
                raise ArithmeticError(f"sigma {sigma} disagrees with {alt}")
        return +sigma


@dataclass(frozen=True)
class CensusResult:
    m: int
    k: int
    z_k: int
    h: int
    sigma: str
    z_over_k: str
    sigma_h: str
    deviation: str
    normalized_deviation: str
    per_class: tuple | None  # per-class cumulative counts Z_C(k)

    def to_json_dict(self):
        out = {
            "schema_version": 1,
            "m": self.m,
            "k": str(self.k),
            "Z_k": str(self.z_k),
            "h": self.h,
            "sigma_theoretical": self.sigma,
            "z_over_k": self.z_over_k,
            "sigma_h": self.sigma_h,
            "deviation": self.deviation,
            "normalized_deviation": self.normalized_deviation,
        }
        if self.per_class is not None:
            out["per_class"] = [str(z) for z in self.per_class]
        return out


def census_check(
    field: QuadraticField,
    k: int,
    per_class: bool = False,
    report: ClassGroupReport | None = None,
    precision: int = 30,
) -> CensusResult:
    """Z(k) from the sieve against sigma*h, with optional per-class counts;
    a report passed in must be the class group of this field."""
    return _census_with_counts(field, k, per_class, report, precision)[0]


def _census_with_counts(field, k, per_class, report, precision):
    """census_check's result together with the sieve it was computed from."""
    import mpmath

    if k < 100:
        raise ValueError("cutoff must be at least 100")
    if report is not None:
        _check_report(field, report)
    counts = ideal_count_sieve(field, k)
    z_k = sum(counts)
    # before the class group: the fundamental unit's period cap trips first
    sigma = sigma_theoretical(field, precision)
    if report is None:
        report = class_group(field)
    h = report.h
    per = tuple(sum(row) for row in per_class_counts(field, k, report)) if per_class else None
    if per is not None and sum(per) != z_k:
        raise ArithmeticError(f"per-class counts sum to {sum(per)}, not Z(k) = {z_k}")
    with mpmath.workdps(precision + 15):
        zk = mpmath.mpf(z_k) / k
        dev = abs(zk - sigma * h)
        norm_dev = dev * mpmath.sqrt(k)
        result = CensusResult(
            field.m,
            k,
            z_k,
            h,
            mpmath.nstr(sigma, precision),
            mpmath.nstr(zk, precision),
            mpmath.nstr(+(sigma * h), precision),
            mpmath.nstr(dev, 10),
            mpmath.nstr(norm_dev, 10),
            per,
        )
    return result, counts


def per_class_counts(field: QuadraticField, k: int, report: ClassGroupReport):
    """counts[c][n] = ideals of norm exactly n in class c: from the reduced
    forms in an imaginary field, by the group-ring Euler product on h rows
    (additions only; large inert primes skipped) in a real one."""
    _check_report(field, report)
    _check_table_size(report.h * (k + 1))
    if field.m < 0:
        return _form_counts(field, k, report)
    return [row.tolist() for row in _euler_product(field, k, report)]


def _form_counts(field: QuadraticField, k: int, report: ClassGroupReport):
    """Per-class counts of an imaginary field as r_f(n)/w.

    An ideal of norm n in the class of I^-1 is (alpha) I^-1 for w associates
    alpha in I of norm n N(I), and N(x a + y tau) = a f(x, y) for
    I = Z a + Z tau of form f = (a, B, C).  The inverse class has the form
    (a, -B, C), f(x, -y), with the same counts, so the row of class c counts
    the points of f(x, y) <= k for the reduced form f of c: one of each pair
    (x, y), (-x, -y) (y > 0, or y = 0 < x), divided by w/2.
    """
    d = field.d
    pairs = torsion_order(field) // 2
    z = []
    for c in range(report.h):
        a, big_b, big_c = report.reduced_form(c)
        row = [0] * (k + 1)
        for x in range(1, math.isqrt(k // a) + 1):
            row[a * x * x] += 1
        y = 1
        while (disc := 4 * a * k + d * y * y) >= 0:
            # f(x, y) <= k  iff  |2 a x + B y| <= isqrt(4 a k + d y^2)
            s = math.isqrt(disc)
            x, x_hi = -((big_b * y + s) // (2 * a)), (s - big_b * y) // (2 * a)
            if x <= x_hi:
                # f(x + 1, y) - f(x, y) = a (2 x + 1) + B y grows by 2 a
                step = a * (2 * x + 1) + big_b * y
                diffs = range(step, step + 2 * a * (x_hi - x), 2 * a)
                for n in accumulate(diffs, initial=a * x * x + big_b * x * y + big_c * y * y):
                    row[n] += 1
            y += 1
        if pairs > 1:
            if any(n % pairs for n in row):
                raise ArithmeticError(f"point counts of {(a, big_b, big_c)} are not multiples of w/2")
            row = [n // pairs for n in row]
        z.append(row)
    return z


def checkpoint_ratios(field: QuadraticField, k: int):
    """(k', Z(k')/k') at logarithmic checkpoints, for external plotting."""
    return _checkpoints(ideal_count_sieve(field, k), k)


def _checkpoints(counts: list[int], k: int):
    """checkpoint_ratios from the sieve a[0..k]."""
    marks = []
    i = 4
    while True:
        kp = round(10 ** (i / 4))
        if kp > k:
            break
        if not marks or kp > marks[-1]:
            marks.append(kp)
        i += 1
    if not marks or marks[-1] != k:
        marks.append(k)
    out = []
    z = prev = 0
    for mark in marks:
        z += sum(counts[prev + 1 : mark + 1])
        out.append((mark, z / mark))
        prev = mark
    return out
