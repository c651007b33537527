"""Counting ideals of a quadratic ring by norm.

The count of ideals of norm exactly n is multiplicative, with local factors
read off the splitting type of each prime:

    split q    : j + 1 ideals of norm q^j
    inert q    : 1 if j is even, else 0
    ramified q : exactly 1 for every j

These are the coefficients of the Euler product zeta(s) * L(s, chi_d),
chi_d the Kronecker character of the field discriminant (1 split, -1 inert,
0 ramified), so a(n) = sum of chi_d(e) over e | n (Cohen GTM 138, 5.3 and
5.10).  The sieve builds them one prime at a time: from the all-ones
coefficients of zeta, a prime q <= sqrt(k) contributes the recurrence
a[q t] += chi_d(q) a[t] (t ascending).  Since d is fundamental, chi_d is
periodic mod |d|, and each residue class of primes is classified only once.

The coefficients are packed in 16-bit lanes, and a block of the recurrence
is one big-integer add or subtract of two runs of lanes.  No lane carries
or borrows: after any set of primes, a partial coefficient is a product of
local sums (1, j + 1, or 0 and 1 alternating), so it lies in [0, d(n)],
d(n) <= 768 for n <= 10^8, before and after each step.  A prime q > sqrt(k)
divides n <= k at most once, and a[t q] = (1 + chi_d(q)) a[t] for
t <= sqrt(k), where the prefix is already final: its multiples get a copy of
the doubled prefix (split) or of zeros (inert).

Per-class counts: in an imaginary field the ideals of norm n in the class
of I^-1 correspond, w to one, to the representations of n by the reduced
form f of I, so the class counts are r_f(n)/w, lattice points of the
ellipse f(x, y) <= k (Cohen GTM 138, 5.2; Buell, Binary Quadratic Forms).
Real fields multiply out each prime's local factor in the class group.

The cumulative count Z(k) is compared against the asymptotic density
sigma * h with sigma = 2^(r+1) pi^s rho / (w sqrt|d|); the reported
normalized deviation |Z(k)/k - sigma*h| * sqrt(k) tracks the k^(-1/2)
error law without pretending to know its constant.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate

from .arith import MAX_TABLE, primes_up_to
from .quadring import (
    ClassGroupReport,
    QuadraticField,
    class_group,
    prime_form,
    splitting_kind,
)
from .units import regulator_mp, torsion_order

BLOCK = 1 << 14  # entries per block of the strided recurrence
_CHI = {"split": 1, "inert": -1, "ramified": 0}  # chi_d(q) by splitting type
_ORDER = sys.byteorder  # of the lanes in an array("H")


def _check_table_size(entries: int) -> None:
    if entries > MAX_TABLE:
        raise ValueError(f"cutoff needs a table of {entries} entries, over the cap {MAX_TABLE}")


def ideal_count_sieve(field: QuadraticField, k: int) -> list[int]:
    """a[0..k] with a[n] = number of ideals of norm exactly n (a[0] = 0).

    The coefficients live in 16-bit lanes of an array("H").  A prime
    q <= sqrt(k) runs its recurrence in strided blocks [lo, hi] with
    hi < q lo, so every a[t] read is already final, and fewer than BLOCK
    entries; each block is one big-integer add or subtract of the packed
    lanes a[lo..hi] into the packed lanes a[q lo..q hi].  Once those primes
    are done the prefix a[1..sqrt(k)] is final and a[t q] = (1 + chi_d(q))
    a[t] for a prime q > sqrt(k), so a split q copies the doubled prefix
    into its multiples and an inert q copies zeros.
    """
    if k < 1:
        raise ValueError("cutoff must be at least 1")
    _check_table_size(k + 1)
    a = array("H", [1]) * (k + 1)
    a[0] = 0
    root = math.isqrt(k)
    primes = primes_up_to(k)
    doubled = zeros = None
    # d is fundamental, so chi_d is a character mod |d|: each residue class
    # of q mod |d| is decided once (a prime dividing d is alone in its
    # class); no two primes up to k share a class when |d| > k
    modulus, chars = abs(field.d), {}
    for q in primes:
        chi = chars.get(q % modulus)
        if chi is None:
            chi = _CHI[splitting_kind(field, q)]
            if modulus <= k:
                chars[q % modulus] = chi
        if chi == 0:
            continue
        top = k // q
        if q <= root:
            lo = 1
            while lo <= top:
                hi = min(top, q * lo - 1, lo + BLOCK - 1)
                lanes = slice(q * lo, q * hi + 1, q)
                src = int.from_bytes(a[lo : hi + 1], _ORDER)
                dst = int.from_bytes(a[lanes], _ORDER)
                dst = dst + src if chi == 1 else dst - src
                a[lanes] = array("H", dst.to_bytes(2 * (hi - lo + 1), _ORDER))
                lo = hi + 1
        else:
            if doubled is None:
                doubled = array("H", map((2).__mul__, a[: root + 1]))
                zeros = array("H", bytes(2 * (root + 1)))
            a[q : q * top + 1 : q] = (doubled if chi == 1 else zeros)[1 : top + 1]
    del primes
    return a.tolist()


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
    """Z(k) from the sieve against sigma*h, with optional per-class counts."""
    return _census_with_counts(field, k, per_class, report, precision)[0]


def _census_with_counts(field, k, per_class, report, precision):
    """census_check's result together with the sieve it was computed from."""
    import mpmath

    if k < 100:
        raise ValueError("cutoff must be at least 100")
    counts = ideal_count_sieve(field, k)
    z_k = sum(counts)
    if report is None:
        report = class_group(field)
    h = report.h
    per = tuple(sum(row) for row in per_class_counts(field, k, report)) if per_class else None
    if per is not None and sum(per) != z_k:
        raise ArithmeticError(f"per-class counts sum to {sum(per)}, not Z(k) = {z_k}")
    with mpmath.workdps(precision + 15):
        sigma = sigma_theoretical(field, precision)
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
    forms in an imaginary field, by a multiplicative knapsack over prime
    ideals keyed by class-group element in a real one."""
    _check_table_size(report.h * (k + 1))
    if field.m < 0:
        return _form_counts(field, k, report)
    return _knapsack_counts(field, k, report)


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


def _knapsack_counts(field: QuadraticField, k: int, report: ClassGroupReport):
    """Per-class counts of a real field: each prime's local factor, with the
    class of a split or ramified prime located from its form (q, B)."""
    h = report.h
    table = report.table
    inverse = [row.index(0) for row in table]

    def gpow(g: int, j: int) -> int:
        out = 0
        for _ in range(j):
            out = table[out][g]
        return out

    z = [[0] * (k + 1) for _ in range(h)]
    z[0][1] = 1
    for q in primes_up_to(k):
        kind = splitting_kind(field, q)
        # local factors: list of (prime power, [classes with multiplicity])
        local: list[tuple[int, list[int]]] = []
        if kind == "inert":
            qq = q * q
            pw = qq
            while pw <= k:
                local.append((pw, [0]))
                pw *= qq
        else:
            g = report.form_class(*prime_form(field, q))
            if kind == "ramified":
                pw, j = q, 1
                while pw <= k:
                    local.append((pw, [gpow(g, j)]))
                    pw *= q
                    j += 1
            else:  # split: classes g and g^{-1}
                ginv = inverse[g]
                pw, j = q, 1
                while pw <= k:
                    cls = []
                    for i in range(j + 1):
                        cls.append(table[gpow(g, i)][gpow(ginv, j - i)])
                    local.append((pw, cls))
                    pw *= q
                    j += 1
        if not local:
            continue
        for n in range(1, k // q + 1):
            if n % q == 0:
                continue
            row = [z[c][n] for c in range(h)]
            if not any(row):
                continue
            for pw, classes in local:
                t = n * pw
                if t > k:
                    break
                for c in range(h):
                    v = row[c]
                    if v:
                        for cl in classes:
                            z[table[c][cl]][t] += v
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
