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
a[q t] += chi_d(q) a[t] (t ascending), and a larger prime, which divides
n <= k at most once, multiplies its multiples by 1 + chi_d(q).  Since d is
fundamental, chi_d is periodic mod |d|, and each residue class of primes
is classified only once.

The cumulative count Z(k) is compared against the asymptotic density
sigma * h with sigma = 2^(r+1) pi^s rho / (w sqrt|d|); the reported
normalized deviation |Z(k)/k - sigma*h| * sqrt(k) tracks the k^(-1/2)
error law without pretending to know its constant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import mpmath

from .arith import primes_up_to
from .quadring import (
    ClassGroupReport,
    QuadraticField,
    class_group,
    split_prime,
    splitting_kind,
)
from .units import regulator_mp, torsion_order

MAX_TABLE = 10**8  # entries; a list of this many ints is about 800 MB
BLOCK = 1 << 14  # entries per slice in the sieve's temporary lists
_CHI = {"split": 1, "inert": -1, "ramified": 0}  # chi_d(q) by splitting type


def _check_table_size(entries: int) -> None:
    if entries > MAX_TABLE:
        raise ValueError(f"cutoff needs a table of {entries} entries, over the cap {MAX_TABLE}")


def ideal_count_sieve(field: QuadraticField, k: int) -> list[int]:
    """a[0..k] with a[n] = number of ideals of norm exactly n (a[0] = 0).

    A prime q <= sqrt(k) runs its recurrence in strided blocks [lo, hi]
    with hi < q lo, so every a[t] read is already final, and fewer than
    BLOCK entries, so the temporary lists stay small.  Once those primes are
    done, a[t q] = a(t) for a prime q > sqrt(k) (the sqrt(k)-smooth divisors
    of t q are those of t), so the factors 1 + chi_d(q) are gathered in a
    byte multiplier and applied in BLOCK-sized slices.
    """
    if k < 1:
        raise ValueError("cutoff must be at least 1")
    _check_table_size(k + 1)
    a = [1] * (k + 1)
    a[0] = 0
    root = math.isqrt(k)
    primes = primes_up_to(k)
    mult = bytearray([1]) * (k + 1)  # made once the prime flags are freed: no higher peak
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
            op = operator.add if chi == 1 else operator.sub
            lo = 1
            while lo <= top:
                hi = min(top, q * lo - 1, lo + BLOCK - 1)
                a[q * lo : q * hi + 1 : q] = map(op, a[q * lo : q * hi + 1 : q], a[lo : hi + 1])
                lo = hi + 1
        else:
            mult[q::q] = bytes(top) if chi == -1 else b"\x02" * top
    for lo in range(root + 1, k + 1, BLOCK):
        a[lo : lo + BLOCK] = map(operator.mul, a[lo : lo + BLOCK], mult[lo : lo + BLOCK])
    return a


def sigma_theoretical(field: QuadraticField, precision: int = 30):
    """The per-class ideal density 2^(r+1) pi^s rho / (w sqrt|d|) as an
    mpmath value at the requested precision."""
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
    """counts[c][n] = ideals of norm exactly n in class c, by a multiplicative
    knapsack over prime ideals keyed by class-group element."""
    h = report.h
    _check_table_size(h * (k + 1))
    table = report.table

    def gpow(g: int, j: int) -> int:
        out = 0
        for _ in range(j):
            out = table[out][g]
        return out

    inverse = [row.index(0) for row in table]

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
            p = split_prime(field, q).factors[0][0]
            g = report.class_index(p)
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
    z = 0
    it = iter(marks)
    mark = next(it)
    for n in range(1, k + 1):
        z += counts[n]
        while n == mark:
            out.append((mark, z / mark))
            try:
                mark = next(it)
            except StopIteration:
                mark = -1
    return out
