"""Counting ideals of a quadratic ring by norm.

Ideals factor uniquely into prime ideals, so the count of ideals of norm
exactly n is multiplicative, with local factors read off the splitting type
of each prime:

    split q    : j + 1 ideals of norm q^j
    inert q    : 1 if j is even, else 0
    ramified q : exactly 1 for every j

Their series is the Euler product over the prime ideals p, prod
1/(1 - N(p)^-s) = zeta(s) L(s, chi_d), chi_d the Kronecker character of d
(1 split, -1 inert, 0 ramified; Cohen GTM 138, 5.3 and 5.10).

One kernel multiplies it out on one row, from 1 at n = 1.  The row holds
the odd n only, lane i for n = 2 i + 1.  A prime ideal of odd norm Q runs
row[Q t] += row[t] for odd t ascending, lane j of t into lane
Q j + (Q - 1)/2: a split q runs twice, a ramified q once, and an inert q
once at q^2, the norm of the ideal (q).  The prime 2 enters last, as the
spread a(2^v m) = a(2^v) a(m) over odd m.

The splitting of each odd prime q <= k is one byte, chi_d(q) + 1, on the
lanes of the odd sieve.  d is fundamental, so chi_d is a character mod |d|,
and when |d| <= k one period of it on the odd lanes (|d| lanes for odd d,
|d|/2 for even d) is built by complete multiplicativity from one symbol
arith.kronecker(d, q) per prime q below |d|, repeated, and ANDed with the
sieve flags (0xFF at a prime).  A larger |d| takes one symbol per odd prime
up to k.

The coefficients are packed in lanes, and a block of a pass is one
big-integer add of two runs of lanes.  The kernel only ever adds, so each
partial coefficient counts a subset of the ideals of norm n: it lies in
[0, d(n)], and no lane carries.  The row is a bytearray of byte lanes when
k is below BYTE_LANES_BELOW = 1081080, the least n with d(n) > 255 (below
it d(n) <= 240, reached at 720720), and an array of 16-bit lanes above
(d(n) <= 768 for n <= 10^8).

A prime q > sqrt(k) divides n <= k at most once, and a product of two
such primes exceeds k.  The passes commute, so these primes run first, on
the series 1, where their passes only set lane (q - 1) / 2 to
chi_d(q) + 1, the number of prime ideals over q.  So the row starts as
that mask, which lists no prime above sqrt(k), and the primes up to
sqrt(k) multiply it out.

Per-class counts are lattice points: ideal classes are reduced forms, and
the ideals of norm n in the class of I^-1 correspond to the alpha in I of
norm +-n N(I) up to units (Cohen GTM 138, 5.2 and 5.6; Buchmann and
Vollmer, Binary Quadratic Forms).  In an imaginary field the class counts
are r_f(n)/w for the reduced form f of I, points of the ellipse
f(x, y) <= k.  In a real field they are the points of the sectors between
successive minima of I, one sector per form of the rho-cycle of f, which
tile alpha > 0 over one period.  The points come as runs of values of f
along a line, so a class total Z_C(k) is a sum of run lengths, O(h sqrt(k))
imaginary, and only per_class_counts writes the runs into rows of k + 1.

The cumulative count Z(k) = sum_{e <= k} chi_d(e) floor(k / e) comes from
Dirichlet's hyperbola method (Apostol, Introduction to Analytic Number
Theory, 3.17) in O(sqrt(k) + |d|) when |d| <= k, with the partial sums of
chi_d read off one period, and from the sum of the table otherwise.  It is
compared against the asymptotic density sigma * h with
sigma = 2^(r+1) pi^s rho / (w sqrt|d|); the reported normalized deviation
|Z(k)/k - sigma*h| * sqrt(k) tracks the k^(-1/2) error law without
pretending to know its constant.
"""

from __future__ import annotations

import math
import sys
from array import array
from decimal import Context, Decimal, localcontext
from itertools import accumulate, chain, compress
from operator import itemgetter

from .arith import MAX_TABLE, kronecker, nstr, odd_sieve, pi_decimal, record
from .quadring import ClassGroupReport, QuadraticField, _cycle, class_group
from .units import regulator_decimal, torsion_order

BLOCK = 1 << 14  # lanes per block of a strided pass
BYTE_LANES_BELOW = 1081080  # the least n with d(n) > 255; d(n) <= 240 below it
_ORDER = sys.byteorder  # of the lanes of a 16-bit row
_LOW = 0 if _ORDER == "little" else 1  # the low byte of a 16-bit lane
_NEGATE = bytes.maketrans(b"\0\2", b"\2\0")  # chi + 1 -> -chi + 1


def _check_report(field: QuadraticField, report: ClassGroupReport) -> None:
    if report.field != field:
        raise ValueError(f"the class group of {report.field} does not belong to {field}")


def _check_table_size(entries: int) -> None:
    if entries > MAX_TABLE:
        raise ValueError(f"cutoff needs a table of {entries} entries, over the cap {MAX_TABLE}")


def ideal_count_sieve(field: QuadraticField, k: int) -> list[int]:
    """a[0..k] with a[n] = number of ideals of norm exactly n (a[0] = 0),
    by the Euler product on one row (_euler_product)."""
    if k < 1:
        raise ValueError("cutoff must be at least 1")
    _check_table_size(k + 1)
    return list(_euler_product(field, k))


def _chi_period(d: int, flags: bytearray) -> bytearray:
    """chi_d(n) + 1 for n = 0 .. |d| - 1, by complete multiplicativity from
    one symbol per prime below |d|, given the odd sieve flags up to |d|."""
    modulus = abs(d)
    tile = bytearray([2]) * modulus
    tile[0] = 1
    for q in chain((2,), compress(range(1, modulus, 2), flags)):
        chi = kronecker(d, q)
        if chi == 0:
            tile[::q] = b"\1" * len(range(0, modulus, q))
        elif chi < 0:
            power = q
            while power < modulus:
                tile[power::power] = tile[power::power].translate(_NEGATE)
                power *= q
    return tile


def _chi_lanes(field: QuadraticField, k: int, flags: bytearray) -> bytes:
    """chi_d(q) + 1 at the lane (q - 1) / 2 of every odd prime q <= k, and 0
    at the other lanes, from the odd sieve flags up to k: a tile of one
    period of chi_d when |d| <= k, else one symbol per prime (the module
    docstring)."""
    d = field.d
    modulus = abs(d)
    if modulus > k:
        lanes = bytearray(len(flags))
        for q in compress(range(1, k + 1, 2), flags):
            lanes[q >> 1] = kronecker(d, q) + 1
        return lanes
    tile = _chi_period(d, flags)
    # lane i is n = 2 i + 1: odd n below |d|, then (|d| odd) the even ones
    period = tile[1::2] + tile[::2] if modulus % 2 else tile[1::2]
    del tile
    half = len(flags)
    tiled = int.from_bytes((period * (half // len(period) + 1))[:half], "little")
    return (tiled & int.from_bytes(flags, "little")).to_bytes(half, "little")


def _ideal_total(field: QuadraticField, k: int) -> int:
    """Z(k) = sum of chi_d(e) floor(k / e) over e <= k, by Dirichlet's
    hyperbola method in O(sqrt(k) + |d|): with u = isqrt(k) and
    S(x) = chi_d(1) + ... + chi_d(x),

        Z(k) = sum_{e <= u} chi_d(e) floor(k / e) + sum_{f <= u} S(floor(k / f)) - u S(u).

    chi_d is a nonprincipal character mod |d|, so S(|d|) = 0 and S(x) is
    read off the prefix sums of one period at x mod |d|."""
    modulus = abs(field.d)
    tile = _chi_period(field.d, odd_sieve(modulus))
    u = math.isqrt(k)
    quotients = [k // f for f in range(1, u + 1)]
    # S(r) for every residue needed, in one ascending sweep of the period
    partial = {}
    s = lo = 0
    for r in sorted({x % modulus for x in quotients} | {u % modulus}):
        s += tile.count(2, lo, r + 1) - tile.count(0, lo, r + 1)
        partial[r] = s
        lo = r + 1
    head = sum((tile[e % modulus] - 1) * x for e, x in enumerate(quotients, 1))
    return head + sum(partial[x % modulus] for x in quotients) - u * partial[u % modulus]


def _as_row(size: int, data):
    """data, lanes of size bytes, as a row or a slice value for one: as it is
    for a bytearray (which has no itemsize), in an array("H") for 16 bits."""
    return data if size == 1 else array("H", data)


def _euler_product(field: QuadraticField, k: int):
    """row[n] = ideals of norm n <= k by the Euler product of the module
    docstring, its passes in strided blocks of fewer than BLOCK lanes whose
    every read is final: a bytearray when k < BYTE_LANES_BELOW, where every
    count is at most d(n) <= 240, else a 16-bit array ("H")."""
    root = math.isqrt(k)
    flags = odd_sieve(k)
    chis = _chi_lanes(field, k, flags)
    size = 1 if k < BYTE_LANES_BELOW else 2
    first = (root + 1) // 2  # the lane of the first odd q > sqrt(k)
    # lane i counts the chi_d(q) + 1 prime ideals over q = 2 i + 1 > sqrt(k)
    row = bytearray(size * len(chis))
    row[size * first + _LOW :: size] = chis[first:]
    row = _as_row(size, row)
    row[0] = 1
    for q in compress(range(1, root + 1, 2), flags):
        chi = chis[q >> 1] - 1  # a pass per prime ideal: of norm q, or q^2 inert
        for norm in (q,) * (chi + 1) if chi >= 0 else (q * q,):
            _multiply(row, norm, k)
    del flags, chis
    return _spread(row, k, kronecker(field.d, 2))


def _spread(row, k: int, chi: int):
    """The row over every n <= k from the odd lanes and the local factor of
    2, chi = chi_d(2): row[2^v m] = a(2^v) row[m] for odd m, with a(2^v) =
    v + 1 if 2 splits, 1 - v mod 2 if it is inert and 1 if it ramifies."""
    size = getattr(row, "itemsize", 1)
    full = _as_row(size, bytearray(size)) * (k + 1)
    for v in range(k.bit_length()):
        count = v + 1 if chi == 1 else (v + 1) % 2 if chi else 1
        if count:
            odd = row[: ((k >> v) + 1) // 2]
            if count > 1:
                odd = (count * int.from_bytes(odd, _ORDER)).to_bytes(size * len(odd), _ORDER)
                odd = _as_row(size, odd)
            full[1 << v :: 2 << v] = odd
    return full


def _multiply(row, q: int, k: int) -> None:
    """row[q t] += row[t] for the odd t <= k // q, ascending, on odd lanes
    (q odd): lane j of t goes to lane q j + (q - 1) / 2."""
    size = getattr(row, "itemsize", 1)
    top = (k // q + 1) // 2  # odd t <= k // q
    shift = q >> 1
    lo = 0
    while lo < top:
        hi = min(top - 1, q * lo + shift - 1, lo + BLOCK - 1)
        lanes = slice(q * lo + shift, q * hi + shift + 1, q)
        dst = int.from_bytes(row[lanes], _ORDER) + int.from_bytes(row[lo : hi + 1], _ORDER)
        row[lanes] = _as_row(size, dst.to_bytes(size * (hi - lo + 1), _ORDER))
        lo = hi + 1


def sigma_decimal(field: QuadraticField, precision: int = 30) -> Decimal:
    """The per-class ideal density 2^(r+1) pi^s rho / (w sqrt|d|) to
    precision + 15 digits.  A real field cross-checks it against
    2 log(lam)/sqrt(m) (m = 1 mod 4) or log(lam)/sqrt(m) to a relative
    10^-precision, raising ArithmeticError if they disagree."""
    digits = precision + 15
    rho = regulator_decimal(field, digits + 10)
    with localcontext(Context(prec=digits)):
        root = Decimal(abs(field.d)).sqrt()
        if field.m < 0:
            return 2 * pi_decimal(digits) * rho / (torsion_order(field) * root)
        sigma = 4 * rho / (torsion_order(field) * root)
        alt = (2 if field.half else 1) * rho / Decimal(field.m).sqrt()
        if abs(sigma - alt) > Decimal(10) ** -precision * max(sigma, alt, 1):
            raise ArithmeticError(f"sigma {sigma} disagrees with {alt}")
        return sigma


def sigma_theoretical(field: QuadraticField, precision: int = 30):
    """sigma_decimal as an mpmath value at precision + 15 digits."""
    import mpmath

    with mpmath.workdps(precision + 15):
        return mpmath.mpf(str(sigma_decimal(field, precision)))


@record
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
    """Z(k) against sigma*h, with optional per-class counts; a report passed
    in must be the class group of this field.  Z(k) is the hyperbola sum
    (_ideal_total) when |d| <= k, else the sum of the sieve, which is built
    either way; the per-class totals, sums of run lengths with no row built
    (_class_totals), must sum to it."""
    return _census_with_counts(field, k, per_class, report, precision, True)[0]


def _census_with_counts(field, k, per_class, report, precision, table):
    """census_check's result together with the sieve a[0..k], built once if
    table is true or Z(k) is its sum (|d| > k), and None if neither; the
    per-class totals are sums of run lengths, never rows."""
    if k < 100:
        raise ValueError("cutoff must be at least 100")
    if report is not None:
        _check_report(field, report)
    _check_table_size(k + 1)  # the sieve's cap, before sigma and the class group
    # before the class group: the fundamental unit's period cap trips first
    sigma = sigma_decimal(field, precision)
    if report is None:
        report = class_group(field)
    h = report.h
    if per_class:  # per_class_counts' cap, before the sieve is built
        _check_table_size(h * (k + 1))
    # the hyperbola sum where chi_d tiles the sieve (|d| <= k), so the
    # per-class check below compares two independent computations
    hyperbola = abs(field.d) <= k
    counts = ideal_count_sieve(field, k) if table or not hyperbola else None
    z_k = _ideal_total(field, k) if hyperbola else sum(counts)
    per = _class_totals(field, k, report) if per_class else None
    if per is not None and sum(per) != z_k:
        raise ArithmeticError(f"per-class counts sum to {sum(per)}, not Z(k) = {z_k}")
    with localcontext(Context(prec=precision + 15)):
        zk = Decimal(z_k) / k
        sigma_h = sigma * h
        dev = abs(zk - sigma_h)
        norm_dev = dev * Decimal(k).sqrt()
    result = CensusResult(
        field.m, k, z_k, h,
        nstr(sigma, precision), nstr(zk, precision), nstr(sigma_h, precision),
        nstr(dev, 10), nstr(norm_dev, 10),
        per,
    )
    return result, counts


def per_class_counts(field: QuadraticField, k: int, report: ClassGroupReport):
    """counts[c][n] = ideals of norm exactly n in class c: the runs of lattice
    points of each class's reduced form (_point_runs), written point by point
    into its row.  census_check sums only the run lengths and builds no row."""
    _check_report(field, report)
    if k < 1:
        raise ValueError("cutoff must be at least 1")
    _check_table_size(report.h * (k + 1))
    pairs = torsion_order(field) // 2
    z = []
    for form in map(report.reduced_form, range(report.h)):
        row = [0] * (k + 1)
        for run in _point_runs(field, k, form):
            _run(row, *run)
        if pairs > 1:
            if any(n % pairs for n in row):
                raise ArithmeticError(f"point counts of {form} are not multiples of w/2")
            row = [n // pairs for n in row]
        z.append(row)
    return z


def _class_totals(field: QuadraticField, k: int, report: ClassGroupReport) -> tuple:
    """Z_C(k) of each class: the run lengths of its form's lattice points
    (_point_runs) summed, in O(h sqrt(k)) imaginary, and divided by w/2."""
    pairs = torsion_order(field) // 2
    z = []
    for form in map(report.reduced_form, range(report.h)):
        total = sum(map(itemgetter(3), _point_runs(field, k, form)))
        if total % pairs:
            raise ArithmeticError(f"point counts of {form} are not multiples of w/2")
        z.append(total // pairs)
    return tuple(z)


def _point_runs(field: QuadraticField, k: int, form: tuple[int, int, int]):
    """Yield the lattice points of the reduced form f = (a, B, C) of a class
    with f <= k as runs (n, step, second, count): count >= 0 values of a
    quadratic from n, first difference step, second difference second.

    An ideal of norm n in the class of I^-1 is (alpha) I^-1 for the alpha in
    I of norm +-n N(I), one per class of associates, and N(x a + y tau) =
    a f(x, y) for I = Z a + Z tau of form f.  The conjugate class of I^-1 is
    the class of I, with the same counts, so class c counts these points for
    the reduced form f of c: w/2 times over in the ellipse f(x, y) <= k, or
    once in the sectors of the rho-cycle of f in a real field.

    A sector is x >= 1, 0 <= y < t x for a form (a, B, C) of the cycle of
    step quotient t, far = f(1, t).  f is the norm form of I in the basis of
    its successive minima mu, mu', and mu + t mu' is the minimum two steps on
    (_generator), so over one period the sectors tile alpha > 0 modulo the
    fundamental unit, with f > 0 on each.  f is concave in y (C < 0), so
    f(x, y) <= k off the open interval from (B x - s) / (2|C|) to
    (B x + s) / (2|C|), s the root of d x^2 + 4 C k rounded up, and for every
    y if that is <= 0.  On the sector f >= min(a, far) x^2, which bounds x.
    """
    d = field.d
    a, big_b, big_c = form
    if d < 0:  # one of each pair (x, y), (-x, -y): y > 0, or y = 0 < x
        yield a, 3 * a, 2 * a, math.isqrt(k // a)  # a x^2 for x >= 1
        y = 1
        while (disc := 4 * a * k + d * y * y) >= 0:
            # f(x, y) <= k  iff  |2 a x + B y| <= isqrt(4 a k + d y^2)
            s = math.isqrt(disc)
            x, x_hi = -((big_b * y + s) // (2 * a)), (s - big_b * y) // (2 * a)
            # f(x + 1, y) - f(x, y) = a (2 x + 1) + B y grows by 2 a
            n = a * x * x + big_b * x * y + big_c * y * y
            yield n, a * (2 * x + 1) + big_b * y, 2 * a, x_hi - x + 1
            y += 1
        return
    cycle = list(_cycle(field, a, big_b))
    for (a, big_b, t, _), (far, *_) in zip(cycle, cycle[2:] + cycle[:2]):
        low = min(a, far)
        if low > k:  # every point of the sector is above k
            continue
        big_c = (big_b * big_b - d) // (4 * a)
        width = -2 * big_c  # 2|C|
        for x in range(1, math.isqrt(k // low) + 1):
            top = t * x
            disc = d * x * x + 4 * big_c * k
            if disc <= 0:
                runs = ((0, top),)
            else:
                s = math.isqrt(disc)
                s += s * s < disc
                lo, hi = (big_b * x - s) // width + 1, -(-(big_b * x + s) // width)
                runs = ((0, min(lo, top)), (hi, top))
            for y, end in runs:
                if end > y:  # f(x, y + 1) - f(x, y) = B x + C (2 y + 1) falls by 2|C|
                    n = a * x * x + big_b * x * y + big_c * y * y
                    yield n, big_b * x + big_c * (2 * y + 1), -width, end - y


def _run(row: list, n: int, step: int, second: int, count: int) -> None:
    """row[f] += 1 for the count values f of a quadratic from n, with first
    difference step and second difference second (none if count <= 0)."""
    if count > 0:
        for f in accumulate(range(step, step + second * (count - 1), second), initial=n):
            row[f] += 1


def checkpoint_ratios(field: QuadraticField, k: int):
    """(k', Z(k')/k') at logarithmic checkpoints, for external plotting."""
    return _checkpoints(ideal_count_sieve(field, k), k)


def _checkpoints(counts: list[int], k: int):
    """checkpoint_ratios from the sieve a[0..k]."""
    # round(10^(i/4)) <= k needs i <= 4 log10(k) < 4 k.bit_length()
    marks = {kp for i in range(4, 4 * k.bit_length()) if (kp := round(10 ** (i / 4))) <= k}
    out = []
    z = prev = 0
    for mark in sorted(marks | {k}):
        z += sum(counts[prev + 1 : mark + 1])
        out.append((mark, z / mark))
        prev = mark
    return out
