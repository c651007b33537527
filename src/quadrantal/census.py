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

One kernel multiplies it out on two byte rows of the n prime to 6 (a
wheel): rows[1][i] is n = 6 i + 1, rows[5][i] is n = 6 i + 5.  A prime
ideal of norm Q runs row[Q t] += row[t] for the t prime to 6 ascending,
lane i of rows[r] into lane Q i + (Q r - s)/6 of rows[s], s = Q r mod 6:
a split q runs twice, a ramified q once, an inert q once at q^2, the norm
of (q).  The primes 2 and 3 enter last, as the spread a(2^a 3^b m) =
a(2^a) a(3^b) a(m) over the m prime to 6, c a(m) by translate.

The splitting of a prime q is one byte, chi_d(q) + 1, and d is
fundamental, so chi_d is a character mod |d|.  One tile, chi_d + 1 on
[0, n) for n = min(|d|, k + 1), is built by complete multiplicativity from
one symbol arith.kronecker(d, q) per prime q < n: a period when |d| <= k,
else a prefix.  The rows start as its entries in steps of 6, every chi_d(q)
of the kernel and of Z(k) below is read off it, and the last is kept.

A prime q > sqrt(k) divides n <= k at most once, and a product of two
such primes exceeds k.  The passes commute, so these primes run first, on
the series 1, where they only set the lane of q to its tile entry.  Then
the primes p <= sqrt(k) run from the largest down.  Until p has run, the
entries at its multiples are stale, and passes read them only into other
multiples of p.  p's first pass copies row[p t] = row[t] for each t with no
prime factor below p, as the product so far has no term at a multiple of p
(an inert p zeros its multiples, then copies at p^2).  So no sieve is needed.

A block of a pass is one big-integer add (or copy) of two runs of lanes.
A partial count lies in [0, d(n)], and d(n) <= 144 for the n <= MAX_TABLE
prime to 6 (the least with d(n) > 255 is 929553625): no lane carries.  Only
the spread can pass 255, and not below BYTE_LANES_BELOW = 1081080, the least
n with d(n) > 255 (below it a(n) <= d(n) <= 240).  So below it the spread
writes the table into the byte lanes of one bytearray, handed back as a
memoryview of format "B": 1 byte an entry and no object per entry.  From it
on the lanes are 16-bit, format "H", and the spread also translates the high
bytes of c a(m) into the high bytes of the lanes.

Per-class counts are lattice points: ideal classes are reduced forms, and
the ideals of norm n in the class of I^-1 correspond to the alpha in I of
norm +-n N(I) up to units (Cohen GTM 138, 5.2 and 5.6; Buchmann and
Vollmer, Binary Quadratic Forms).  In an imaginary field the class counts
are r_f(n)/w for the reduced form f of I, points of the ellipse
f(x, y) <= k.  In a real field they are the points of the sectors between
successive minima of I, one per form of the rho-cycle of f (the report's
ClassGroupReport.cycles), which tile alpha > 0 over one period.  The points
come as runs of values of f along a line, so a class total Z_C(k) is a sum
of run lengths, O(h sqrt(k)) imaginary; only per_class_counts writes rows.

The cumulative count Z(k) = sum_{e <= k} chi_d(e) floor(k / e) comes from
Dirichlet's hyperbola method (Apostol, Introduction to Analytic Number
Theory, 3.17) in O(sqrt(k) + min(|d|, k)), with the partial sums of chi_d
read off the tile, so a census builds no table, and h is the order of the
class group's coset walk (forms._cosets), whose h x h table only a
per-class census builds.  Z(k) is compared against the asymptotic density
sigma * h with sigma = 2^(r+1) pi^s rho / (w sqrt|d|); the reported
normalized deviation |Z(k)/k - sigma*h| * sqrt(k) tracks the k^(-1/2)
error law without pretending to know its constant.  forms._cycle resolves
here through the package's forwarder quadrantal._forward.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate, chain, compress
from operator import itemgetter

from . import _forward
from .arith import MAX_TABLE, kronecker, odd_sieve, primes_up_to, record
from .forms import ClassGroupReport, _cosets, _tabulate, class_group  # noqa: F401 (class_group, re-exported)
from .quadring import QuadraticField, torsion_order
from .reals import nstr, pi_scaled

BLOCK = 1 << 14  # lanes of a row per block of a strided pass
BYTE_LANES_BELOW = 1081080  # the least n with d(n) > 255; d(n) <= 240 below it
_NEGATE = bytes.maketrans(b"\0\2", b"\2\0")  # chi + 1 -> -chi + 1


def _check_report(field: QuadraticField, report: ClassGroupReport) -> None:
    if report.field != field:
        raise ValueError(f"the class group of {report.field} does not belong to {field}")


def _check_table_size(entries: int) -> None:
    if entries > MAX_TABLE:
        raise ValueError(f"cutoff needs a table of {entries} entries, over the cap {MAX_TABLE}")


_open = [0]  # census entries running, nested ones included


@contextmanager
def _sharing_tile():
    """Calls inside share _chi_tile's last tile (census_check's Z(k) and sieve),
    and the outermost drops it: no tile of up to 10^8 bytes outlives a census."""
    _open[0] += 1
    try:
        yield
    finally:
        _open[0] -= 1
        if not _open[0]:
            _chi_tile.cache_clear()


@_sharing_tile()
def ideal_count_sieve(field: QuadraticField, k: int) -> memoryview:
    """a[0..k] with a[n] = number of ideals of norm exactly n (a[0] = 0),
    by the Euler product on the rows of the n prime to 6 (_euler_product):
    a memoryview of format "B", 1 byte per entry, for k < BYTE_LANES_BELOW,
    else of format "H", 2 bytes per entry (.tolist() for a list)."""
    if k < 1:
        raise ValueError("cutoff must be at least 1")
    _check_table_size(k + 1)
    return _euler_product(field, k)


@lru_cache(maxsize=1)
def _chi_tile(d: int, n: int) -> bytes:
    """chi_d(i) + 1 for i = 0 .. n - 1 (n <= |d|), by complete
    multiplicativity from one symbol arith.kronecker(d, q) per prime q < n:
    one period of chi_d when n = |d|, a prefix when n < |d|.  The last tile
    is kept while a census entry runs (_sharing_tile)."""
    tile = bytearray([2]) * n
    tile[0] = 1
    for q in chain(range(2, min(n, 3)), compress(range(1, n, 2), odd_sieve(n))):  # q < n
        chi = kronecker(d, q)
        if 2 * q >= n:  # q is its only multiple in the tile but 0
            tile[q] = chi + 1
        elif chi == 0:
            tile[::q] = b"\1" * len(range(0, n, q))
        elif chi < 0:
            power = q
            while power < n:
                tile[power::power] = tile[power::power].translate(_NEGATE)
                power *= q
    return bytes(tile)


def _tile(field: QuadraticField, k: int) -> bytes:
    """The chi_d tile that covers every n <= k: a period if |d| <= k, else [0, k]."""
    return _chi_tile(field.d, min(abs(field.d), k + 1))


def _ideal_total(field: QuadraticField, k: int) -> int:
    """Z(k), the ideals of norm at most k, by _hyperbola on the chi_d tile."""
    return _hyperbola(_tile(field, k), k)


def _hyperbola(tile: bytes, k: int) -> int:
    """Z(k) = sum of chi_d(e) floor(k / e) over e <= k, by Dirichlet's
    hyperbola method in O(sqrt(k) + len(tile)): with u = isqrt(k) and
    S(x) = chi_d(1) + ... + chi_d(x),

        Z(k) = sum_{e <= u} chi_d(e) floor(k / e) + sum_{f <= u} S(floor(k / f)) - u S(u).

    S(x) is read off the prefix sums of the tile at x mod its length: the
    tile is one period of chi_d, a nonprincipal character mod |d| with
    S(|d|) = 0, or a prefix longer than k."""
    modulus = len(tile)
    u = math.isqrt(k)
    quotients = [k // f for f in range(1, u + 1)]
    # S(r) for every residue needed, in one ascending sweep of the tile
    partial = {}
    s = lo = 0
    for r in sorted({x % modulus for x in quotients} | {u % modulus}):
        s += tile.count(2, lo, r + 1) - tile.count(0, lo, r + 1)
        partial[r] = s
        lo = r + 1
    head = sum((tile[e % modulus] - 1) * x for e, x in enumerate(quotients, 1))
    return head + sum(partial[x % modulus] for x in quotients) - u * partial[u % modulus]


def _euler_product(field: QuadraticField, k: int) -> memoryview:
    """a(n) for n <= k by the Euler product of the module docstring: the
    passes on the rows of the n prime to 6, from the largest prime down,
    then the spread over 2^a 3^b."""
    tile = _tile(field, k)
    rows = {r: _chi_row(tile, r, (k + 6 - r) // 6) for r in (1, 5)}
    rows[1][0] = 1
    for q in reversed(primes_up_to(math.isqrt(k))[2:]):
        chi = tile[q % len(tile)] - 1
        if chi < 0:  # inert: no ideal of norm q^j for odd j, one pass at q^2
            for r, row in rows.items():
                start = (q * (q * r % 6) - r) // 6  # q or 5 q, whichever is r mod 6
                row[start::q] = bytes(len(range(start, len(row), q)))
            _multiply(rows, q * q, k, q, False)
        for add in (False, True)[: chi + 1]:  # a pass per prime ideal of norm q
            _multiply(rows, q, k, q, add)
    return _spread(rows, k, tile)


def _chi_row(tile: bytes, r: int, size: int) -> bytearray:
    """chi_d(n) + 1 at n = 6 i + r for i < size, off the tile in steps of 6:
    one slice of a prefix; for a period, up to six slices, each from where
    the last ran off its end, until they make a period of the row."""
    n, row = len(tile), bytearray()
    while len(row) < size:
        start = (r + 6 * len(row)) % n
        if row and start == r % n:  # row holds whole periods: repeat them
            tail = row[: size % len(row)]
            row *= size // len(row)
            row += tail
        else:
            row += tile[start : start + 6 * (size - len(row)) : 6]
    return row


def _multiply(rows: dict, norm: int, k: int, q: int, add: bool) -> None:
    """row[norm n] += row[n] (= row[n] if not add) for n = 1 and the n prime
    to 6 from q to k / norm, ascending, norm = q or q^2 for a prime q > 3:
    n = 6 i + r of rows[r] goes to norm n = 6 (norm i + c) + s of rows[s],
    s = norm r mod 6.  The n below q are stale (module docstring); from q on
    they run in blocks [lo, hi] with hi < norm lo, so every read is final."""
    row, i = rows[norm % 6], norm // 6  # n = 1
    row[i] = row[i] + 1 if add else 1
    top = k // norm
    moves = [(r, rows[r], rows[norm * r % 6], norm * r // 6) for r in (1, 5)]
    lo = q
    while lo <= top:
        hi = min(top, norm * lo - 1, lo + 6 * BLOCK - 1)
        for r, src, dst, c in moves:
            a, b = (lo - r + 5) // 6, (hi - r) // 6 + 1  # lo <= 6 i + r <= hi
            if a < b:
                lanes = slice(norm * a + c, norm * (b - 1) + c + 1, norm)
                if add:
                    total = int.from_bytes(dst[lanes], "little") + int.from_bytes(src[a:b], "little")
                    dst[lanes] = total.to_bytes(b - a, "little")
                else:
                    dst[lanes] = src[a:b]
        lo = hi + 1


def _spread(rows: dict, k: int, tile: bytes) -> memoryview:
    """The table a(n), n <= k, from the rows: a(2^a 3^b m) = c a(m) for m
    prime to 6, c = a(2^a) a(3^b), the low byte of c a(m) by translate.
    Below BYTE_LANES_BELOW every a(n) <= d(n) <= 240 fits a byte lane;
    from it on the lanes are 16-bit native-order, and the high byte of
    c a(m) is translated too."""
    wide = k >= BYTE_LANES_BELOW
    width = 1 + wide  # bytes a lane
    out = bytearray(width * (k + 1))
    lo = wide and sys.byteorder == "big"  # the offset of a lane's low byte
    two, three = (tile[p % len(tile)] - 1 for p in (2, 3))
    for a in range(k.bit_length()):
        for b in range(k.bit_length()):
            n, c = 3**b << a, _local(two, a) * _local(three, b)
            if n > k:
                break
            for r, row in rows.items() if c else ():
                lanes = row[: (k // n + 6 - r) // 6]
                out[width * n * r + lo :: 6 * width * n] = lanes.translate(_planes(c)[0]) if c > 1 else lanes
                if c > 1 and wide:
                    out[2 * n * r + 1 - lo :: 12 * n] = lanes.translate(_planes(c)[1])
    return memoryview(out).cast("H") if wide else memoryview(out)


def _local(chi: int, j: int) -> int:
    """a(p^j) for a prime p of chi_d(p) = chi: j + 1 split, 1 - j mod 2 inert, 1 ramified."""
    return j + 1 if chi == 1 else (j + 1) % 2 if chi else 1


# x = 0 .. 255 in 16-bit little-endian lanes, so c * _LANES holds c x in lane x
_LANES = int.from_bytes(bytes(b for x in range(256) for b in (x, 0)), "little")


# c = a(2^a) a(3^b) <= 130 (a = 12, b = 9) for k <= MAX_TABLE: c x < 2^16
@lru_cache(maxsize=131)  # room for every c <= 130
def _planes(c: int) -> tuple[bytes, bytes]:
    """Translate tables to the low and the high byte of c x, x = 0 .. 255:
    the even and the odd bytes of c * _LANES, whose lanes do not carry."""
    lanes = (c * _LANES).to_bytes(512, "little")
    return lanes[::2], lanes[1::2]


def _sigma(field: QuadraticField, precision: int) -> tuple[int, int]:
    """(s, places) with s = sigma * 10^places within 2, sigma the per-class
    ideal density 2^(r+1) pi^s rho / (w sqrt|d|) > 0.9 / sqrt|d|, so s has
    precision + 25 significant digits at least.  A real field cross-checks it
    against 2 log(lam)/sqrt(m) (m = 1 mod 4) or log(lam)/sqrt(m) to a
    relative 10^-precision, raising ArithmeticError if they disagree; only a
    real field imports units, for its regulator."""
    ad = abs(field.d)
    places = precision + 26 + len(str(ad)) // 2
    guard = places + 10  # pi, rho and the roots carry ten more places
    root = math.isqrt(ad * 100**guard)  # sqrt|d| 10^guard, truncated
    if field.m < 0:
        return 2 * pi_scaled(guard) * 10**places // (torsion_order(field) * root), places
    from .units import regulator_scaled

    rho = regulator_scaled(field, guard)
    sigma = 4 * rho * 10**places // (torsion_order(field) * root)
    alt = (2 if field.half else 1) * rho * 10**places // math.isqrt(field.m * 100**guard)
    if abs(sigma - alt) * 10**precision > max(sigma, alt, 10**places):
        raise ArithmeticError(f"sigma {nstr((sigma, -places), precision + 15)} disagrees with "
                              f"{nstr((alt, -places), precision + 15)}")
    return sigma, places


def sigma_theoretical(field: QuadraticField, precision: int = 30):
    """The per-class ideal density as an mpmath value at precision + 15
    digits: _sigma, with its real-field cross-check."""
    import mpmath

    sigma, places = _sigma(field, precision)
    with mpmath.workdps(precision + 15):
        return mpmath.mpf(sigma) / 10**places


# still importable from here (PEP 562)
__getattr__ = _forward(globals(), {"_cycle": "forms"})


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


@_sharing_tile()
def census_check(
    field: QuadraticField,
    k: int,
    per_class: bool = False,
    report: ClassGroupReport | None = None,
) -> CensusResult:
    """Z(k) against sigma*h at 30 digits, with optional per-class counts; a
    report passed in must be the class group of this field (_census)."""
    result = _census(field, k, per_class, report, 30)
    # the table checks nothing here: only perfbench's SieveCapture reads its
    # spot values, through this module global, until ROADMAP item 8
    ideal_count_sieve(field, k)
    return result


@_sharing_tile()
def _census(field, k, per_class, report, precision) -> CensusResult:
    """census_check's result with no table: Z(k) is the hyperbola sum, h the
    coset walk's order unless a report is passed, and the per-class totals,
    sums of run lengths (_class_totals) in the report's order, must sum to Z(k)."""
    if k < 100:
        raise ValueError("cutoff must be at least 100")
    if report is not None:
        _check_report(field, report)
    _check_table_size(k + 1)  # the cutoff's cap, before sigma and the class group
    # before the class group: the fundamental unit's period cap trips first
    sigma, places = _sigma(field, precision)
    cosets = _cosets(field) if report is None else None  # h with no table
    h = len(cosets[0]) if report is None else report.h
    if per_class:  # per_class_counts' cap, though the totals write no row
        _check_table_size(h * (k + 1))
        report = report or _tabulate(field, cosets)  # the class numbering
    z_k = _ideal_total(field, k)
    per = _class_totals(field, k, report) if per_class else None
    if per is not None and sum(per) != z_k:
        raise ArithmeticError(f"per-class counts sum to {sum(per)}, not Z(k) = {z_k}")
    # Z(k)/k truncated is exact at the half-up boundaries nstr rounds at
    zk, sigma_h = z_k * 10**places // k, sigma * h
    dev = abs(zk - sigma_h)
    root_k = math.isqrt(k * 10**40)  # sqrt(k) 10^20
    return CensusResult(
        field.m, k, z_k, h,
        *(nstr((x, -places), precision) for x in (sigma, zk, sigma_h)),
        nstr((dev, -places), 10), nstr((dev * root_k, -places - 20), 10),
        per,
    )


def per_class_counts(field: QuadraticField, k: int, report: ClassGroupReport):
    """counts[c][n] = ideals of norm exactly n in class c: the runs of lattice
    points of each class's reduced forms (_point_runs), written point by point
    into its row.  census_check sums only the run lengths and builds no row."""
    _check_report(field, report)
    if k < 1:
        raise ValueError("cutoff must be at least 1")
    _check_table_size(report.h * (k + 1))
    pairs = torsion_order(field) // 2
    z = []
    for cycle in report.cycles():
        row = [0] * (k + 1)
        for run in _point_runs(field, k, cycle):
            _run(row, *run)
        if pairs > 1:
            if any(n % pairs for n in row):
                raise ArithmeticError(f"point counts of {cycle[0]} are not multiples of w/2")
            row = [n // pairs for n in row]
        z.append(row)
    return z


def _class_totals(field: QuadraticField, k: int, report: ClassGroupReport) -> tuple:
    """Z_C(k) of each class: the run lengths of its forms' lattice points
    (_point_runs) summed, in O(h sqrt(k)) imaginary, and divided by w/2."""
    pairs = torsion_order(field) // 2
    z = []
    for cycle in report.cycles():
        total = sum(map(itemgetter(3), _point_runs(field, k, cycle)))
        if total % pairs:
            raise ArithmeticError(f"point counts of {cycle[0]} are not multiples of w/2")
        z.append(total // pairs)
    return tuple(z)


def _point_runs(field: QuadraticField, k: int, cycle: list):
    """Yield the points with f <= k of the class whose reduced forms f = (a, B, C) are
    cycle, in walk order (ClassGroupReport.cycles), as runs (n, step, second, count):
    count >= 0 values of a quadratic from n with first and second differences step, second.

    An ideal of norm n in the class of I^-1 is (alpha) I^-1 for the alpha in
    I of norm +-n N(I), one per class of associates, and N(x a + y tau) =
    a f(x, y) for I = Z a + Z tau of form f.  The conjugate class of I^-1 is
    the class of I, with the same counts, so class c counts these points for
    the reduced form f of c: w/2 times over in the ellipse f(x, y) <= k, or
    once in the sectors of the rho-cycle of f in a real field.

    A sector is x >= 1, 0 <= y < t x for a form (a, B, C) of the cycle, t =
    (B + B')/(2a') the quotient of its rho-step to the next form (a', B', C')
    and far = f(1, t).  f is the norm form of I in the basis of its successive
    minima mu, mu', and mu + t mu' is the minimum two steps on (_generator),
    so the sectors of one period tile alpha > 0 modulo the fundamental unit,
    with f > 0 on each.  f is concave in y (C < 0), so
    f(x, y) <= k off the open interval from (B x - s) / (2|C|) to
    (B x + s) / (2|C|), s the root of d x^2 + 4 C k rounded up, and for every
    y if that is <= 0.  On the sector f >= min(a, far) x^2, which bounds x.
    """
    d = field.d
    a, big_b, big_c = cycle[0]  # an imaginary class has one reduced form
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
    for (a, big_b, big_c), (a1, b1, _), (far, *_) in zip(cycle, cycle[1:] + cycle[:1], cycle[2:] + cycle[:2]):
        low = min(a, far)
        if low > k:  # every point of the sector is above k
            continue
        t, width = (big_b + b1) // (2 * a1), -2 * big_c  # 2|C|
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


@_sharing_tile()
def checkpoint_ratios(field: QuadraticField, k: int):
    """(k', Z(k')/k') at logarithmic checkpoints, for external plotting: each
    Z(k') the hyperbola sum on the chi_d tile of k, with no table."""
    if k < 1:
        raise ValueError("cutoff must be at least 1")
    _check_table_size(k + 1)
    tile = _tile(field, k)
    # round(10^(i/4)) <= k needs i <= 4 log10(k) < 4 k.bit_length()
    marks = {kp for i in range(4, 4 * k.bit_length()) if (kp := round(10 ** (i / 4))) <= k}
    return [(mark, _hyperbola(tile, mark) / mark) for mark in sorted(marks | {k})]
