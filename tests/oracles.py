"""Independent oracles the tests check library results against.

Everything here recomputes from first principles (direct enumeration,
naive arithmetic) without calling the code paths under test.
"""

from __future__ import annotations

import math


def standard_triples(m: int, kmax: int):
    """Every ideal of norm at most kmax as its standard-form triple
    (a, b, c), by direct enumeration: a*c^2 <= kmax, 0 <= b < a,
    a | N(b + w)."""
    half = m % 4 == 1
    e = (1 - m) // 4 if half else -m  # N(b + w) = b^2 + b*half + e
    for c in range(1, math.isqrt(kmax) + 1):
        for a in range(1, kmax // (c * c) + 1):
            for b in range(a):
                if (b * b + (b if half else 0) + e) % a == 0:
                    yield a, b, c


def hnf_ideal_counts(m: int, kmax: int) -> list[int]:
    """counts[n] = number of ideals of norm exactly n, by direct enumeration
    of admissible standard-form triples (see standard_triples)."""
    counts = [0] * (kmax + 1)
    for a, _, c in standard_triples(m, kmax):
        counts[a * c * c] += 1
    return counts


def squares_mod(q: int) -> set[int]:
    return {x * x % q for x in range(q)}


def units_up_to_height(m: int, height: int):
    """All units a + b*w with |a|, |b| <= height, by the norm criterion."""
    half = m % 4 == 1
    out = []
    for a in range(-height, height + 1):
        for b in range(-height, height + 1):
            if half:
                u, v = 2 * a + b, b
            else:
                u, v = 2 * a, 2 * b
            if abs(u * u - m * v * v) == 4:
                out.append((a, b))
    return out


def real_value(m: int, a: int, b: int) -> float:
    half = m % 4 == 1
    if half:
        return a + b * (1 + math.sqrt(m)) / 2
    return a + b * math.sqrt(m)


def pell_least_solution(m: int, rhs: int, ymax: int = 200):
    """Least positive (x, y) with x^2 - m*y^2 = rhs by brute force over y."""
    for y in range(1, ymax + 1):
        xx = rhs + m * y * y
        if xx <= 0:
            continue
        x = math.isqrt(xx)
        if x * x == xx and x > 0:
            return x, y
    return None


def class_number_by_forms(d: int) -> int:
    """h(d) for d < 0: the number of primitive reduced forms (a, b, c) with
    b^2 - 4ac = d, |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    h = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (c == a and b < 0) or math.gcd(math.gcd(a, b), c) != 1:
                continue
            h += 1
        a += 1
    return h


def reduced_forms(d: int) -> set[tuple[int, int]]:
    """Every reduced form (a, B) of fundamental discriminant d, by direct
    enumeration.  Imaginary: a > 0, -a < B <= a, 4a | B^2 - d, and a < C or
    (a = C and B >= 0) for C = (B^2 - d)/(4a).  Real: r = isqrt(d),
    1 <= a <= r, max(r + 1 - 2a, 2a - r) <= B <= r, 4a | B^2 - d."""
    out = set()
    if d < 0:
        a = 1
        while 3 * a * a <= -d:
            for b in range(-a + 1, a + 1):
                if (b * b - d) % (4 * a) == 0:
                    c = (b * b - d) // (4 * a)
                    if a < c or (a == c and b >= 0):
                        out.add((a, b))
            a += 1
        return out
    r = math.isqrt(d)
    for a in range(1, r + 1):
        for b in range(max(r + 1 - 2 * a, 2 * a - r), r + 1):
            if (b * b - d) % (4 * a) == 0:
                out.add((a, b))
    return out


def kronecker(d: int, n: int) -> int:
    """The Kronecker symbol (d/n) for n > 0."""
    out = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            out = -out
    # Jacobi symbol (d/n), n odd
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def log_fundamental_unit(d: int) -> float:
    """log of the least unit (t + u sqrt(d))/2 > 1 of discriminant d > 0, from
    the convergents p/q of w = (s + sqrt(d))/2 (s = d mod 2): the first with
    N(p - q w) = +-1 exactly."""
    s = d % 2
    r = math.isqrt(d)
    big_p, big_q = s, 2
    p0, p1, q0, q1 = 0, 1, 1, 0
    while True:
        a = (big_p + r) // big_q
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        big_p = a * big_q - big_p
        big_q = (d - big_p * big_p) // big_q
        if p1 * p1 - s * p1 * q1 + q1 * q1 * (s * s - d) // 4 in (1, -1):
            # p - q*conj(w) = (2p - q s + q sqrt(d))/2
            return math.log((2 * p1 - q1 * s + q1 * math.sqrt(d)) / 2)


def real_class_number_analytic(d: int) -> float:
    """h(d) for d > 0 from h log(eps) = -1/2 sum_{0<a<d} chi(a) log sin(pi a/d)."""
    total = sum(kronecker(d, a) * math.log(math.sin(math.pi * a / d)) for a in range(1, d))
    return -total / 2 / log_fundamental_unit(d)


# The decimals the library printed through mpmath, computed as it did: the
# decimal core must reproduce them byte for byte.

def mpmath_minkowski_decimal(d: int, precision: int = 30) -> str:
    """sqrt|d|/2 (d > 0) or 2 sqrt|d|/pi (d < 0) at precision + 10 digits,
    printed to precision digits."""
    import mpmath

    with mpmath.workdps(precision + 10):
        root = mpmath.sqrt(abs(d))
        return mpmath.nstr(root / 2 if d > 0 else 2 * root / mpmath.pi, precision)


def mpmath_log_unit(u: int, v: int, m: int, dps: int):
    """log((u + v sqrt(m))/2) at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        return mpmath.log((u + v * mpmath.sqrt(m)) / 2)


def mpmath_regulator(u: int, v: int, m: int, precision: int = 50) -> str:
    """The regulator log((u + v sqrt(m))/2) printed to precision digits."""
    import mpmath

    with mpmath.workdps(precision + 10):
        return mpmath.nstr(mpmath_log_unit(u, v, m, precision + 10), precision)


def mpmath_census_strings(m, d, w, unit, z_k, h, k, precision=30):
    """sigma, Z(k)/k, sigma h, |Z(k)/k - sigma h| and that times sqrt(k),
    printed as census_check printed them; unit is the (u, v) of the
    fundamental unit of a real field, None for an imaginary one."""
    import mpmath

    with mpmath.workdps(precision + 15):
        if m > 0:
            rho = mpmath_log_unit(*unit, m, precision + 25)
            sigma = 4 * rho / (w * mpmath.sqrt(d))
        else:
            sigma = 2 * mpmath.pi / (w * mpmath.sqrt(-d))
        sigma = +sigma
        zk = mpmath.mpf(z_k) / k
        dev = abs(zk - sigma * h)
        return (
            mpmath.nstr(sigma, precision),
            mpmath.nstr(zk, precision),
            mpmath.nstr(+(sigma * h), precision),
            mpmath.nstr(dev, 10),
            mpmath.nstr(dev * mpmath.sqrt(k), 10),
        )
