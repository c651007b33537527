"""Independent oracles the tests check library results against.

Everything here recomputes from first principles (direct enumeration,
naive arithmetic) without calling the code paths under test.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path


# The benchmark's oracle module, loaded by path (it imports no quadrantal),
# holds the one copy of the Kronecker symbol (d/n) by reciprocity and of
# h(d) for d < 0 as the number of primitive reduced forms.
_path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("_perfbench_oracles", _path)
_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench)
kronecker, class_number_by_forms = _bench.kronecker, _bench.class_number_by_forms


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

def mpmath_minkowski_decimal(d: int) -> str:
    """sqrt|d|/2 (d > 0) or 2 sqrt|d|/pi (d < 0) at 40 digits, printed to 30."""
    import mpmath

    with mpmath.workdps(40):
        root = mpmath.sqrt(abs(d))
        return mpmath.nstr(root / 2 if d > 0 else 2 * root / mpmath.pi, 30)


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


# The decimal core as it was on the standard decimal module, kept as the
# reference the integer fixed-point core of quadrantal.reals must match.

def decimal_nstr(x, n: int) -> str:
    """A Decimal x to n significant digits as mpmath.nstr(x, n) writes it."""
    from decimal import ROUND_HALF_UP, Context

    if not x:
        return "0.0"
    y = Context(prec=n, rounding=ROUND_HALF_UP).plus(x.copy_abs())
    digits = "".join(map(str, y.as_tuple().digits)).ljust(n, "0")
    exponent, point = y.adjusted(), 1
    if min(-(n // 3), -5) < exponent < n:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            point = exponent + 1
        exponent = 0
    text = ("-" if x < 0 else "") + (digits[:point] + "." + digits[point:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    return text + (f"e{exponent:+d}" if exponent else "")


def decimal_ln_unit(u: int, v: int, m: int, digits: int):
    """ln((u + v sqrt(m))/2) to digits significant digits by Decimal.ln, u
    and v shifted right together to about 4 (digits + 10) + 64 bits."""
    from decimal import Context, Decimal, localcontext

    s = max(0, max(u.bit_length(), v.bit_length()) - 4 * (digits + 10) - 64)
    with localcontext(Context(prec=digits + 5)):
        x = (Decimal(u >> s) + Decimal(v >> s) * Decimal(m).sqrt()) / 2
        out = x.ln() + s * Decimal(2).ln() if s else x.ln()
    return Context(prec=digits).plus(out)


def decimal_pi(digits: int):
    """pi to digits significant digits by Machin's formula in integers."""
    from decimal import Context, Decimal

    def arctan_inverse(x, one):
        term = total = one // x
        x2, n = x * x, 1
        while term:
            term //= x2
            n += 2
            total += -(term // n) if n % 4 == 3 else term // n
        return total

    one = 10 ** (digits + 10)
    return Decimal(16 * arctan_inverse(5, one) - 4 * arctan_inverse(239, one)).scaleb(
        -(digits + 10), Context(prec=digits))


def decimal_sigma(m, d, w, unit, precision=30):
    """The per-class density 2^(r+1) pi^s rho / (w sqrt|d|) at precision + 15
    digits; unit is the (u, v) of the fundamental unit of a real field, None
    for an imaginary one."""
    from decimal import Context, Decimal, localcontext

    digits = precision + 15
    with localcontext(Context(prec=digits)):
        root = Decimal(abs(d)).sqrt()
        if m < 0:
            return 2 * decimal_pi(digits) / (w * root)
        return 4 * decimal_ln_unit(*unit, m, digits + 10) / (w * root)


def decimal_census_strings(m, d, w, unit, z_k, h, k, precision=30):
    """sigma, Z(k)/k, sigma h, |Z(k)/k - sigma h| and that times sqrt(k), as
    census_check printed them from Decimals at precision + 15 digits."""
    from decimal import Context, Decimal, localcontext

    sigma = decimal_sigma(m, d, w, unit, precision)
    with localcontext(Context(prec=precision + 15)):
        zk = Decimal(z_k) / k
        sigma_h = sigma * h
        dev = abs(zk - sigma_h)
        norm_dev = dev * Decimal(k).sqrt()
    return (decimal_nstr(sigma, precision), decimal_nstr(zk, precision), decimal_nstr(sigma_h, precision),
            decimal_nstr(dev, 10), decimal_nstr(norm_dev, 10))
