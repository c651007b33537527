"""Independent oracles for every benchmark job.

Nothing here imports quadrantal.  The checks recompute from first
principles: Dirichlet's class-number formulas, Kronecker symbols, reduced
binary quadratic forms, a small lattice (Hermite form) model of quadratic
ideals, exact norm equations, and sympy resultants for number fields.  Each
check_* function takes a job spec and the program's result and returns a
list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# rational integers
# ---------------------------------------------------------------------------


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def discriminant(m: int) -> int:
    """Field discriminant of Q(sqrt(m)), m square-free."""
    return m if m % 4 == 1 else 4 * m


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def chi_table(d: int) -> list[int]:
    """chi_d(a) for a = 0 .. |d|-1; chi_d is periodic mod |d|."""
    return [kronecker(d, a) if a else 0 for a in range(abs(d))]


def torsion_order(m: int) -> int:
    return {-1: 4, -3: 6}.get(m, 2)


def class_number_by_forms(d: int) -> int:
    """Number of reduced primitive forms (a, b, c) of discriminant d < 0."""
    count = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def dirichlet_class_number_imag(m: int) -> Fraction:
    """h = -(w / 2|d|) * sum_{a<|d|} chi(a) a, exactly."""
    d = discriminant(m)
    chi = chi_table(d)
    s = sum(chi[a] * a for a in range(1, -d))
    return Fraction(-torsion_order(m) * s, 2 * -d)


def dirichlet_h_regulator_real(m: int) -> float:
    """h * log(eps) = -1/2 * sum_{a<d} chi(a) log sin(pi a / d)."""
    d = discriminant(m)
    chi = chi_table(d)
    return -0.5 * sum(chi[a] * math.log(math.sin(math.pi * a / d)) for a in range(1, d) if chi[a])


def fundamental_unit(m: int) -> tuple[int, int]:
    """Coordinates (x, y) of the fundamental unit x + y*w > 1 of the ring of
    integers of Q(sqrt(m)), m > 1, from the convergents of w's continued
    fraction (the first convergent p/q with p - q*w a unit)."""
    half = m % 4 == 1
    s = math.isqrt(m)
    p_, q_ = (1, 2) if half else (0, 1)
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        a = (p_ + s) // q_
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if abs(element_norm(m, h1, -k1)) == 1:
            # lambda is the conjugate of p - q*w: p - q + q*w (half basis) or p + q*w
            return (h1 - k1, k1) if half else (h1, k1)
        p_ = a * q_ - p_
        q_ = (m - p_ * p_) // q_


def unit_log(m: int, x: int, y: int) -> float:
    u, v = double_coords(m, x, y)
    return math.log(u) + math.log1p(v / u * math.sqrt(m)) - math.log(2)


def regulator_estimate(m: int) -> float:
    return unit_log(m, *fundamental_unit(m))


# ---------------------------------------------------------------------------
# the ring of integers of Q(sqrt(m)) as a lattice in the basis {1, w}
# ---------------------------------------------------------------------------


def element_norm(m: int, x: int, y: int) -> int:
    if m % 4 == 1:
        return x * x + x * y + y * y * (1 - m) // 4
    return x * x - m * y * y


def double_coords(m: int, x: int, y: int) -> tuple[int, int]:
    """(u, v) with x + y*w = (u + v*sqrt(m)) / 2."""
    return (2 * x + y, y) if m % 4 == 1 else (2 * x, 2 * y)


def element_mul(m: int, e1, e2) -> tuple[int, int]:
    (x1, y1), (x2, y2) = e1, e2
    if m % 4 == 1:  # w^2 = w + (m - 1)/4
        return x1 * x2 + y1 * y2 * (m - 1) // 4, x1 * y2 + x2 * y1 + y1 * y2
    return x1 * x2 + m * y1 * y2, x1 * y2 + x2 * y1


def lattice(vectors) -> tuple[int, int, int]:
    """Hermite basis {(A, 0), (B, C)} of the full-rank sublattice of Z^2
    spanned by the vectors, as (A, B, C) with A, C > 0 and 0 <= B < A."""
    vs = [list(v) for v in vectors if tuple(v) != (0, 0)]
    while sum(1 for v in vs if v[1]) > 1:
        pivot = min((v for v in vs if v[1]), key=lambda v: abs(v[1]))
        for v in vs:
            if v is not pivot and v[1]:
                q = v[1] // pivot[1]
                v[0] -= q * pivot[0]
                v[1] -= q * pivot[1]
    pivot = next(v for v in vs if v[1])
    if pivot[1] < 0:
        pivot = [-pivot[0], -pivot[1]]
    big_a = 0
    for v in vs:
        if v[1] == 0:
            big_a = math.gcd(big_a, v[0])
    if big_a == 0:
        raise ValueError("vectors do not span a full-rank lattice")
    return big_a, pivot[0] % big_a, pivot[1]


def ideal_lattice(m: int, generators) -> tuple[int, int, int]:
    w = (0, 1)
    vecs = []
    for g in generators:
        vecs.append(tuple(g))
        vecs.append(element_mul(m, g, w))
    return lattice(vecs)


def triple_lattice(triple) -> tuple[int, int, int]:
    """The standard form c*(Z*a + Z*(b + w)) as a lattice (c*a, c*b, c)."""
    a, b, c = (int(t) for t in triple)
    return c * a, c * b, c


def lattice_basis(lat):
    big_a, big_b, big_c = lat
    return [(big_a, 0), (big_b, big_c)]


def lattice_product(m: int, lat1, lat2):
    return ideal_lattice(m, [element_mul(m, g, h) for g in lattice_basis(lat1) for h in lattice_basis(lat2)])


def lattice_norm(lat) -> int:
    return lat[0] * lat[2]


def lattice_contains(lat, x: int, y: int) -> bool:
    big_a, big_b, big_c = lat
    return y % big_c == 0 and (x - (y // big_c) * big_b) % big_a == 0


def admissible(m: int, triple) -> bool:
    a, b, c = (int(t) for t in triple)
    return a > 0 and c > 0 and 0 <= b < a and element_norm(m, b, 1) % a == 0


def imag_has_generator(m: int, lat) -> bool:
    """Brute force: does the ideal contain an element of norm N(I)?  (m < 0)"""
    n = lattice_norm(lat)
    half = m % 4 == 1
    ymax = math.isqrt((4 * n if half else n) // -m)
    for y in range(ymax + 1):
        rest = (4 * n if half else n) + m * y * y
        u = math.isqrt(rest)
        if u * u != rest:
            continue
        for uu in {u, -u}:
            if half and (uu - y) % 2:
                continue
            x = (uu - y) // 2 if half else uu
            if lattice_contains(lat, x, y):
                return True
    return False


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------


def check_group(table, structure, h: int) -> list[str]:
    """Composition-table axioms, and invariant factors whose product is h and
    whose |G[n]| counts match the table for every n dividing h."""
    problems = []
    if len(table) != h or any(len(row) != h for row in table):
        return [f"table is not {h}x{h}"]
    rng = range(h)
    if any(table[0][j] != j or table[j][0] != j for j in rng):
        problems.append("class 0 is not the identity")
    if any(table[i][j] != table[j][i] for i in rng for j in rng):
        problems.append("table is not commutative")
    if any(table[table[i][j]][k] != table[i][table[j][k]] for i in rng for j in rng for k in rng):
        problems.append("table is not associative")
    if any(sorted(row) != list(rng) for row in table):
        problems.append("table rows are not permutations (no inverses)")
    structure = [int(s) for s in structure]
    if math.prod(structure) != h:
        problems.append(f"invariant factors {structure} do not multiply to h = {h}")
    if any(s < 2 for s in structure) or any(b % a for a, b in zip(structure, structure[1:])):
        problems.append(f"{structure} is not an invariant-factor chain")
    if problems:
        return problems
    for n in (n for n in range(1, h + 1) if h % n == 0):
        count = 0
        for x in rng:
            y = 0
            for _ in range(n):
                y = table[y][x]
            count += y == 0
        if count != math.prod(math.gcd(n, s) for s in structure):
            problems.append(f"|G[{n}]| = {count} disagrees with structure {structure}")
    return problems


# ---------------------------------------------------------------------------
# ideal counts
# ---------------------------------------------------------------------------


def ideal_count(chi, n: int) -> int:
    """Number of ideals of norm n: sum over d | n of chi(d)."""
    period = len(chi)
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += chi[d % period]
            if d * d != n:
                total += chi[(n // d) % period]
        d += 1
    return total


def ideal_count_sum(chi, k: int) -> int:
    """Z(k) = sum_{a*b <= k} chi(a), by Dirichlet's hyperbola method."""
    period = len(chi)
    prefix = [0]
    for v in chi:
        prefix.append(prefix[-1] + v)

    def big_x(t: int) -> int:  # sum_{a <= t} chi(a)
        return (t // period) * prefix[period] + prefix[t % period + 1]

    s = math.isqrt(k)
    return (
        sum(chi[a % period] * (k // a) for a in range(1, s + 1))
        + sum(big_x(k // b) for b in range(1, s + 1))
        - big_x(s) * s
    )


def sigma_h(m: int, h: int) -> float:
    """sigma * h = 2^(r+1) pi^s h R / (w sqrt|d|), with h R from Dirichlet."""
    d = discriminant(m)
    if m < 0:
        return 2 * math.pi * h / (torsion_order(m) * math.sqrt(-d))
    return 2 * dirichlet_h_regulator_real(m) / math.sqrt(d)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# classgroup
# ---------------------------------------------------------------------------


def check_h(m: int, h: int) -> list[str]:
    if m < 0:
        expected = dirichlet_class_number_imag(m)
        return [] if expected == h else [f"h = {h}, Dirichlet gives {expected}"]
    hr = dirichlet_h_regulator_real(m)
    reg = regulator_estimate(m)
    if not _close(h * reg, hr):
        return [f"h*R = {h * reg!r}, Dirichlet gives {hr!r}"]
    return []


def check_unit(m: int, unit, regulator: str) -> list[str]:
    """unit is the (x, y) coordinates of the reported lambda, or None."""
    if m < 0:
        return [] if unit is None else ["imaginary field reports a fundamental unit"]
    x, y = (int(t) for t in unit)
    problems = []
    if abs(element_norm(m, x, y)) != 1:
        problems.append(f"N(lambda) = {element_norm(m, x, y)}, not +-1")
    u, v = double_coords(m, x, y)
    if not (u > 0 and v > 0):
        problems.append("lambda is not > 1")
    if (x, y) != fundamental_unit(m):
        problems.append(f"lambda = {(x, y)}, expected {fundamental_unit(m)}")
    if not problems and not _close(float(regulator), unit_log(m, x, y), 1e-12):
        problems.append(f"regulator {regulator} is not log(lambda)")
    return problems


_PELL_TARGET = {"plusOne": 1, "minusOne": -1, "plusFour": 4, "minusFour": -4}


def least_pell(m: int, kind: str):
    """Least positive solution from the powers of the fundamental unit."""
    x, y = fundamental_unit(m)
    px, py = 1, 0
    target = _PELL_TARGET[kind]
    for _ in range(12):
        px, py = element_mul(m, (px, py), (x, y))
        u, v = double_coords(m, px, py)
        if u * u - m * v * v != 4 * (1 if target > 0 else -1):
            continue
        if abs(target) == 4:
            return u, v
        if u % 2 == 0 and v % 2 == 0:
            return u // 2, v // 2
    return None


def check_pell(m: int, kind: str, sol) -> list[str]:
    expected = least_pell(m, kind)
    got = None if sol is None else (int(sol[0]), int(sol[1]))
    if got is not None and got[0] ** 2 - m * got[1] ** 2 != _PELL_TARGET[kind]:
        return [f"{kind}: {got} does not solve x^2 - {m} y^2 = {_PELL_TARGET[kind]}"]
    if got != expected:
        return [f"{kind}: got {got}, least solution is {expected}"]
    return []


def check_factorization(m: int, generators, ideal_triple, factors) -> list[str]:
    """The ideal triple is the ideal the generators span, every factor is a
    prime ideal, and the product of the factor powers is the ideal."""
    problems = []
    target = ideal_lattice(m, generators)
    if not admissible(m, ideal_triple) or triple_lattice(ideal_triple) != target:
        return [f"ideal {ideal_triple} is not the ideal generated by {generators}"]
    d = discriminant(m)
    product = (1, 0, 1)
    for triple, v in factors:
        if not admissible(m, triple):
            problems.append(f"factor {triple} is not a standard-form ideal")
            continue
        lat = triple_lattice(triple)
        n = lattice_norm(lat)
        q = math.isqrt(n)
        if is_prime(n):
            if kronecker(d, n) == -1:
                problems.append(f"factor {triple} has norm {n}, but {n} is inert")
        elif not (q * q == n and is_prime(q) and kronecker(d, q) == -1 and lat == (q, 0, q)):
            problems.append(f"factor {triple} of norm {n} is not prime")
        for _ in range(int(v)):
            product = lattice_product(m, product, lat)
    if not problems and product != target:
        problems.append("product of the factors is not the ideal")
    return problems


def check_generator(m: int, triple, gen, h: int | None) -> list[str]:
    lat = triple_lattice(triple)
    if gen is not None:
        x, y = int(gen[0]), int(gen[1])
        if ideal_lattice(m, [(x, y)]) != lat:
            return [f"({x}+{y}w) does not generate {triple}"]
        return []
    if m < 0 and imag_has_generator(m, lat):
        return [f"{triple} is principal, reported not"]
    if m > 0 and h == 1:
        return [f"{triple} reported non-principal with h = 1"]
    return []


def check_classgroup(spec, res) -> list[str]:
    m = spec["m"]
    h = res["h"]
    problems = check_h(m, h)
    problems += check_group(res["table"], res["structure"], h)
    reps = res["reps"]
    if len(reps) != h or list(map(int, reps[0])) != [1, 0, 1]:
        problems.append("representatives are not h ideals starting with (1)")
    if not all(admissible(m, r) for r in reps):
        problems.append("a representative is not a standard-form ideal")
    if res["w"] != torsion_order(m):
        problems.append(f"w = {res['w']}, expected {torsion_order(m)}")
    problems += check_unit(m, res["unit"], res["regulator"])
    for kind, sol in (res.get("pell") or {}).items():
        problems += check_pell(m, kind, sol)
    n, x, y = spec["ideal"]
    problems += check_factorization(m, [(n, 0), (x, y)], res["ideal"], res["factors"])
    for (triple, _), gen in zip(res["factors"], res["generators"]):
        problems += check_generator(m, triple, gen, h)
    return problems


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def check_census(spec, res) -> list[str]:
    m, k = spec["m"], spec["k"]
    chi = chi_table(discriminant(m))
    problems = []
    z = ideal_count_sum(chi, k)
    if res["z_k"] != z:
        problems.append(f"Z({k}) = {res['z_k']}, expected {z}")
    for n, a_n in res["spots"]:
        if ideal_count(chi, n) != a_n:
            problems.append(f"a[{n}] = {a_n}, expected {ideal_count(chi, n)}")
    h = res["h"]
    problems += check_h(m, h)
    if not _close(float(res["sigma_h"]), sigma_h(m, h)):
        problems.append(f"sigma*h = {res['sigma_h']}, expected {sigma_h(m, h)!r}")
    if spec["kind"] == "perclass":
        per, table = res["per_class"], res["table"]
        if len(per) != h or sum(per) != z:
            problems.append(f"per-class counts {per} do not sum to Z(k) = {z}")
        for c in range(len(per)):
            inv = table[c].index(0) if 0 in table[c] else None
            if inv is None or per[c] != per[inv]:
                problems.append(f"Z_C(k) differs between class {c} and its inverse")
                break
    return problems


# ---------------------------------------------------------------------------
# number fields (sympy)
# ---------------------------------------------------------------------------


def _sympy():
    import sympy

    return sympy


def _sp_poly(coeffs, var):
    """sympy Poly over QQ from coefficients given constant term first."""
    sp = _sympy()
    return sp.Poly([sp.Rational(str(c)) for c in reversed(list(coeffs))], var, domain="QQ")


def _as_coeffs(poly) -> list[Fraction]:
    """Constant-term-first Fractions of a sympy Poly."""
    return [Fraction(str(c)) for c in reversed(poly.all_coeffs())]


def _strip(coeffs) -> list[Fraction]:
    cs = [Fraction(str(c)) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def charpoly_of_element(f, e):
    """prod_i (x - e(theta_i)) = Res_y(f(y), x - e(y)) for monic f."""
    sp = _sympy()
    x, y = sp.symbols("x y")
    fy = _sp_poly(f, y).as_expr()
    ey = _sp_poly(e, y).as_expr()
    return sp.Poly(sp.resultant(fy, x - ey, y), x, domain="QQ")


def trace_norm(f, e) -> tuple[Fraction, Fraction]:
    cp = _as_coeffs(charpoly_of_element(f, e))
    n = len(f) - 1
    return -cp[n - 1], (-1) ** n * cp[0]


def composed(op: str, p, q):
    """Res_y(p(y), q(x - y)) for 'sum', Res_y(p(y), y^e q(x/y)) for 'product'."""
    sp = _sympy()
    x, y = sp.symbols("x y")
    py = _sp_poly(p, y).as_expr()
    e = len(q) - 1
    if op == "sum":
        other = sum(sp.Rational(str(c)) * (x - y) ** j for j, c in enumerate(q))
    else:
        other = sum(sp.Rational(str(c)) * x**j * y ** (e - j) for j, c in enumerate(q))
    return sp.Poly(sp.resultant(py, sp.expand(other), y), x, domain="QQ")


def scaled_roots(q, c: int) -> list[int]:
    """c^e q(x/c): the polynomial whose roots are c times those of q."""
    e = len(q) - 1
    return [int(q[j]) * c ** (e - j) for j in range(e + 1)]


def is_squarefree_poly(poly) -> bool:
    return poly.gcd(poly.diff()).degree() == 0


def check_minpoly(f, e, mp) -> list[str]:
    """mp is monic, irreducible over Q, and vanishes at e(theta)."""
    y = _sympy().symbols("y")
    p = _sp_poly(mp, y)
    if p.LC() != 1 or not p.is_irreducible:
        return [f"minimal polynomial {mp} is not monic irreducible"]
    if not p.compose(_sp_poly(e, y)).rem(_sp_poly(f, y)).is_zero:
        return [f"minimal polynomial {mp} does not vanish at the element"]
    return []


def ordered_roots(coeffs, dps: int):
    """Roots of the polynomial (constant term first) at dps digits: real
    roots ascending, then complex roots by real part, upper before lower."""
    import mpmath

    with mpmath.workdps(dps):
        roots = mpmath.polyroots([int(c) for c in reversed(coeffs)], maxsteps=400, extraprec=4 * dps)
        eps = mpmath.mpf(10) ** (-dps // 2)
        reals = sorted(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < eps)
        cplx = sorted((r for r in roots if abs(mpmath.im(r)) >= eps),
                      key=lambda r: (mpmath.re(r), 0 if mpmath.im(r) > 0 else 1))
        return [mpmath.mpc(r) for r in reals] + cplx


def separation(p, q, c: int, dps: int = 80):
    """min |alpha_i + c beta_j - (alpha_1 + c beta_1)| over all i and j != 1."""
    import mpmath

    alphas, betas = ordered_roots(p, dps), ordered_roots(q, dps)
    with mpmath.workdps(dps):
        target = alphas[0] + c * betas[0]
        return min(abs(a + c * b - target) for a in alphas for b in betas[1:])


def primitive_at(p, q, c: int) -> bool:
    """alpha_1 + c*beta_1 generates Q(alpha_1, beta_1): exactly when the
    composed sum is squarefree, else by a numerical separation at 80 digits."""
    if is_squarefree_poly(composed("sum", p, scaled_roots(q, c))):
        return True
    return separation(p, q, c) > 1e-30


def check_primitive(p, q, c: int) -> list[str]:
    if c < 0:
        return [f"negative shift {c}"]
    if not primitive_at(p, q, c):
        return [f"alpha + {c}*beta is not primitive"]
    for smaller in range(c):
        if primitive_at(p, q, smaller):
            return [f"shift {smaller} < {c} is already primitive"]
    return []


def check_numberfield(spec, res) -> list[str]:
    sp = _sympy()
    f, g = spec["f"], spec["g"]
    problems = []
    for e, (tr, nm) in zip(spec["tn"], res["trace_norm"]):
        exp_tr, exp_nm = trace_norm(f, e)
        if (Fraction(tr), Fraction(nm)) != (exp_tr, exp_nm):
            problems.append(f"trace/norm of {e}: got {(tr, nm)}, expected {(exp_tr, exp_nm)}")
    problems += check_minpoly(f, spec["mp"], res["minpoly"])
    x = sp.symbols("x")
    disc = Fraction(str(sp.discriminant(_sp_poly(f, x))))
    if Fraction(res["discriminant"]) != disc:
        problems.append(f"discriminant {res['discriminant']}, expected {disc}")
    for op in ("sum", "product"):
        if _strip(res[op]) != _as_coeffs(composed(op, f, g)):
            problems.append(f"composed {op} disagrees with the resultant")
    problems += check_primitive(f, g, int(res["shift"]))
    return problems


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# Masley-Montgomery (1976): the m (not 2 mod 4) with Q(zeta_m) of class number 1.
CYCLOTOMIC_CLASS_NUMBER_ONE = [
    3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 24, 25, 27, 28,
    32, 33, 35, 36, 40, 44, 45, 48, 60, 84,
]
# Baker-Heegner-Stark: the imaginary quadratic fields of class number 1.
IMAGINARY_CLASS_NUMBER_ONE = [-1, -2, -3, -7, -11, -19, -43, -67, -163]


def multiplicative_order(a: int, n: int) -> int:
    f, x = 1, a % n
    while x != 1:
        x = x * a % n
        f += 1
    return f


def _check_cli_payload(spec, out) -> list[str]:
    t = spec["template"].removesuffix("_2")
    sp = _sympy() if t.startswith(("poly_", "field_")) else None
    if t == "poly_divrem":
        x = sp.symbols("x")
        q, r = sp.div(_sp_poly(spec["a"], x), _sp_poly(spec["b"], x))
        ok = _strip(out["quotient"]) == _as_coeffs(q) and _strip(out["remainder"]) == (
            _as_coeffs(r) if not r.is_zero else []
        )
        return [] if ok else ["quotient/remainder disagree with sympy"]
    if t == "poly_gcd":
        x = sp.symbols("x")
        g = sp.gcd(_sp_poly(spec["a"], x), _sp_poly(spec["b"], x)).monic()
        return [] if _strip(out["gcd"]) == _as_coeffs(g) else ["gcd disagrees with sympy"]
    if t == "poly_content":
        c = math.gcd(*spec["p"])
        ok = int(out["content"]) == c and [int(v) for v in out["primitive"]] == [v // c for v in spec["p"]]
        return [] if ok else ["content/primitive part wrong"]
    if t == "poly_eisenstein":
        p = spec["p"]

        def eisenstein_at(q):
            return p[-1] % q != 0 and all(c % q == 0 for c in p[:-1]) and p[0] % (q * q) != 0

        w = out["witness"]
        if w is None:
            ok = p[0] == 0 or not any(eisenstein_at(q) for q in prime_factors(p[0]))
        else:
            ok = is_prime(int(w)) and eisenstein_at(int(w))
        return [] if ok else [f"Eisenstein witness {w} wrong"]
    if t == "poly_cyclotomic":
        return [] if out["poly"] == ["1"] * spec["p"] else ["cyclotomic polynomial wrong"]
    if t == "field_trace_norm":
        exp = trace_norm(spec["f"], spec["e"])
        return [] if (Fraction(out["trace"]), Fraction(out["norm"])) == exp else ["trace/norm wrong"]
    if t == "field_discriminant":
        x = sp.symbols("x")
        disc = Fraction(str(sp.discriminant(_sp_poly(spec["f"], x))))
        return [] if Fraction(out["discriminant"]) == disc else ["discriminant wrong"]
    if t == "field_minpoly":
        problems = check_minpoly(spec["f"], spec["e"], out["minpoly"])
        integral = all(Fraction(c).denominator == 1 for c in out["minpoly"])
        if out["is_algebraic_integer"] != integral:
            problems.append("is_algebraic_integer inconsistent with the minimal polynomial")
        return problems
    if t == "field_compose":
        ok = _strip(out["poly"]) == _as_coeffs(composed(spec["op"], spec["p"], spec["q"]))
        return [] if ok else ["composed polynomial wrong"]
    if t == "field_primitive":
        return check_primitive(spec["p"], spec["q"], int(out["c"]))
    if t == "quad_split":
        m, q = spec["m"], spec["q"]
        k = kronecker(discriminant(m), q)
        kind, efg = {1: ("split", (1, 1, 2)), -1: ("inert", (1, 2, 1)), 0: ("ramified", (2, 1, 1))}[k]
        if out["type"] != kind or (out["e"], out["f"], out["g"]) != efg:
            return [f"splitting type {out['type']} wrong (chi = {k})"]
        lat = (1, 0, 1)
        for fac in out["factors"]:
            tr = [fac["ideal"][key] for key in "abc"]
            if not admissible(m, tr):
                return ["factor is not a standard-form ideal"]
            for _ in range(fac["multiplicity"]):
                lat = lattice_product(m, lat, triple_lattice(tr))
        return [] if lat == (q, 0, q) else ["factors do not multiply to (q)"]
    if t in ("quad_factor", "quad_principal"):
        m, (n, x, y) = spec["m"], spec["ideal"]
        if t == "quad_factor":
            ideal = [out["ideal"][key] for key in "abc"]
            factors = [([f["prime"][key] for key in "abc"], f["multiplicity"]) for f in out["factors"]]
            problems = check_factorization(m, [(n, 0), (x, y)], ideal, factors)
            if out["verification"] != {"product_equals_input": True}:
                problems.append("verification block is not all true")
            return problems
        lat = ideal_lattice(m, [(n, 0), (x, y)])
        if out["principal"]:
            gen = out["generator"]
            ok = ideal_lattice(m, [(gen["a"], gen["b"])]) == lat
            return [] if ok else ["reported generator does not generate the ideal"]
        return ["ideal is principal, reported not"] if imag_has_generator(m, lat) else []
    if t == "quad_classgroup":
        m, h = spec["m"], out["h"]
        problems = check_h(m, h) + check_group(out["table"], out["structure"], h)
        if not all(out["verification"].values()):
            problems.append("verification block is not all true")
        return problems
    if t == "quad_minkowski":
        import mpmath

        m = spec["m"]
        ad = abs(discriminant(m))
        with mpmath.workdps(60):
            val = mpmath.sqrt(ad) / 2 if m > 0 else 2 * mpmath.sqrt(ad) / mpmath.pi
            ok = int(out["floor"]) == int(mpmath.floor(val)) and mpmath.almosteq(
                mpmath.mpf(out["decimal"]), val, rel_eps=mpmath.mpf(10) ** -25
            )
            num, den = (int(v) for v in out["upper_bound"].split("/"))
            ok = ok and mpmath.mpf(num) / den >= val
        return [] if ok else ["Minkowski bound wrong"]
    if t == "units":
        m = spec["m"]
        problems = [] if out["w"] == torsion_order(m) else ["torsion order wrong"]
        if m > 0:
            lam = out["fundamental_unit"]
            problems += check_unit(m, (lam["a"], lam["b"]), out["regulator"])
            cf = out["continued_fraction"]
            if not 1 <= cf["period"] <= len(cf["quotients"]):
                problems.append("continued-fraction period inconsistent")
        return problems
    if t == "pell":
        sol = (out["x"], out["y"]) if out["solvable"] else None
        return check_pell(spec["m"], spec["kind"], sol)
    if t == "cyclo_split":
        m, q = spec["m"], spec["q"]
        k, n = 0, m
        while n % q == 0:
            n, k = n // q, k + 1
        e = euler_phi(q**k) if k else 1
        f = multiplicative_order(q, n) if n > 1 else 1
        g = euler_phi(n) // f
        ok = (out["e"], out["f"], out["g"], out["phi_m"]) == (e, f, g, euler_phi(m))
        return [] if ok else [f"(e, f, g) wrong, expected {(e, f, g)}"]
    if t == "cyclo_lists":
        ok = (out["cyclotomic"] == CYCLOTOMIC_CLASS_NUMBER_ONE
              and out["imaginary_quadratic"] == IMAGINARY_CLASS_NUMBER_ONE)
        return [] if ok else ["class-number-one lists wrong"]
    if t in ("census", "census_csv"):
        m, k = spec["m"], spec["k"]
        chi = chi_table(discriminant(m))
        z = ideal_count_sum(chi, k)
        problems = [] if int(out["Z_k"]) == z else [f"Z({k}) = {out['Z_k']}, expected {z}"]
        problems += check_h(m, out["h"])
        if not _close(float(out["sigma_h"]), sigma_h(m, out["h"])):
            problems.append("sigma*h wrong")
        if t == "census_csv":
            if sum(int(c) for c in out["per_class"]) != z or len(out["per_class"]) != out["h"]:
                problems.append("per-class counts do not sum to Z(k)")
            problems += _check_csv(chi, k, out.get("csv_text"))
        return problems
    raise KeyError(f"no oracle for cli template {t!r}")


def _check_csv(chi, k: int, text) -> list[str]:
    if not text:
        return ["csv file missing"]
    lines = text.splitlines()
    if lines[0] != "k,z_over_k" or len(lines) < 2:
        return ["csv header or rows missing"]
    last = None
    for line in lines[1:]:
        kp, ratio = line.split(",")
        kp = int(kp)
        if float(ratio) != ideal_count_sum(chi, kp) / kp:
            return [f"csv row {line} wrong"]
        last = kp
    return [] if last == k else ["csv does not end at k"]


def _check_text_ring(spec, stdout: str) -> list[str]:
    m = spec["m"]
    r, s = (2, 0) if m > 0 else (0, 1)
    expected = [
        f"m: {m}",
        f"d: {discriminant(m)}",
        f"omega: {'(1+sqrt(m))/2' if m % 4 == 1 else 'sqrt(m)'}",
        "signature:",
        f"  - {r}",
        f"  - {s}",
    ]
    return [] if stdout.splitlines() == expected else ["text output wrong"]


def check_cli(spec, res) -> list[str]:
    code = res["code"]
    if code != spec["expect"]:
        return [f"exit code {code}, expected {spec['expect']}"]
    if "Traceback" in res["stderr"]:
        return ["traceback on stderr"]
    if spec["expect"] != 0:
        return [] if "error" in res["stderr"] else ["no error message on stderr"]
    if spec["template"] == "quad_ring_text":
        return _check_text_ring(spec, res["stdout"])
    try:
        out = json.loads(res["stdout"])
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    out["csv_text"] = res.get("csv")
    return _check_cli_payload(spec, out)


CHECKERS = {
    "classgroup": check_classgroup,
    "census": check_census,
    "numberfield": check_numberfield,
    "cli": check_cli,
}
