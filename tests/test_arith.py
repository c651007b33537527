import functools
import operator
import random
from fractions import Fraction

import mpmath
import pytest

from quadrantal import integers, quadring
from quadrantal.arith import (
    PI_DIGITS,
    PSI_13,
    CertificateNotFound,
    NotSquareFree,
    check_square_free,
    floor_of_root_quotient,
    is_prime,
    kronecker,
    nstr,
    power,
    primes_up_to,
    record,
)
from quadrantal.numberfield import NumberField
from quadrantal.polynomial import Poly
from quadrantal.quadring import ideal_pow, ideal_product, ring_of_integers, split_prime, unit_ideal
from quadrantal.reals import _PI_BOUNDS, _PI_LO, ln_unit_scaled, pi_scaled

import oracles
from test_classgroup import squarefree_fields


def test_primes_up_to_matches_trial_division():
    primes = []
    for n in range(3001):
        if n >= 2 and all(n % p for p in primes if p * p <= n):
            primes.append(n)
        assert primes_up_to(n) == primes, n


def test_prime_count_at_a_million():
    assert len(primes_up_to(10**6)) == 78498


# psi_k, the least strong pseudoprime to every prime base up to the k-th prime
# (Sorenson and Webster, Math. Comp. 86, 2017): all composite
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
       3825123056546413051, 318665857834031151167461)


def test_psi_12_is_composite():
    assert 399165290221 * 798330580441 == PSI[-1]
    assert not any(map(is_prime, PSI))


def test_psi_13_has_no_certificate():
    # it passes all 13 bases up to 41, which prove nothing at or above it
    assert 1287836182261 * 2575672364521 == PSI_13
    with pytest.raises(CertificateNotFound, match=f"^cannot certify {PSI_13} prime: "):
        is_prime(PSI_13)


def test_is_prime_matches_sympy_below_psi_13():
    # 10^4 seeded n of every size below psi_13 (below 2^81), the psi_k, and
    # the largest prime below psi_13
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    ns = [rng.randrange(2, 2 ** rng.randrange(2, PSI_13.bit_length())) for _ in range(10**4)]
    ns += [*PSI, sympy.prevprime(PSI_13)]
    wrong = [n for n in ns if is_prime(n) != sympy.isprime(n)]
    assert not wrong and sum(map(sympy.isprime, ns)) > 500


def test_pocklington_certifies_above_psi_13():
    # n - 1 = 2 q with q < psi_13 prime; 4 q' + 3 needs the recursion, its
    # cofactor 2 q' + 1 is itself above psi_13; the last n - 1 has too little factored
    n = 3317044064679887385962123
    assert (n - 1) // 2 < PSI_13 and is_prime((n - 1) // 2) and is_prime(n)
    q = 1658522032339943692983521
    assert 2 * q + 1 >= PSI_13 and is_prime(4 * q + 3)
    with pytest.raises(CertificateNotFound, match="^cannot certify 3317044064679887385962177 prime: "):
        is_prime(3317044064679887385962177)


def test_pocklington_fermat_test_refutes():
    # 2 p + 1 = 3^2 * 7 * 421 * ... for a prime p below psi_13: n - 1 is
    # factored, and base 2 fails Fermat
    p = 3317044064679887385961813
    assert is_prime(p) and (2 * p + 1) % 9 == 0
    assert integers._pocklington(2 * p + 1) is False


def test_is_prime_matches_sympy_above_psi_13():
    # seeded n in [psi_13, 10^30), 20 of them primes: every True is prime,
    # every False composite; the rest raise CertificateNotFound
    sympy = pytest.importorskip("sympy")
    rng = random.Random(24)
    ns = [rng.randrange(PSI_13, 10**30) for _ in range(300)]
    ns += [sympy.nextprime(rng.randrange(PSI_13, 10**30)) for _ in range(20)]
    verdicts = {}
    for n in ns:
        try:
            verdicts[n] = is_prime(n)
        except CertificateNotFound:
            pass
    assert all(v == sympy.isprime(n) for n, v in verdicts.items())
    assert len(verdicts) > 300 and sum(verdicts.values()) > 5


def test_kronecker_matches_the_reciprocity_oracle():
    # every fundamental discriminant of |m| <= 2000 at every prime q <= 500,
    # against the Jacobi symbol by reciprocity
    primes = [q for q in range(2, 501) if all(q % p for p in range(2, q))]
    for field in squarefree_fields(-2000, 2000):
        for q in primes:
            assert kronecker(field.d, q) == oracles.kronecker(field.d, q), (field.d, q)


@pytest.mark.parametrize(
    "n, expected",
    [(0, []), (1, []), (2, [2]), (3, [2, 3]), (4, [2, 3]), (9, [2, 3, 5, 7]),
     (25, [2, 3, 5, 7, 11, 13, 17, 19, 23])],
)
def test_edges_of_the_odd_sieve(n, expected):
    assert primes_up_to(n) == expected


# -- power: the one square-and-multiply ---------------------------------------

CBRT2 = NumberField(Poly([-2, 0, 0, 1]))
F5, FM3 = ring_of_integers(5), ring_of_integers(-3)


@pytest.mark.parametrize("x, one", [
    pytest.param(F5.integer(2, -1), F5.integer(1), id="QuadInt m=5"),
    pytest.param(FM3.integer(-1, 2), FM3.integer(1), id="QuadInt m=-3"),
    pytest.param(Poly([Fraction(1, 2), -3, 1]), Poly([1]), id="Poly"),
    pytest.param(CBRT2.element([1, Fraction(-1, 3), 2]), CBRT2.one(), id="FieldElement cbrt2"),
])
def test_power_is_repeated_multiplication(x, one):
    for k in range(21):
        expected = functools.reduce(operator.mul, [x] * k, one)
        assert power(x, k, one) == expected, k
        assert x**k == expected, k


def test_power_squares_only_while_bits_remain():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for k in range(300):
        calls.clear()
        assert power(3, k, 1, mul) == 3**k
        # k.bit_length() - 1 squarings and one product per set bit after the
        # lowest, which starts the result: never a product with the unit 1
        assert len(calls) == max(0, k.bit_length() - 1 + bin(k).count("1") - 1), k
        assert all(1 not in pair for pair in calls), k


def _primes_over(m):
    field = ring_of_integers(m)
    return [p for q in (2, 3, 5, 7, 11, 13) for p, _ in split_prime(field, q).factors]


@pytest.mark.parametrize("m", [-5, 10])
def test_ideal_pow_is_the_repeated_product(m):
    for p in _primes_over(m):
        expected = unit_ideal(p.field)
        for k in range(21):
            assert ideal_pow(p, k) == expected, (m, p, k)
            expected = ideal_product(expected, p)


@pytest.mark.parametrize("m", [-5, 10])
def test_ideal_pow_makes_logarithmically_many_products(m, monkeypatch):
    calls = []
    product = quadring.ideal_product

    def counted(i, j):
        calls.append(1)
        return product(i, j)

    monkeypatch.setattr(quadring, "ideal_product", counted)
    for p in _primes_over(m):
        for k in range(21):
            calls.clear()
            ideal_pow(p, k)
            assert len(calls) <= 2 * k.bit_length(), (m, p, k, len(calls))


# -- exact floors of sqrt quotients ---------------------------------------------

def test_stored_pi_digits_bracket_pi():
    (lo, den), (hi, den_hi) = _PI_BOUNDS
    assert len(str(PI_DIGITS)) == 101 and den == den_hi == 10**100 and hi - lo == 1
    with mpmath.workdps(110):
        assert mpmath.mpf(lo) / den < mpmath.pi < mpmath.mpf(hi) / den
    assert _PI_LO == (314159265358, 10**11)


def _disc(m):
    return m if m % 4 == 1 else 4 * m


def _mp_minkowski_floor(n):
    with mpmath.workdps(80):
        return int(mpmath.floor(2 * mpmath.sqrt(n) / mpmath.pi))


def test_minkowski_floors_match_mpmath_on_small_fields():
    for m in range(-3000, -1):
        try:
            check_square_free(m)
        except NotSquareFree:
            continue
        n = -_disc(m)
        assert floor_of_root_quotient(2, n, *_PI_BOUNDS) == _mp_minkowski_floor(n), m


def test_minkowski_floors_match_mpmath_on_large_fields():
    rng = random.Random(17)
    for _ in range(50):
        m = -rng.randrange(10**6, 10**23)
        n = -_disc(m)
        assert floor_of_root_quotient(2, n, *_PI_BOUNDS) == _mp_minkowski_floor(n), m


def test_unpinned_floor_names_its_bounds():
    # floor(2/x) is 0 at x = 3 but 2 at x = 1
    with pytest.raises(CertificateNotFound, match="is 0 at x = 3 but 2 at x = 1"):
        floor_of_root_quotient(1, 4, (1, 1), (3, 1))


# -- the decimal core -------------------------------------------------------------

def test_pi_scaled_pins_the_stored_digits():
    assert pi_scaled(110) // 10**10 == PI_DIGITS
    with mpmath.workdps(1100):
        assert nstr((pi_scaled(1010), -1010), 1000) == mpmath.nstr(mpmath.pi, 1000)


def test_nstr_matches_mpmath():
    # random values with more digits than n + 3, so no value is a tie,
    # across the fixed-point window and both exponent forms
    rng = random.Random(18)
    for _ in range(3000):
        n = rng.choice((1, 2, 3, 5, 10, 30, 50))
        mantissa = rng.choice((1, -1)) * rng.randrange(10 ** (n + 4), 10 ** (n + 30))
        exponent = rng.randint(-n - 40, 30)
        with mpmath.workdps(n + 40):
            expected = mpmath.nstr(mpmath.mpf(f"{mantissa}e{exponent}"), n)
        assert nstr((mantissa, exponent), n) == expected, (mantissa, exponent, n)
    for pair, value, n, expected in (((0, 0), "0", 30, "0.0"), ((1, 0), "1", 30, "1.0"),
                                     ((999999, -5), "9.99999", 3, "10.0"), ((99999, -2), "999.99", 3, "1.0e+3"),
                                     ((123456, -10), "0.0000123456", 10, "1.23456e-5")):
        assert nstr(pair, n) == expected
        with mpmath.workdps(50):
            assert mpmath.nstr(mpmath.mpf(value), n) == expected


def test_ln_unit_at_one_the_golden_ratio_and_a_shifted_power():
    # u and v of (1 + sqrt 2)^5000 have about 7,650 bits, shifted down by
    # about 7,300 before the logarithm; printed from ten guard places
    assert ln_unit_scaled(2, 0, 5, 40) == 0
    u, v = (ring_of_integers(2).integer(1, 1) ** 5000).double_coords()
    with mpmath.workdps(60):
        assert nstr((ln_unit_scaled(1, 1, 5, 50), -50), 40) == mpmath.nstr(mpmath.log(mpmath.phi), 40)
        assert nstr((ln_unit_scaled(u, v, 2, 50), -50), 40) == mpmath.nstr(5000 * mpmath.log(1 + mpmath.sqrt(2)), 40)


@record
class _Point:
    x: int
    y: int = 0


@record(hidden=("cache",))
class _Cached:
    key: int
    cache: dict


def test_record_init_eq_hash_repr():
    assert _Point(1, 2) == _Point(x=1, y=2) == _Point(1, y=2)
    assert _Point(3) == _Point(3, 0) and _Point(3).y == 0
    assert _Point(1, 2) != _Point(2, 1) and _Point(1, 2) != (1, 2)
    assert hash(_Point(1, 2)) == hash(_Point(1, 2))
    assert repr(_Point(1, 2)) == "_Point(x=1, y=2)"
    for args, kwargs in (((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((), {"z": 1})):
        with pytest.raises(TypeError):
            _Point(*args, **kwargs)


def test_record_is_frozen():
    p = _Point(1, 2)
    with pytest.raises(AttributeError, match="frozen"):
        p.x = 5
    with pytest.raises(AttributeError, match="frozen"):
        del p.y
    assert (p.x, p.y) == (1, 2)


def test_record_hidden_field_stays_out_of_eq_hash_repr():
    a, b = _Cached(1, {"a": 1}), _Cached(1, {})
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "_Cached(key=1)" and a.cache == {"a": 1}
