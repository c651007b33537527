"""The integer fixed-point core of quadrantal.reals against the decimal core
it replaced (tests/oracles.py), which stays as the reference."""

import hashlib
import random
from decimal import Context, Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import decimal_ln_unit, decimal_nstr, decimal_pi, decimal_sigma
from quadrantal import reals
from quadrantal.census import _sigma
from quadrantal.integers import power
from quadrantal.quadring import ring_of_integers, torsion_order
from quadrantal.units import fundamental_unit


def _pair_and_decimal(mantissa, exponent):
    return (mantissa, exponent), Decimal(f"{mantissa}E{exponent}")


@st.composite
def _values(draw):
    """(mantissa, exponent, n): a mantissa of up to n + 12 digits, a tie
    (the digit after the n-th a 5 and zeros after it) one time in three,
    and exponents on both sides of the fixed-point window's two edges."""
    n = draw(st.sampled_from((1, 2, 3, 5, 10, 30, 50)))
    if draw(st.integers(0, 2)):
        mantissa = draw(st.integers(1, 10 ** draw(st.integers(1, n + 12))))
    else:  # n digits, then 5 and zeros: a tie
        mantissa = (10 * draw(st.integers(10 ** (n - 1), 10**n - 1)) + 5) * 10 ** draw(st.integers(0, 4))
    digits = len(str(mantissa))
    edge = draw(st.sampled_from((min(-(n // 3), -5), n, 0)))  # where the window ends
    exponent = edge - (digits - 1) + draw(st.integers(-2, 2))  # the leading digit's exponent near the edge
    return draw(st.sampled_from((1, -1))) * mantissa, exponent, n


@settings(max_examples=600, deadline=None)
@given(_values())
@example((995, -2, 2))  # 9.95 rounds half up to 10.0
@example((-15, -1, 1))
@example((5, -6, 10))
def test_nstr_of_a_pair_matches_the_decimal_nstr(value):
    mantissa, exponent, n = value
    pair, dec = _pair_and_decimal(mantissa, exponent)
    expected = decimal_nstr(dec, n)
    assert reals.nstr(pair, n) == expected


def test_nstr_of_zero_and_of_trailing_zeros():
    assert reals.nstr((0, -40), 30) == decimal_nstr(Decimal("0E-40"), 30) == "0.0"
    assert reals.nstr((1500, -3), 3) == decimal_nstr(Decimal("1.500"), 3) == "1.5"


def _units():
    ms = [2, 3, 5, 79, 94, 1000000007] + random.Random(30).sample(range(2, 10**6), 12)
    out = [(1, 1, 5), (3, 0, 7)]
    for m in ms:
        try:
            field = ring_of_integers(m)
        except ValueError:
            continue
        out.append((*fundamental_unit(field).double_coords(), m))
    u, v = (ring_of_integers(2).integer(1, 1) ** 5000).double_coords()  # shifted by about 7,300 bits
    return out + [(u, v, 2)]


@pytest.mark.parametrize("digits", [30, 60, 200, 1000])
def test_ln_unit_matches_decimal_ln(digits):
    # ln_unit_scaled with ten guard places, printed, against the reference
    # at 20 more digits, printed: equal unless the true value sat within
    # 10^-9 units of a rounding boundary
    units = _units() if digits <= 200 else [(2, 2, 2), (16, 6, 7)]  # 1 + sqrt 2, 8 + 3 sqrt 7
    for u, v, m in units:
        expected = decimal_nstr(decimal_ln_unit(u, v, m, digits + 20), digits)
        assert reals.nstr((reals.ln_unit_scaled(u, v, m, digits + 10), -digits - 10), digits) == expected, (u, v, m)


def test_ln_unit_scaled_is_within_two_units():
    for u, v, m in _units():
        for places in (30, 70, 250):
            exact = decimal_ln_unit(u, v, m, places + 40).scaleb(places, Context(prec=places + 60))
            assert abs(reals.ln_unit_scaled(u, v, m, places) - exact) <= 2, (m, places)


def test_pi_scaled_matches_machin():
    assert reals.pi_scaled(100) == reals.PI_DIGITS
    for places in (30, 45, 1010):
        exact = decimal_pi(places + 11).scaleb(places, Context(prec=places + 11))  # pi 10^places, ten more digits
        assert abs(reals.pi_scaled(places) - exact) < 1, places
        digits = places - 9
        assert reals.nstr((reals.pi_scaled(places), -places), digits) == decimal_nstr(decimal_pi(digits), digits)


def _half_mul(x, y):
    """((a + b sqrt 5)/2) ((c + d sqrt 5)/2), each side and the product as (a, b)."""
    (a, b), (c, d) = x, y
    return (a * c + 5 * b * d) // 2, (a * d + b * c) // 2


def test_fixed_point_values_before_rounding_unchanged():
    # the ints that nstr rounds, pinned as written when atan and atanh had a
    # series each: the printed sweeps see them only rounded.  Machin's sum
    # keeps its guard digits, where a term's truncation still shows
    phi = (*power((1, 1), 23921, (2, 0), _half_mul), 5)  # ((1 + sqrt 5)/2)^23921, 5,000 digits
    values = [reals.pi_scaled(p) for p in (30, 100, 1000)]
    values += [reals._machin(10 ** (p + 10)) for p in (30, 100, 1000)]
    values += [reals._ln2(b) for b in (64, 300, 3400)]
    values += [reals.ln_unit_scaled(*unit, places) for unit in ((1, 1, 5), (3, 2, 2), phi) for places in (60, 1010)]
    assert 10**4999 <= phi[0] < 10**5000
    digest = hashlib.sha256("\n".join(map(hex, values)).encode()).hexdigest()
    assert digest == "13288560a775256577301ba60daaf6463746e84c17f67e0111058f1177a62da9"


@pytest.mark.parametrize("precision", [30, 200])
@pytest.mark.parametrize("m", [-1, -3, -5, -23, -10000019, 2, 5, 10, 79, 1000000007])
def test_sigma_matches_the_decimal_sigma(m, precision):
    field = ring_of_integers(m)
    unit = fundamental_unit(field).double_coords() if m > 0 else None
    expected = decimal_sigma(m, field.d, torsion_order(field), unit, precision)
    sigma, places = _sigma(field, precision)
    got = Decimal(sigma).scaleb(-places, Context(prec=precision + 15))
    # both at precision + 15 digits: equal to a unit or two in the last place,
    # and the same when printed
    assert abs(got - expected) <= 2 * Decimal(1).scaleb(expected.adjusted() - precision - 14)
    assert reals.nstr((sigma, -places), precision) == decimal_nstr(expected, precision)


def test_real_sigma_cross_check_raises(monkeypatch):
    from quadrantal import census

    monkeypatch.setattr(census, "torsion_order", lambda field: 4)  # sigma off by 2 from log(lam)/sqrt(m)
    with pytest.raises(ArithmeticError, match="disagrees"):
        _sigma(ring_of_integers(10), 30)


def test_floor_of_root_quotient_takes_pairs():
    assert reals.floor_of_root_quotient(2, 23, *reals._PI_BOUNDS) == 3
    with pytest.raises(reals.CertificateNotFound, match="is 0 at x = 3 but 2 at x = 1"):
        reals.floor_of_root_quotient(1, 4, (2, 2), (6, 2))
