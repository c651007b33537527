import pytest

from quadrantal.arith import primes_up_to


def test_primes_up_to_matches_trial_division():
    primes = []
    for n in range(3001):
        if n >= 2 and all(n % p for p in primes if p * p <= n):
            primes.append(n)
        assert primes_up_to(n) == primes, n


def test_prime_count_at_a_million():
    assert len(primes_up_to(10**6)) == 78498


@pytest.mark.parametrize(
    "n, expected",
    [(0, []), (1, []), (2, [2]), (3, [2, 3]), (4, [2, 3]), (9, [2, 3, 5, 7]),
     (25, [2, 3, 5, 7, 11, 13, 17, 19, 23])],
)
def test_edges_of_the_odd_sieve(n, expected):
    assert primes_up_to(n) == expected
