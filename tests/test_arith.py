from quadrantal.arith import primes_up_to


def test_primes_up_to_matches_trial_division():
    primes = []
    for n in range(3001):
        if n >= 2 and all(n % p for p in primes if p * p <= n):
            primes.append(n)
        assert primes_up_to(n) == primes, n
