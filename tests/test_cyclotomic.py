import pytest

from quadrantal.arith import primes_up_to
from quadrantal.cyclotomic import (
    class_number_one_lists,
    classify,
    descriptor,
    euler_phi,
    multiplicative_order,
    split_prime_cyclotomic,
)


class TestPhiAndOrder:
    def test_phi_values(self):
        assert euler_phi(7) == 6
        assert euler_phi(12) == 4
        assert euler_phi(1) == 1

    def test_phi_multiplicative_sweep(self):
        for a in range(1, 30):
            for b in range(1, 30):
                import math

                if math.gcd(a, b) == 1:
                    assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    def test_order_examples(self):
        assert multiplicative_order(2, 5) == 4
        assert multiplicative_order(1, 7) == 1
        assert multiplicative_order(3, 7) == 6

    def test_order_requires_coprimality(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 9)

    def test_order_divides_phi(self):
        import math

        for n in range(2, 60):
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert euler_phi(n) % multiplicative_order(a, n) == 0


class TestSplitting:
    def test_m7_q2(self):
        s = split_prime_cyclotomic(7, 2)
        assert (s.e, s.f, s.g) == (1, 3, 2)

    def test_completely_ramified_at_p(self):
        s = split_prime_cyclotomic(5, 5)
        assert (s.e, s.f, s.g) == (4, 1, 1)
        assert s.classification == "completelyRamified"
        assert s.notes == "(5) = (1 - w)^4"

    def test_m12_q2(self):
        s = split_prime_cyclotomic(12, 2)
        assert (s.e, s.f, s.g) == (2, 2, 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            split_prime_cyclotomic(2, 3)
        with pytest.raises(ValueError):
            split_prime_cyclotomic(7, 6)

    def test_efg_equals_phi_sweep(self):
        for m in range(3, 61):
            for q in primes_up_to(50):
                s = split_prime_cyclotomic(m, q)
                assert s.e * s.f * s.g == euler_phi(m)

    def test_prime_modulus_unramified_when_q_differs(self):
        for p in (5, 7, 11, 13):
            for q in primes_up_to(50):
                if q == p:
                    continue
                s = split_prime_cyclotomic(p, q)
                assert s.e == 1
                assert s.f == multiplicative_order(q, p)
                assert s.g == (p - 1) // s.f


class TestClassification:
    def test_examples(self):
        assert classify(5, 11) == "split"
        assert classify(5, 2) == "inert"
        assert classify(9, 3) == classify(5, 5) == "completelyRamified"
        assert classify(7, 2) == "mixed"
        # (e, f, g) = (2, 2, 1): ramified, but not totally (e < phi(12) = 4)
        assert classify(12, 2) == classify(12, 3) == "ramified"

    def test_completely_ramified_means_e_is_phi(self):
        for m in range(3, 121):
            for q in primes_up_to(60):
                s = split_prime_cyclotomic(m, q)
                assert (s.classification == "completelyRamified") == (s.e == s.phi_m), (m, q)

    def test_prime_modulus_consistency(self):
        # split iff p | q-1; inert iff f = p-1
        for p in (5, 7, 11, 13):
            for q in primes_up_to(50):
                if q == p:
                    continue
                label = classify(p, q)
                f = multiplicative_order(q, p)
                assert (label == "split") == ((q - 1) % p == 0)
                assert (label == "inert") == (f == p - 1)

    def test_twice_an_odd_modulus_is_the_same_field(self):
        # Q(w_2n) = Q(w_n) for odd n: the same (e, f, g) and label for every
        # q, 2 included (unramified, as e = phi(2) = 1)
        assert classify(6, 2) == "inert" and classify(14, 2) == "mixed"
        for m in range(6, 301, 4):
            for q in primes_up_to(100):
                s, t = split_prime_cyclotomic(m, q), split_prime_cyclotomic(m // 2, q)
                assert (s.e, s.f, s.g, s.classification) == (t.e, t.f, t.g, t.classification), (m, q)
                assert classify(m, q) == t.classification


class TestClassNumberOneLists:
    def test_lengths_and_members(self):
        cyc, imag = class_number_one_lists()
        assert len(imag) == 9
        assert 19 in cyc and 23 not in cyc
        assert -163 in imag
        assert cyc == (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21,
                       24, 25, 27, 28, 32, 33, 35, 36, 40, 44, 45, 48, 60, 84)

    def test_kummer_boundary(self):
        # for prime moduli, membership is exactly p <= 19
        cyc, _ = class_number_one_lists()
        for p in primes_up_to(30):
            if p >= 3:
                assert (p in cyc) == (p <= 19)


class TestDescriptor:
    def test_prime_discriminants(self):
        assert descriptor(5).discriminant_prime_case == 125
        assert descriptor(7).discriminant_prime_case == -(7**5)
        assert descriptor(12).discriminant_prime_case is None
        assert descriptor(12).degree == 4

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            descriptor(2)
