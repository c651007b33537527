"""Splitting of rational primes in cyclotomic fields Q(w_m), w_m = e^(2*pi*i/m).

No cyclotomic ideal objects are built: the computable content is the
parameter triple (e, f, g) with e*f*g = phi(m), determined by writing
m = q^k * n with gcd(q, n) = 1:

    e = phi(q^k),  f = ord_n(q),  g = phi(n)/f      (f = g = 1 when n = 1)

plus the derived classification labels.  "mixed" is our label for the
impure combinations the classical definitions do not name.
"""

from __future__ import annotations

from .arith import factorize, is_prime, record


def euler_phi(m: int) -> int:
    """Euler's totient via factorization (trial division, bounded)."""
    if m < 1:
        raise ValueError("phi needs a positive integer")
    out = 1
    for p, e in factorize(m):
        out *= p ** (e - 1) * (p - 1)
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Least f >= 1 with a^f = 1 mod n; divides phi(n)."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    import math

    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    f = euler_phi(n)
    for p, _ in factorize(f):
        while f % p == 0 and pow(a, f // p, n) == 1:
            f //= p
    return f


@record
class CyclotomicDescriptor:
    m: int
    degree: int                      # phi(m)
    discriminant_prime_case: int | None  # (-1)^((p-1)/2) p^(p-2) when m is an odd prime

    def to_json_dict(self):
        out = {"m": self.m, "degree": self.degree}
        if self.discriminant_prime_case is not None:
            out["discriminant"] = str(self.discriminant_prime_case)
        return out


def descriptor(m: int) -> CyclotomicDescriptor:
    if m < 3:
        raise ValueError("cyclotomic modulus must be at least 3")
    disc = None
    if m % 2 == 1 and is_prime(m):
        disc = (-1) ** ((m - 1) // 2) * m ** (m - 2)
    return CyclotomicDescriptor(m, euler_phi(m), disc)


@record
class CycloSplitting:
    m: int
    q: int
    e: int
    f: int
    g: int
    phi_m: int
    classification: str
    notes: str | None = None

    def to_json_dict(self):
        out = {
            "m": self.m,
            "q": str(self.q),
            "e": self.e,
            "f": self.f,
            "g": self.g,
            "phi_m": self.phi_m,
            "classification": self.classification,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


def split_prime_cyclotomic(m: int, q: int) -> CycloSplitting:
    """The (e, f, g) of the prime q in Q(w_m)."""
    if m < 3:
        raise ValueError("cyclotomic modulus must be at least 3")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    k = 0
    n = m
    while n % q == 0:
        n //= q
        k += 1
    e = euler_phi(q**k) if k else 1
    if n == 1:
        f = g = 1
    else:
        f = multiplicative_order(q, n)
        g = euler_phi(n) // f
    phi_m = euler_phi(m)
    if e * f * g != phi_m:
        raise ArithmeticError(f"e*f*g = {e * f * g} is not phi({m}) = {phi_m}")
    notes = None
    if k >= 1 and n == 1 and is_prime(m):
        notes = f"({q}) = (1 - w)^{m - 1}"
    if e > 1:
        label = "completelyRamified" if g == 1 else "ramified"
    else:
        label = "split" if f == 1 else "inert" if g == 1 else "mixed"
    return CycloSplitting(m, q, e, f, g, phi_m, label, notes)


def classify(m: int, q: int) -> str:
    """Label of q in Q(w_m) from its (e, f, g): ramified (e > 1) is
    'completelyRamified' when g = 1, else 'ramified'; unramified is 'split'
    when f = 1, 'inert' when g = 1, else 'mixed' (1 < f < phi(m), which the
    classical case split leaves unnamed)."""
    return split_prime_cyclotomic(m, q).classification


# Reference class-number-1 lists, used as golden fixtures.
CYCLOTOMIC_CLASS_NUMBER_ONE = (
    3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 24, 25, 27, 28,
    32, 33, 35, 36, 40, 44, 45, 48, 60, 84,
)
IMAGINARY_QUADRATIC_CLASS_NUMBER_ONE = (-1, -2, -3, -7, -11, -19, -43, -67, -163)


def class_number_one_lists():
    """(cyclotomic m list, imaginary quadratic m list), both immutable."""
    return CYCLOTOMIC_CLASS_NUMBER_ONE, IMAGINARY_QUADRATIC_CLASS_NUMBER_ONE
