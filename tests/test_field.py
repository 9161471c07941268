"""Coefficient fields: the primality test behind PrimeField."""

import pytest
import sympy

from reembed.field import PrimeField, _is_prime

# Carmichael numbers, and strong pseudoprimes to several leading prime bases
# (3215031751 to 2, 3, 5, 7; 3825123056546413051 to every prime up to 23)
HARD_COMPOSITES = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745,
                   825265, 321197185, 5394826801, 232250619601,
                   3215031751, 2152302898747, 3474749660383,
                   341550071728321, 3825123056546413051)


def test_agrees_with_sympy_up_to_ten_thousand():
    assert [n for n in range(10**4 + 1)
            if _is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("n", HARD_COMPOSITES)
def test_rejects_hard_composites(n):
    assert not sympy.isprime(n)
    assert not _is_prime(n)


def test_large_primes_below_the_limit():
    for p in (2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert sympy.isprime(p) and _is_prime(p)
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_modulus_at_or_above_2_64_is_refused():
    with pytest.raises(ValueError, match="below 2\\^64"):
        PrimeField(2**89 - 1)
