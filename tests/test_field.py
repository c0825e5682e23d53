"""Field-order validation: primality and the 2^31 cap."""

import pytest

from iplt.errors import NotPrime
from iplt.field import check_field, is_prime


def test_is_prime_small_values():
    """Primality agrees with the known primes below 50."""
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_construct_rejects_composite():
    """Composite and non-integer orders raise NotPrime; primes pass."""
    for bad in (0, 1, 4, 15, 21, 2**31 - 1 + 2):
        with pytest.raises(NotPrime):
            check_field(bad)
    with pytest.raises(NotPrime, match="must be prime"):
        check_field(17.0)
    for good in (2, 17, 65521, 2**31 - 1):
        check_field(good)


def test_construct_rejects_oversized_prime():
    """Primes above 2^31 are refused even though they are prime."""
    with pytest.raises(NotPrime, match="at most 2\\^31"):
        check_field(2305843009213693951)
