"""Validation of prime field orders.

Field elements are plain Python ints in the range [0, q); the arithmetic is
inlined where it is used, so this module only decides which q are allowed.
"""

from __future__ import annotations

from .errors import NotPrime


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_field(q: int) -> None:
    """Raise NotPrime unless q is an int prime of at most 2^31."""
    if isinstance(q, int) and q > 2**31:
        raise NotPrime(f"field order must be at most 2^31, got {q}")
    if not isinstance(q, int) or not is_prime(q):
        raise NotPrime(f"field order must be prime, got {q!r}")
