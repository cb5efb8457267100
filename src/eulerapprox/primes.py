"""Prime enumeration.

The sieve is built once per process and grows on demand; all consumers share
the cached read-only array, which is safe under concurrent reads.
"""

from __future__ import annotations

import numpy as np

_sieve_limit = 0
_sieve_primes = np.empty(0, dtype=np.int64)


def sieve(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (Eratosthenes, odd wheel)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def primes_up_to(n: int) -> np.ndarray:
    """Ascending primes <= n, served from a shared growing cache.

    Returns a read-only view; callers must copy before mutating.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    global _sieve_limit, _sieve_primes
    if n > _sieve_limit:
        limit = max(n, 2 * _sieve_limit, 1 << 16)
        arr = sieve(limit)
        arr.setflags(write=False)
        _sieve_primes = arr
        _sieve_limit = limit
    k = int(np.searchsorted(_sieve_primes, n, side="right"))
    return _sieve_primes[:k]


def primes_in_interval(lo: float, hi: float) -> np.ndarray:
    """Primes p with lo < p <= hi."""
    if hi < 2:
        return np.empty(0, dtype=np.int64)
    ps = primes_up_to(int(np.floor(hi)))
    return ps[ps > lo]

