"""Prime enumeration.

The sieve is built once per process and grows on demand; all consumers share
the cached read-only array, which is safe under concurrent reads.
"""

from __future__ import annotations

import math

import numpy as np

_sieve_limit = 0
_sieve_primes = np.empty(0, dtype=np.int64)


def sieve(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (Eratosthenes over the odd numbers).

    ``flags[i]`` stands for 2i + 1, so the flags take (n + 1) // 2 bytes, not
    n + 1.  Index 0 (the number 1) stands for 2 instead: its flag stays set,
    and the result is built in place from the flag indices (2i + 1, then 2
    written over the leading 1), with no temporary beside it.
    """
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones((n + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


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

