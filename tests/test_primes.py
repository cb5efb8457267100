import numpy as np
import pytest

from eulerapprox.primes import primes_in_interval, primes_up_to, sieve


def reference_sieve(n):
    """Independent odd-only sieve used as the oracle."""
    if n < 2:
        return []
    out = [2]
    flags = bytearray([1]) * ((n + 1) // 2)   # index i -> 2i+1
    for i in range(1, (int(n**0.5) + 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            for j in range(p * p // 2, len(flags), p):
                flags[j] = 0
    out.extend(2 * i + 1 for i in range(1, len(flags)) if flags[i] and 2 * i + 1 <= n)
    return out


def test_small_cases():
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(0).tolist() == []
    assert primes_up_to(2).tolist() == [2]


def test_against_oracle_to_million():
    got = primes_up_to(10**6)
    assert len(got) == 78498
    ref = reference_sieve(10**6)
    assert got.tolist() == ref


def flag_sieve(n):
    """Eratosthenes with a flag for every integer 0..n: the oracle of the odd-only sieve."""
    flags = np.ones(max(n + 1, 2), dtype=bool)
    flags[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags[:n + 1]).astype(np.int64)


@pytest.mark.parametrize("ns", [range(200), [10**5, 10**6 + 3, 10**7]],
                         ids=["0-199", "large"])
def test_odd_sieve_matches_every_integer_sieve(ns):
    for n in ns:
        got = sieve(n)
        assert got.dtype == np.int64
        assert np.array_equal(got, flag_sieve(n)), n


def test_negative_rejected():
    with pytest.raises(ValueError):
        primes_up_to(-1)


def test_interval():
    assert primes_in_interval(10, 20).tolist() == [11, 13, 17, 19]
    assert primes_in_interval(100, 100.5).tolist() == []

