"""Prime enumeration and factorization."""

import math

import numpy as np

__all__ = ["primes_up_to", "primes_in", "smallest_prime_factors",
           "factorize"]

#: The least-prime-factor table, grown on demand by ``smallest_prime_factors``.
_SPF = np.arange(2, dtype=np.int32)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n via a bit sieve (int64 array, ascending)."""
    n = int(n)
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def primes_in(a: float, b: float) -> np.ndarray:
    """Primes p with a < p < b (strict on both sides)."""
    if b <= 2:
        return np.zeros(0, dtype=np.int64)
    ps = primes_up_to(int(math.ceil(b)) - 1)
    return ps[(ps > a) & (ps < b)]


def smallest_prime_factors(n: int) -> np.ndarray:
    """A read-only table whose entry k is the least prime factor of k, for
    0 <= k <= n (entries 0 and 1 hold 0 and 1).

    One table is kept and grown on demand to at least twice its size, so
    a run of rising n sieves O(log n) times; it is never built at import.
    """
    global _SPF
    n = int(n)
    if n >= _SPF.size:
        m = max(n + 1, 2 * _SPF.size)
        spf = np.zeros(m, dtype=np.int32)
        for p in range(2, math.isqrt(m - 1) + 1):
            if spf[p] == 0:
                tail = spf[p * p::p]
                tail[tail == 0] = p
        free = np.flatnonzero(spf == 0)
        spf[free] = free                      # 0, 1 and the primes
        spf.flags.writeable = False
        _SPF = spf
    return _SPF[:n + 1]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] by trial division."""
    n = int(n)
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out
