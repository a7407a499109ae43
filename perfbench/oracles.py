"""Brute-force references for the mean-value workload.

Plain Python loops over the coefficient table, written without bsylab's
sieve, phase reduction or prime reduction, so that they check the
program's outputs rather than repeat its code.
"""

import cmath
import math


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _prime_power_base(q):
    """p if q = p^k with k >= 1, else None (trial division)."""
    if q < 2:
        return None
    d = 2
    while d * d <= q:
        if q % d == 0:
            while q % d == 0:
                q //= d
            return d if q == 1 else None
        d += 1
    return q


def prime_power_pairs(ns, rs):
    """Every (m, q, r(m) r(mq)) with m and mq in the table, q a prime power.

    Yields (q, p, r(m) * r(mq)), found by enumerating the divisors of
    each table entry.
    """
    lut = dict(zip((int(n) for n in ns), (float(r) for r in rs)))
    for n, rn in lut.items():
        for m in _divisors(n):
            rm = lut.get(m)
            if rm is None or m == n:
                continue
            q = n // m
            p = _prime_power_base(q)
            if p is not None:
                yield q, p, rm * rn


def numerator(ns, rs, mu, nu, h):
    """Sum over (m, n) of Lambda(n) sin^mu(h log n) r(m) r(mn)
    / (sqrt(n) (log n)^nu)."""
    terms = []
    for q, p, rr in prime_power_pairs(ns, rs):
        lq = math.log(q)
        terms.append(math.log(p) * math.sin(h * lq) ** mu * rr
                     / (math.sqrt(q) * lq ** nu))
    return math.fsum(terms)


def lemma3_rhs(ns, rs, alpha, h, T):
    """T * sum of Lambda(n) r(m) r(mn) / (n^(alpha+ih) log n)."""
    re, im = [], []
    s = complex(alpha, h)
    for q, p, rr in prime_power_pairs(ns, rs):
        lq = math.log(q)
        v = rr * math.log(p) * cmath.exp(-s * lq) / lq
        re.append(v.real)
        im.append(v.imag)
    return T * complex(math.fsum(re), math.fsum(im))


def resonance(ns, rs, h):
    """(sin_sq, sin_lin) ratios of the windowed-argument statistics."""
    sq, lin = [], []
    for q, p, rr in prime_power_pairs(ns, rs):
        lq = math.log(q)
        base = rr * math.log(p) / (math.sqrt(q) * lq * lq)
        sq.append(base * math.sin(0.5 * h * lq) ** 2)
        lin.append(base * math.sin(h * lq))
    den = math.fsum(float(r) ** 2 for r in rs)
    return (2.0 / math.pi) * math.fsum(sq) / den, 2.0 * math.fsum(lin) / den


def mean_squares(ns, rs, Ts):
    """Integral of |R(t)|^2 over [T, 2T] for each T, by the pair loop."""
    ns = [int(n) for n in ns]
    rs = [float(r) for r in rs]
    diag = math.fsum(r * r for r in rs)

    def off_diagonal(T):
        # a generator keeps the pair loop out of the run's peak memory
        for i, (ni, ri) in enumerate(zip(ns, rs)):
            for nj, rj in zip(ns[i + 1:], rs[i + 1:]):
                ell = math.log1p((nj - ni) / ni)
                yield (2.0 * ri * rj / ell
                       * (math.sin(2.0 * T * ell) - math.sin(T * ell)))

    return [T * diag + math.fsum(off_diagonal(T)) for T in Ts]


def dirichlet_value(ns, rs, t):
    """R(t) = sum of r(n) n^(-it), one height."""
    re = math.fsum(float(r) * math.cos(t * math.log(int(n)))
                   for n, r in zip(ns, rs))
    im = math.fsum(-float(r) * math.sin(t * math.log(int(n)))
                   for n, r in zip(ns, rs))
    return complex(re, im)
