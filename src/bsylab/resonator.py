"""Resonator coefficient tables and their weighted prime sums.

A resonator is a multiplicative coefficient sequence r(n) supported on
squarefree products of primes in a window (A, B), with r(p) =
L (log p)^nu / sqrt(p).  The minus variant carries the extra sign
(-1)^omega(n).  The key quantities are the Lambda-weighted numerator

    sum over mn <= N of Lambda(n) sin^mu(h log n) r(m) r(mn)
                                  / (sqrt(n) (log n)^nu)

and the denominator sum of r(n)^2.  The numerator is a weighted sum of
the prime-power correlations c(q) = sum over m of r(m) r(mq), one
vectorized kernel (``_prime_power_correlations``) that also serves the
main terms of :mod:`bsylab.dirichlet`; on the squarefree support only
q = p prime in the window has c(q) != 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .accum import comp_sum
from .sieve import primes_in, primes_up_to
from .zeta import _lambert_w

__all__ = [
    "ResonatorParams", "ResonatorTable", "solve_L", "build_resonator",
    "resonator_numerator", "resonator_denominator", "lemma4_check",
    "write_table", "read_table", "read_header",
]

#: Default cap on the number of table entries.
ENTRY_CAP = 10_000_000

#: Largest table entry the c(p^k) kernel sieves to.  Its cost grows
#: linearly: 0.12 s and a 55 MB peak at 1e7 on a 2-vCPU x86 machine.
_SIEVE_CAP = 10 ** 8

_REL_TOL = 1e-10


def solve_L(N: int, nu: int) -> float:
    """The unique L > 1 with L^2 (3 log L)^k = k log N, k = 2nu + 1.

    In closed form: with y = (2/k) log L the relation reads y e^y = z,
    z = (2/(3k)) (k log N)^(1/k), so L = exp(k W(z) / 2) with W the
    principal Lambert W.  Degenerate when the window lower end
    A = L^2 (log L)^k does not exceed 1 (no primes can ever lie above
    it at feasible N) — the caller must then use override mode.
    """
    if N <= 1:
        raise ValueError("N must be > 1")
    k = 2 * nu + 1
    z = 2.0 / (3.0 * k) * (k * math.log(N)) ** (1.0 / k)
    L = math.exp(0.5 * k * float(_lambert_w(np.float64(z))))
    if L * L * math.log(L) ** k <= 1.0:
        raise errors.Degenerate(
            f"window lower end A <= 1 at the root L={L:.6g} "
            f"(N={N}, nu={nu}); use override mode")
    return L


@dataclass(frozen=True)
class ResonatorParams:
    """Window and weight parameters of a resonator family."""

    mu: int
    nu: int
    N: int
    h: float
    L: float
    A: float
    B: float
    override: bool = False

    def __post_init__(self):
        if self.mu < 0 or self.nu < 0 or self.N <= 1:
            raise ValueError("need mu, nu >= 0 and N > 1")
        if self.N >= 2 ** 63:
            raise ValueError("need N < 2^63, the int64 range of entries")
        if not all(map(math.isfinite, (self.h, self.L, self.A, self.B))):
            raise ValueError("need finite h, L, A and B")
        if self.h < 0 or self.h > 1:
            raise ValueError("need 0 <= h <= 1")
        if self.L <= 0 or self.A <= 0 or self.B <= 0 or self.A >= self.B:
            raise ValueError("need 0 < A < B and L > 0")
        if not self.override:
            lnL = math.log(self.L)
            a_ref = self.L ** 2 * lnL ** (2 * self.nu + 1)
            b_ref = self.L ** 3
            c_ref = (2 * self.nu + 1) * math.log(self.N)
            c_val = self.L ** 2 * math.log(self.B) ** (2 * self.nu + 1)
            if abs(self.A - a_ref) > _REL_TOL * abs(a_ref) \
                    or abs(self.B - b_ref) > _REL_TOL * abs(b_ref) \
                    or abs(c_val - c_ref) > _REL_TOL * abs(c_ref):
                raise ValueError(
                    "(L, A, B, N) violate the solved-family relations; "
                    "pass override=True for free parameters")

    @classmethod
    def solved(cls, N: int, nu: int, mu: int = 2,
               h: float = 0.0) -> "ResonatorParams":
        """Parameters from the canonical relations given (N, nu)."""
        L = solve_L(N, nu)
        return cls(mu=mu, nu=nu, N=int(N), h=float(h), L=L,
                   A=L * L * math.log(L) ** (2 * nu + 1), B=L ** 3)


@dataclass(frozen=True)
class ResonatorTable:
    """Sorted (n, r(n)) pairs; n squarefree over the prime window."""

    ns: np.ndarray          # int64, ascending, ns[0] == 1
    rs: np.ndarray          # float, rs[0] == 1.0
    sign_variant: str       # "plus" | "minus"
    params: ResonatorParams

    def __post_init__(self):
        if self.sign_variant not in ("plus", "minus"):
            raise ValueError("sign_variant must be 'plus' or 'minus'")
        ns = np.asarray(self.ns, dtype=np.int64)
        rs = np.asarray(self.rs, dtype=float)
        if ns.size != rs.size or ns.size == 0 or ns[0] != 1:
            raise ValueError("table must start with n = 1")
        if np.any(np.diff(ns) <= 0):
            raise ValueError("table ns must be strictly ascending")
        if not np.all(np.isfinite(rs)):
            raise ValueError("table coefficients r(n) must be finite")
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "rs", rs)


def build_resonator(params: ResonatorParams, variant: str = "plus",
                    entry_cap: int = ENTRY_CAP) -> ResonatorTable:
    """Exhaustive table of squarefree products of window primes <= N.

    Built level by level in the number of prime factors: level j + 1
    multiplies each level-j entry m by every window prime p above m's
    largest prime with m p <= N, and r(mp) = r(m) r(p) (r(m) (-r(p)) for
    the minus variant).  Deterministic; raises TableTooLarge past
    ``entry_cap`` entries, before the level that passes it is allocated.
    """
    ps = primes_in(params.A, params.B)
    rp = params.L * np.log(ps.astype(float)) ** params.nu \
        / np.sqrt(ps.astype(float))
    if variant == "minus":
        rp = -rp
    ns, rs = np.ones(1, dtype=np.int64), np.ones(1)
    nxt = np.zeros(1, dtype=np.intp)   # index of the smallest allowed p
    levels_n, levels_r, size = [ns], [rs], 1
    while True:
        counts = np.maximum(
            np.searchsorted(ps, params.N // ns, side="right") - nxt, 0)
        step = int(counts.sum())
        if step == 0:
            break
        size += step
        if size > entry_cap:
            raise errors.TableTooLarge(
                f"resonator table exceeds {entry_cap} entries")
        mi = np.repeat(np.arange(ns.size), counts)
        pi = np.arange(step) - np.repeat(np.cumsum(counts) - counts, counts) \
            + nxt[mi]
        ns, rs, nxt = ns[mi] * ps[pi], rs[mi] * rp[pi], pi + 1
        levels_n.append(ns)
        levels_r.append(rs)
    ns, rs = np.concatenate(levels_n), np.concatenate(levels_r)
    order = np.argsort(ns, kind="stable")
    return ResonatorTable(ns[order], rs[order], variant, params)


def resonator_denominator(table: ResonatorTable) -> float:
    """Sum of r(n)^2 over the table (sign-variant independent)."""
    return comp_sum(table.rs ** 2)


def _prime_power_correlations(ns: np.ndarray, rs: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c(q) = sum over m of r(m) r(mq) for the prime powers q = p^k.

    Returns (q, p, c) over the q with c(q) != 0.  Since m*q must be an
    entry of the ascending ``ns``, only q <= ns[-1] and the entries
    m <= ns[-1] // q are enumerated, so the cost depends on the table,
    not on its nominal N; m*q is looked up by binary search.  Raises
    TableTooLarge when the largest entry exceeds ``_SIEVE_CAP``, since
    every prime up to it is sieved.
    """
    top = int(ns[-1])
    if top > _SIEVE_CAP:
        raise errors.TableTooLarge(
            f"largest table entry {top} exceeds {_SIEVE_CAP}, the limit "
            "of the c(p^k) sieve")
    p = primes_up_to(top)
    q = p.copy()
    qs, bases = [q], [p]
    while True:
        keep = q <= top // p
        if not np.any(keep):
            break
        p = p[keep]
        q = q[keep] * p
        qs.append(q)
        bases.append(p)
    q, p = np.concatenate(qs), np.concatenate(bases)
    counts = np.searchsorted(ns, top // q, side="right")
    qi = np.repeat(np.arange(q.size), counts)
    mi = np.arange(qi.size) - np.repeat(np.cumsum(counts) - counts, counts)
    mq = ns[mi] * q[qi]
    j = np.minimum(np.searchsorted(ns, mq), ns.size - 1)
    hit = ns[j] == mq
    c = np.bincount(qi[hit], weights=rs[mi[hit]] * rs[j[hit]],
                    minlength=q.size)
    nz = c != 0.0
    return q[nz], p[nz], c[nz]


def resonator_numerator(table: ResonatorTable) -> float:
    """The Lambda-weighted double sum, over the correlations c(q).

    Equals the sum over prime powers q = p^k <= N of
    log p * sin^mu(h log q) * c(q) / (sqrt(q) (log q)^nu); on the
    squarefree support only primes q = p have c(q) != 0.
    """
    p_ = table.params
    q, p, c = _prime_power_correlations(table.ns, table.rs)
    lq = np.log(q)
    return comp_sum(np.log(p) * np.sin(p_.h * lq) ** p_.mu * c
                    / (np.sqrt(q) * lq ** p_.nu))


def lemma4_check(params: ResonatorParams) -> dict:
    """Sign and size of the resonance ratio for both variants.

    Returns ratio_plus, ratio_minus (numerator/denominator) and their
    normalizations by h^mu (log N)^(1/2) (log log N)^(mu - nu + 1/2).
    Requires 0 < h <= 1/log log N and a normalization that does not
    underflow to 0.
    """
    lnN = math.log(params.N)
    if lnN <= 1.0 or not 0.0 < params.h <= 1.0 / math.log(lnN):
        raise ValueError("need 0 < h <= 1/log log N and log log N > 0")
    scale = (params.h ** params.mu * lnN ** 0.5
             * math.log(lnN) ** (params.mu - params.nu + 0.5))
    if scale == 0.0:
        raise ValueError("the normalization h^mu (log N)^(1/2) "
                         "(log log N)^(mu - nu + 1/2) underflows to 0")
    out = {}
    for variant in ("plus", "minus"):
        t = build_resonator(params, variant)
        out[f"ratio_{variant}"] = (resonator_numerator(t)
                                   / resonator_denominator(t))
    out["normalized_plus"] = out["ratio_plus"] / scale
    out["normalized_minus"] = out["ratio_minus"] / scale
    return out


# ----------------------------------------------------------------------
# Table files: one "n r(n)" pair per line, '#' comments
# ----------------------------------------------------------------------

def write_table(table: ResonatorTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# resonator sign={table.sign_variant} "
                 f"N={table.params.N} mu={table.params.mu} "
                 f"nu={table.params.nu} h={table.params.h!r} "
                 f"L={table.params.L!r} A={table.params.A!r} "
                 f"B={table.params.B!r} override={table.params.override}\n")
        for n, r in zip(table.ns, table.rs):
            fh.write(f"{int(n)} {float(r)!r}\n")


def read_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read (ns, rs) from a table file; header metadata is ignored.

    Raises ParseError, with the line number, on a malformed line, an
    entry n outside [1, 2^63), the int64 range, or a non-finite r(n).
    """
    ns, rs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise errors.ParseError(
                    f"line {ln}: expected 'n r(n)'", line_number=ln)
            try:
                ns.append(int(parts[0]))
                rs.append(float(parts[1]))
            except ValueError:
                raise errors.ParseError(
                    f"line {ln}: bad number", line_number=ln)
            if not 1 <= ns[-1] < 2 ** 63:
                raise errors.ParseError(
                    f"line {ln}: n must be >= 1 and < 2^63", line_number=ln)
            if not math.isfinite(rs[-1]):
                raise errors.ParseError(
                    f"line {ln}: r(n) must be finite", line_number=ln)
    return np.asarray(ns, dtype=np.int64), np.asarray(rs, dtype=float)


def read_header(path: str):
    """(sign, ResonatorParams) from the header line that ``write_table``
    puts first in a table file, or None when the file does not start
    with one.  Raises ParseError on a malformed header.
    """
    with open(path, "r", encoding="utf-8") as fh:
        words = fh.readline().split()
    if words[:2] != ["#", "resonator"]:
        return None
    try:
        kv = dict(word.split("=", 1) for word in words[2:])
        if kv.keys() != {"sign", "N", "mu", "nu", "h", "L", "A", "B",
                         "override"} or kv["sign"] not in ("plus", "minus") \
                or kv["override"] not in ("True", "False"):
            raise ValueError("expected write_table's nine fields")
        params = ResonatorParams(
            **{k: int(kv[k]) for k in ("mu", "nu", "N")},
            **{k: float(kv[k]) for k in ("h", "L", "A", "B")},
            override=kv["override"] == "True")
    except ValueError as exc:
        raise errors.ParseError(f"line 1: bad resonator header: {exc}",
                                line_number=1) from None
    return kv["sign"], params
