"""Dirichlet-polynomial phase sums sum_n a_n n^(-it), each with a bound.

Every Dirichlet sum of the laboratory goes through this kernel: the
main sums of :mod:`bsylab.zeta` and R(t) and the exact mean square of
:mod:`bsylab.dirichlet`.  ``phase_sum`` takes one of two paths:

* a uniform grid of heights is one blocked matrix product;
* any other input (quadrature nodes, Newton triplets, derivative
  stencils) is a cluster pass, after Odlyzko and Schoenhage: each height
  takes the nearest centre of a lattice c_0 + k*2*rho (``_lattice``),
  and each occupied cell is a Taylor expansion in the height offset
  about its centre, the moments of all cells as one real matrix product
  per block of centres, and an expansion order set by the truncation
  tail.  Where it saves enough, as on the grid path, the phases of C
  centres are outer x inner products of about 2 sqrt(C) reductions;
  elsewhere (few or scattered heights, a lone height) each centre is
  reduced.  The moments (``_cluster_moments``) and Horner in the
  offset (``cluster_horner``, on contiguous columns of the moments)
  also serve ``expansion_about``, whose moments are built once so that
  each further height within a centre's disk costs the Horner sum (the
  Newton rounds of the zero solve).

``truncated_sums`` sums to a truncation N that varies with t, one
cluster pass per batch over every truncation and exponent, on the same
lattice: no cell crosses a change of N, the phases of 1..max N are
built once per cell, each cell's moments drop the terms past its own N,
and each height gets the bound of its own N.

The kernel takes the integers n, not their logs.  n^(-it) is completely
multiplicative, so ``unit_phases`` reduces t*log(b) mod 2*pi in
longdouble only for the bases b of the set (its primes, and any large
cofactor left unfactored; ``factor_plan``) and builds every other phase
as the product E[n] = E[p] E[n/p], p the least prime factor of n.  Each
product adds ``PRODUCT_ROUNDOFF`` to the bound.  Everything else is
compensated float64.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import errors, sieve
from .accum import sorted_unique

#: The least longdouble significand (bits after the leading one) the
#: phase bounds hold for: x87 extended precision.  ``LD_PHASE_ROUNDOFF``
#: assumes it, and a float64 longdouble would leave every phase bound
#: about 2000 times too small, so the import refuses a narrower one.
LD_NMANT_MIN = 63

if np.finfo(np.longdouble).nmant < LD_NMANT_MIN:
    raise errors.UnsupportedPlatform(
        f"numpy longdouble has {np.finfo(np.longdouble).nmant} significand "
        f"bits; the phase bounds of bsylab need at least {LD_NMANT_MIN} "
        f"(x87 extended precision)")

#: 2*pi to longdouble precision.
TWO_PI_LD = 2 * np.arccos(np.longdouble(-1.0))

#: Bound on the error of a phase t*log(b) reduced mod 2*pi in longdouble
#: (``reduced_phases``), per unit of t*log(b): about 14 longdouble
#: epsilons (2^-63), for the rounding of log b, of the product, and of
#: the multiple of 2*pi taken off.
LD_PHASE_ROUNDOFF = 1.5e-18

_CHUNK = 4_000_000  # max elements of any (points x terms) intermediate

#: At most this many phases are built at once for the moments of
#: ``expansion_about`` (512 KiB of complex), so that its memory does not
#: grow with the number of centres.  1 MiB blocks left the heap larger:
#: the benchmark's zero hunt to about 1e3 (find and verify) peaked at
#: 48.1 MB resident with them and at 45.2 MB with these, whose
#: ``hardy_z_near`` calls took about 0.1 ms (3%) longer (2-vCPU x86).
_CENTRE_BLOCK = 1 << 15

#: ``cluster_horner`` sums at most this many heights at once (three
#: complex temporaries of 128 KiB each).
_HORNER_BLOCK = 1 << 13

#: A height may sit this many float64 ulps of max|t| off the arithmetic
#: progression and still count as on it (linspace and T + dx*arange
#: round each point by one or two).
_GRID_ULPS = 8.0

#: Off a grid, the heights of one lattice cell of width 2*rho, rho =
#: _CLUSTER_R / max log n, share one phase reduction.  A larger value
#: means fewer cells but a longer expansion (about 27 terms at 3 for a
#: 1e-15 floor) and a rounding bound that grows like e^_CLUSTER_R.  On the
#: 10*2^k integral ladder to 5120 with its zeros at hand, 2, 3 and 4 took
#: 0.133, 0.116 and 0.101 s (2-vCPU x86, one BLAS thread, best of 9
#: interleaved runs), and gave I(5120) error estimates of 9.0e-12,
#: 1.03e-11 and 1.39e-11.
_CLUSTER_R = 3.0

#: The cluster path splits a centre's phases into outer x inner only when
#: that reduces at least this many fewer phases than one reduction of the
#: bases per occupied cell: below that the inner reductions of every n
#: and the product per term outweigh the reductions it saves.
_LATTICE_MIN_SAVING = 4096


def phase_roundoff(tmax: float, lmax: float, amp_sum: float) -> float:
    """Floating-point floor of a phase sum with |t| <= tmax, log n <= lmax.

    t*log(b) is reduced mod 2*pi in 80-bit floats (unit roundoff
    ~1.1e-19) for each base b of ``factor_plan``.  The log b of the
    bases of n add up to log n, so each term carries an absolute phase
    error of order t*log(n)*1e-19, as if reduced directly; the
    amplitude-weighted total plus double-precision rounding of one unit
    phase and the accumulation gives the floor.  Each product that
    builds a phase from two adds ``PRODUCT_ROUNDOFF`` on top.
    ``phase_sum`` adds the eps remainder to the floor on the grid path,
    and the truncation tail and the rounding of the expansion (this
    floor at tmax = 0, times e^r - 1) on the cluster path; a lone height
    gets the floor alone.
    """
    return (LD_PHASE_ROUNDOFF * (1.0 + tmax) * lmax + 1.5e-15) * amp_sum


#: Bound on the extra rounding of one phase built as a product, per unit
#: amplitude: the product itself, sqrt(5) u with u = 2^-53 (Brent,
#: Percival and Zimmermann, Math. Comp. 76 (2007) 1469-1481), and the
#: rounding of the one more base phase it brings in: 2u for the reduced
#: phase in [-pi, pi] rounded to float64, sqrt(2) u for its cosine and
#: sine.
PRODUCT_ROUNDOFF = (math.sqrt(5.0) + 2.0 + math.sqrt(2.0)) * 2.0 ** -53

#: Integers up to this bound take their least prime factor from the
#: sieve table (int32, so at most 8 MiB as it grows by doubling); larger
#: ones are tried against the primes up to _TRIAL_MAX, and one with no
#: factor there is a base, prime or not.  Neither bound moves with the
#: largest n.
_SPF_MAX = 1 << 20
_TRIAL_MAX = 1 << 10


@dataclass(frozen=True)
class _FactorPlan:
    """How ``unit_phases`` builds exp(-i t log n) for a set of integers.

    ``closure`` is the ascending set of the input, 1, and each element's
    least prime factor p and cofactor n/p.  The phases of ``bases``
    (indices into it: the primes, and any cofactor left unfactored) are
    reduced directly from ``base_logs``; ``levels`` lists, level by
    level, the (elements, least-factor, cofactor) indices of the rest,
    each the product of two phases of lower levels.  ``take`` maps the
    input to the closure (None when they coincide) and ``products``
    counts, per input integer, the complex products behind its phase.
    """

    closure: np.ndarray
    bases: np.ndarray
    base_logs: np.ndarray
    levels: tuple
    take: np.ndarray | None
    products: np.ndarray


def _least_factors(u: np.ndarray) -> np.ndarray:
    """The least prime factor of each element of the ascending u >= 1 (1 for
    1), or the element itself when it exceeds _SPF_MAX and has no prime
    factor up to _TRIAL_MAX."""
    p = u.copy()
    k = int(np.searchsorted(u, _SPF_MAX, side="right"))
    if k:
        p[:k] = sieve.smallest_prime_factors(int(u[k - 1]))[u[:k]]
    if k < u.size:
        big = u[k:]
        top = min(math.isqrt(int(big[-1])), _TRIAL_MAX)
        for q in sieve.primes_up_to(top)[::-1].tolist():
            p[k:][big % q == 0] = q
    return p


def _build_plan(ns: np.ndarray) -> _FactorPlan:
    """The ``_FactorPlan`` of the integers ns, in vectorized passes over
    the closure: one per round of new factors, one per level."""
    u = sorted_unique(np.append(ns, 1))
    if u[0] < 1:
        raise ValueError("the phase kernel takes integers n >= 1")
    while True:
        p = _least_factors(u)
        if u[-1] == u.size:                     # 1..M: closed already
            break
        new = np.concatenate([p, u // p])
        new = new[u[np.minimum(np.searchsorted(u, new), u.size - 1)] != new]
        if new.size == 0:
            break
        u = sorted_unique(np.concatenate([u, new]))
    bases = np.flatnonzero((p == u) & (u > 1))
    comp = np.flatnonzero(p < u)                # built from two factors
    pf = np.searchsorted(u, p[comp])
    cf = np.searchsorted(u, u[comp] // p[comp])
    level = (p == u).astype(np.int64)           # bases 1, and 1 itself 0
    level[0] = 0
    while True:
        up = level[cf] + 1
        if np.array_equal(up, level[comp]):
            break
        level[comp] = up
    by_level = np.argsort(level[comp], kind="stable")
    cuts = np.searchsorted(level[comp][by_level],
                           np.arange(3, int(level.max(initial=1)) + 1))
    levels = tuple((comp[i], pf[i], cf[i])
                   for i in np.split(by_level, cuts) if i.size)
    same = u.size == ns.size and bool(np.all(u == ns))
    take = None if same else np.searchsorted(u, ns)
    products = np.maximum(level - 1, 0)
    return _FactorPlan(u, bases, np.log(u[bases].astype(np.longdouble)),
                       levels, take, products if same else products[take])


@functools.lru_cache(maxsize=16)
def _plan_of(key: bytes) -> _FactorPlan:
    """``_build_plan`` memoized on the int64 bytes of ns."""
    return _build_plan(np.frombuffer(key, dtype=np.int64))


#: The plan of 1..L for the largest L asked for so far (None before the
#: first), from which every prefix plan is sliced.
_PREFIX_PLAN = None


@functools.lru_cache(maxsize=16)
def _prefix_plan(M: int) -> _FactorPlan:
    """The plan of 1..M, cut from ``_PREFIX_PLAN`` (grown to at least
    twice its size when too short): the same plan as built for 1..M."""
    global _PREFIX_PLAN
    if _PREFIX_PLAN is None or _PREFIX_PLAN.closure.size < M:
        size = 0 if _PREFIX_PLAN is None else _PREFIX_PLAN.closure.size
        _PREFIX_PLAN = _build_plan(np.arange(1, max(M, 2 * size) + 1))
    G = _PREFIX_PLAN
    levels = []
    for idx, pf, cf in G.levels:
        k = int(np.searchsorted(idx, M))
        if k:
            levels.append((idx[:k], pf[:k], cf[:k]))
    k = int(np.searchsorted(G.bases, M))
    return _FactorPlan(G.closure[:M], G.bases[:k], G.base_logs[:k],
                       tuple(levels), None, G.products[:M])


def factor_plan(ns: np.ndarray) -> _FactorPlan:
    """The ``_FactorPlan`` of the integers ns (any order), memoized on their
    values; the plan of 1..M depends only on M."""
    ns = np.ascontiguousarray(ns, dtype=np.int64)
    M = ns.size
    if M and ns[0] == 1 and ns[-1] == M and np.all(np.diff(ns) == 1):
        return _prefix_plan(M)
    return _plan_of(ns.tobytes())


def reduced_phases(x: np.ndarray) -> np.ndarray:
    """exp(-i x) for longdouble phases x = t*log(b): the one place where a
    phase is reduced mod 2*pi.

    x is reduced in place, in longdouble, to x - 2*pi*rint(x/(2*pi)) in
    [-pi, pi], off by a few longdouble ulps of x (at most
    ``LD_PHASE_ROUNDOFF`` * x, the phase part of ``phase_roundoff``), so
    that its float64 rounding is at most 2u.
    """
    k = x / TWO_PI_LD
    np.rint(k, out=k)
    k *= TWO_PI_LD
    x -= k
    del k
    e = -1j * x.astype(float)
    return np.exp(e, out=e)


def _base_phases(ts_ld: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """exp(-i t log b) as a (len(logs) x len(ts)) complex matrix, each
    phase reduced by ``reduced_phases``."""
    return reduced_phases(logs[:, None] * ts_ld[None, :])


def unit_phases(ts_ld: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """exp(-i t log n) as a (len(ts) x len(ns)) complex matrix.

    Only the bases of ``factor_plan(ns)`` are reduced
    (``_base_phases``); every other phase is built level by level as
    E[n] = E[p] E[n/p], p the least prime factor of n, each product
    adding ``PRODUCT_ROUNDOFF`` to its error.
    """
    plan = factor_plan(ns)
    E = np.empty((plan.closure.size, ts_ld.size), dtype=complex)
    E[0] = 1.0
    E[plan.bases] = _base_phases(ts_ld, plan.base_logs)
    for idx, pf, cf in plan.levels:
        prod = E[pf]              # in place: two temporaries, not three
        prod *= E[cf]
        E[idx] = prod
    return (E if plan.take is None else E[plan.take]).T


def _as_progression(ts: np.ndarray):
    """(t_0, dt, eps) with eps_k = t_k - (t_0 + k*dt) in float64, where
    dt = (t_last - t_0)/(K - 1) in longdouble, when every |eps_k| is
    within _GRID_ULPS ulps of max|t|; None otherwise."""
    K = ts.size
    t0 = np.longdouble(ts[0])
    dt = (np.longdouble(ts[-1]) - t0) / (K - 1)
    eps = (ts - (t0 + dt * np.arange(K, dtype=np.longdouble))).astype(float)
    tol = _GRID_ULPS * np.spacing(float(np.max(np.abs(ts))))
    return (t0, dt, eps) if float(np.max(np.abs(eps))) <= tol else None


def _taylor_order(r: float, amp_sum: float,
                  floor: float) -> tuple[int, float]:
    """The smallest J >= 1 whose truncation tail of sum_n A_n e^(-i y_n),
    |y_n| <= r < J + 1, is at most ``floor``, and that tail:
    sum|A_n| * sum_{j>=J} r^j/j! <= sum|A_n| * r^J/J! * (J+1)/(J+1-r)."""
    J, term = 1, amp_sum * r                    # term = sum|A_n| r^J / J!
    while term * (J + 1) > floor * (J + 1 - r):
        J += 1
        term *= r / J
    return J, term * (J + 1) / (J + 1 - r)


def _expansion_bound(floor: float, built: float, amp_sum: float, r: float,
                     tail: float) -> float:
    """The bound of a cluster expansion, r = rho * max l_n * max|x|:
    the floor of ``phase_roundoff``, the built phases, the arithmetic
    floor (``phase_roundoff`` at t = 0) times e^r - 1, and the Taylor
    tail.  The products and sums round relative to sum_j |m_j| |x|^j,
    which can reach e^r sum|a_n|; the floor's phase part and the product
    term are not scaled, because the expansion passes an error in
    a_n exp(-i c l_n) on unamplified."""
    arith = phase_roundoff(0.0, 0.0, amp_sum)   # the part not from phases
    return floor + built + arith * math.expm1(r) + tail


def phase_sum(ns: np.ndarray, amps: np.ndarray,
              ts: np.ndarray) -> tuple[np.ndarray, float]:
    """S(t_k) = sum_n a_n exp(-i t_k l_n), l_n = log n, for every height,
    and a bound.

    ``ns`` are integers n >= 1 (int64, any order), ``amps`` the real a_n
    and ``ts`` a 1-d float array, in any order.  Every unit phase comes
    from ``unit_phases``, which reduces only the bases of
    ``factor_plan(ns)`` and builds the rest as products.  The bound is
    the floating-point floor of ``phase_roundoff``, plus
    ``PRODUCT_ROUNDOFF`` * sum |a_n| (products of n) for each built
    phase in a term, plus the remainder of whichever of two paths runs:

    * Uniform grid.  When ts is an arithmetic progression
      t_k = t_0 + k*dt (to within _GRID_ULPS ulps) and B + J < K, the sum
      is one blocked product: with k = b*J + j, J = ceil(sqrt(K)) (capped
      so P*J <= _CHUNK, P the size of the plan) and B = ceil(K/J),

          S(t_k) = sum_n [a_n exp(-i (t_0 + b*J*dt) l_n)] [exp(-i j*dt l_n)],

      a (B x M) @ (M x J) complex matrix product, so the phase work is
      (B + J) * P instead of K * M.  Each term holds two built phases.
      The residual eps_k of each given t_k off the progression is taken
      to first order, with a second product over the amplitudes
      a_n l_n; the remainder max eps^2 * sum |a_n| l_n^2 / 2 is added to
      the bound.
    * Clusters, for any other input (Odlyzko and Schoenhage, Trans. AMS
      309 (1988) 797-809).  With rho = _CLUSTER_R / max l_n, each
      height t takes the centre c (longdouble) of its cell of the
      lattice c_k = c_0 + k*2*rho over the heights (``_lattice``), with
      x = (t - c)/rho in [-1, 1], and

          S(t) = sum_{j<J} m_j (-i x)^j,
          m_j = sum_n a_n exp(-i c l_n) (rho l_n)^j / j!,

      so the phases are built once per centre, not once per height, and
      the moments of a block of centres are one real product V^T @ A, A
      the real view of the complex a_n exp(-i c l_n), in blocks of at
      most about _CHUNK / 2 phases, one column per occupied cell.  With
      k = q*L + j, exp(-i c_k l_n) = outer[q] * inner[j], the outer
      phases from ``unit_phases`` at c_0 + q*L*2*rho and the inner ones
      reduced directly at j*2*rho, so the reductions number about
      (C/L) * bases + L * M for C cells, not C * bases, and each term
      holds one more product: ``PRODUCT_ROUNDOFF`` * sum |a_n| more.
      When that saves fewer than _LATTICE_MIN_SAVING reductions, L = 1:
      each centre is one ``unit_phases`` row and no product is added.
      The floor holds up to the largest |outer| + |inner| of a centre,
      where the phases are reduced, when that is above max|t|.  With
      r = rho * max l_n * max|x| over the call, J is the smallest order
      whose tail sum|a_n| * r^J/J! * (J+1)/(J+1-r) is below the floor.
      The bound is ``_expansion_bound``.  A lone height is its own
      centre: x = 0, r = 0, J = 1, no tail, so its bound is the floor
      and the product term.  Heights over more than one cell whose
      float64 rounding exceeds rho raise PrecisionUnreachable: no centre
      could sit within rho of each.
    """
    K = ts.size
    plan = factor_plan(ns)
    P = plan.closure.size
    logs = np.log(ns.astype(float))
    amps_abs = np.abs(amps)
    amp_sum = float(amps_abs.sum())
    lmax = float(np.max(logs, initial=0.0))
    tmax = float(np.max(np.abs(ts), initial=0.0))
    bound = phase_roundoff(tmax, lmax, amp_sum)
    built = PRODUCT_ROUNDOFF * float(amps_abs @ plan.products)
    vals = np.empty(K, dtype=complex)
    if K == 0:
        return vals, bound + built
    J = min(math.isqrt(K - 1) + 1, max(1, _CHUNK // P))
    B = -(-K // J)
    grid = _as_progression(ts) if B + J < K else None
    if grid is not None:
        t0, dt, eps = grid
        inner = unit_phases(dt * np.arange(J, dtype=np.longdouble), ns).T
        slope_amps = amps * logs
        slope = np.empty(K, dtype=complex)
        rows = max(1, _CHUNK // (2 * max(P, J)))
        for b0 in range(0, B, rows):
            b1 = min(B, b0 + rows)
            outer = unit_phases(
                t0 + (J * dt) * np.arange(b0, b1, dtype=np.longdouble), ns)
            prod = np.concatenate([outer * amps, outer * slope_amps]) @ inner
            k0, k1 = b0 * J, min(K, b1 * J)
            vals[k0:k1] = prod[:b1 - b0].ravel()[:k1 - k0]
            slope[k0:k1] = prod[b1 - b0:].ravel()[:k1 - k0]
        vals -= 1j * eps * slope
        bound += 2.0 * built + 0.5 * float(np.max(eps * eps)) \
            * float((amps_abs * logs ** 2).sum())
        return vals, bound

    order = np.argsort(ts, kind="stable")
    srt = ts[order]
    rho = _CLUSTER_R / lmax if lmax > 0.0 else math.inf
    cl, x, _, centre_phases, blocks, reach, split = _lattice(
        srt, rho, ns, plan.bases.size, max(1, _CHUNK // (2 * P)))
    bound = phase_roundoff(max(tmax, float(reach.max())), lmax, amp_sum)
    if split:
        built += PRODUCT_ROUNDOFF * amp_sum
    r = _CLUSTER_R * float(np.max(np.abs(x)))   # rho * max l_n * max|x|
    J, tail = _taylor_order(r, amp_sum, bound)
    mom = _cluster_moments(logs, amps, centre_phases, blocks, rho, J)
    vals[order] = cluster_horner(mom, cl, x)
    return vals, _expansion_bound(bound, built, amp_sum, r, tail)


def _lattice(srt: np.ndarray, rho: float, ns: np.ndarray, n_bases: int,
             rows: int, groups: np.ndarray | None = None):
    """The cells of the cluster path: centres c_k = c_0 + k*2*rho, laid
    over the ascending heights srt symmetrically about their midpoint,
    and each height in the cell of its nearest centre, so that its offset
    x = (t - c_k)/rho lies in [-1, 1].  A cell is a run of equal
    (k, group): with ``groups`` (one non-decreasing key per height, the
    truncations of ``truncated_sums``) no cell crosses a change of key,
    and two cells may share a centre.  A lattice of one cell is centred
    on the midpoint, so that a lone height has x = 0 (also at
    rho = inf).

    With k = q*L + j, the phases of a centre are outer[q] * inner[j]:
    ``unit_phases`` at the points c_0 + (2*rho*L)*q of the occupied q,
    and a direct ``reduced_phases`` of every n at the points 2*rho*j of
    the occupied j, so that one more product is the only rounding a term
    gains (``PRODUCT_ROUNDOFF``).  L is about
    sqrt(cells * bases / len(ns)), or 1 (one ``unit_phases`` row per
    occupied centre, no product) where that split saves fewer than
    _LATTICE_MIN_SAVING reductions.  The outer step 2*rho*L is formed in
    longdouble, where it is exact for L < 2^11, so that outer + inner is
    the centre c_k of x to a longdouble rounding.

    Returns (cl, x, first, centre_phases, blocks, reach, split): the
    cell of each height (numbered in ascending order), the offsets, the
    first height of each cell, a function of (c0, c1) giving the
    len(ns) x (c1 - c0) phases exp(-i c l_n) of cells c0..c1 - 1, the
    boundaries of blocks of about ``rows`` cells that split no run of
    one q (so that each outer phase is built once), the |outer| + |inner|
    of each cell's centre (the height its phase floor must hold for),
    and whether L > 1.  Raises PrecisionUnreachable when the heights
    span more than one cell and float64 rounds the largest by more than
    rho, so that no centre could be placed within rho of each.
    """
    K, M = srt.size, ns.size
    width = 2.0 * rho
    span = float(srt[-1] - srt[0]) / width
    top = max(abs(float(srt[0])), abs(float(srt[-1])))
    if span > 1.0 and top * np.finfo(float).eps > rho:
        raise errors.PrecisionUnreachable(
            f"heights from {float(srt[0])!r} to {float(srt[-1])!r} are "
            f"rounded by more than the cell radius {rho!r}")
    cells = max(1, math.ceil(span))
    step = np.longdouble(width if cells > 1 else 0.0)
    c_0 = 0.5 * (np.longdouble(srt[0]) + srt[-1]) - step * (cells - 1) / 2
    # the nearest centre in float64 (x is then taken exactly); ascending
    k = np.clip(np.rint((srt - float(c_0)) / width), 0, cells - 1) \
        .astype(np.int64)
    cl, first = _runs(k, groups)
    cells_at = k[first]
    L = 1
    if cells <= K * K and n_bases * min(K, cells) >= _LATTICE_MIN_SAVING:
        L = max(1, min(round(math.sqrt(cells * n_bases / M)), cells,
                       _CHUNK // (2 * M)))
        q, j = np.divmod(cells_at, L)
        saved = (cells_at.size - 1 - np.count_nonzero(np.diff(q))) * n_bases \
            - np.count_nonzero(np.bincount(j, minlength=L)) * M
        if saved < _LATTICE_MIN_SAVING:
            L = 1
    # x = (t - c_k)/rho with c_k split into float64 hi + lo: t - hi is
    # exact where hi is within a factor 2 of t (Sterbenz), and off by
    # at most an ulp of 2*rho elsewhere
    centre = c_0 + step * cells_at.astype(np.longdouble)
    hi = centre.astype(float)
    lo = (centre - hi).astype(float)
    x = srt - hi[cl]
    x -= lo[cl]
    x /= rho
    if L == 1:
        C = cells_at.size
        return (cl, x, first, lambda c0, c1: unit_phases(centre[c0:c1], ns).T,
                np.append(np.arange(0, C, rows), C),
                np.abs(centre).astype(float), False)
    qi, q_first = _runs(q)
    js = np.flatnonzero(np.bincount(j, minlength=L))
    ji = np.searchsorted(js, j)
    outer_at = c_0 + (step * L) * q[q_first].astype(np.longdouble)
    inner_at = step * js.astype(np.longdouble)
    inner = reduced_phases(np.log(ns.astype(np.longdouble))[:, None]
                           * inner_at[None, :])
    reach = (np.abs(outer_at[qi]) + inner_at[ji]).astype(float)
    blocks = np.append(q_first[np.diff(q_first // rows, prepend=-1) != 0],
                       cells_at.size)

    def centre_phases(c0, c1):
        q0 = qi[c0]
        outer = unit_phases(outer_at[q0:qi[c1 - 1] + 1], ns).T
        out = np.take(outer, qi[c0:c1] - q0, axis=1)
        out *= np.take(inner, ji[c0:c1], axis=1)
        return out

    return cl, x, first, centre_phases, blocks, reach, True


def _runs(v: np.ndarray,
          w: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(run, first) of the non-decreasing integers v, paired, when given,
    with the non-decreasing keys w: the index of each element's run of
    equal (v, w), and the index of each run's first element."""
    new = np.empty(v.size, dtype=bool)
    new[0] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    if w is not None:
        new[1:] |= w[1:] != w[:-1]
    return np.cumsum(new) - 1, np.flatnonzero(new)


def _cluster_moments(logs: np.ndarray, amps: np.ndarray, centre_phases,
                     blocks: np.ndarray, rho: float, J: int,
                     terms: np.ndarray | None = None) -> np.ndarray:
    """The moments m_j = sum_n a_n exp(-i c l_n) (rho l_n)^j / j!,
    j < J, of each centre c, as a (C x J) complex array: the cluster
    path's phase step (``phase_sum``).

    ``logs`` are the float64 l_n and ``centre_phases(c0, c1)`` the
    phases exp(-i c l_n) of centres c0..c1 - 1, one column per centre,
    taken block by block between the ascending boundaries ``blocks``
    (0 first, C last).  The moments of each block are one real product
    V^T @ A, V the (M x J) powers (rho l_n)^j / j! and A the real view
    of a_n exp(-i c l_n), one column per centre.  ``amps`` may also be a
    stack of R rows of amplitudes on the same n: they share the phases,
    A holds R columns per centre, and the moments are (R x C x J).
    ``terms``, when given, holds for each centre the count of leading n
    its sum takes; the amplitudes of the rest are 0 there.  Each call of
    ``centre_phases`` returns a new array, which one row of amplitudes
    and no ``terms`` scale in place.  The moments are stored order by
    order, so that ``mom.T`` is the contiguous columns ``cluster_horner``
    reads.
    """
    M, C = logs.size, int(blocks[-1])
    V = np.ones((M, J))                          # (rho l_n)^j / j!
    for j in range(1, J):
        V[:, j] = V[:, j - 1] * (rho / j) * logs
    stack = np.atleast_2d(amps)
    R = stack.shape[0]
    by_order = np.empty((R, J, C), dtype=complex)
    for c0, c1 in zip(blocks[:-1].tolist(), blocks[1:].tolist()):
        W = stack.T[:, :, None]                  # (M x R x 1) or (M x R x b)
        if terms is not None:
            W = W * (np.arange(M)[:, None] < terms[c0:c1])[:, None, :]
        A = centre_phases(c0, c1)[:, None, :]
        if W.shape[1:] == (1, 1):                # one row, no terms
            np.multiply(A, W, out=A)
        else:
            A = np.multiply(A, W, order="C")
        by_order[:, :, c0:c1] = (V.T @ A.reshape(M, -1).view(float)) \
            .view(complex).reshape(J, R, c1 - c0).transpose(1, 0, 2)
    mom = by_order.transpose(0, 2, 1)
    return mom if amps.ndim > 1 else mom[0]


def cluster_horner(mom: np.ndarray, cl: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """sum_{j<J} m_j (-i x)^j by Horner in z = -i x, each height x on the
    moments ``mom[cl]`` of its centre: the cluster path's evaluation step.
    The moments are read as contiguous columns, one per order j gathered
    at cl (``mom.T``, copied only when not contiguous), and z is formed
    once per block of ``_HORNER_BLOCK`` heights, so that the temporaries
    do not grow with the batch; the steps acc * z + m_j are those of
    forming -i x afresh at each order, so the sum is the same to the
    bit."""
    cols = np.ascontiguousarray(mom.T)
    out = np.empty(x.shape, dtype=complex)
    for b0 in range(0, x.size, _HORNER_BLOCK):
        at = cl[b0:b0 + _HORNER_BLOCK]
        z = -1j * x[b0:b0 + _HORNER_BLOCK]
        acc = out[b0:b0 + _HORNER_BLOCK]
        acc[...] = cols[-1][at]
        for col in cols[-2::-1]:
            acc *= z
            acc += col[at]
    return out


def expansion_about(ns: np.ndarray, amps: np.ndarray, centres: np.ndarray,
                    radius: float, tmax: float):
    """The cluster expansion of sum_n a_n n^(-it), a_n >= 0 and ns = 1..M
    ascending, about fixed centres (longdouble): (rho, mom, bound).

    rho is ``radius`` capped at the cluster radius _CLUSTER_R / max l_n,
    so that r = rho max l_n is at most _CLUSTER_R, the most a
    ``phase_sum`` call reaches; a height t within rho of its centre c
    takes ``cluster_horner`` on mom at x = (t - c)/rho.  The expansion
    runs to the least order whose truncation tail is within the
    arithmetic floor (``phase_roundoff`` at t = 0), not the whole floor:
    a few more Horner steps per height keep the tail below rounding.  The
    moments are built in blocks of at most ``_CENTRE_BLOCK`` phases, and
    ``bound`` is ``_expansion_bound`` for heights up to ``tmax``.
    """
    logs = np.log(ns.astype(float))
    lmax = float(logs[-1])
    rho = min(radius, _CLUSTER_R / lmax)
    r = rho * lmax
    plan = factor_plan(ns)
    amp_sum = float(amps.sum())
    J, tail = _taylor_order(r, amp_sum, phase_roundoff(0.0, 0.0, amp_sum))
    rows = max(1, _CENTRE_BLOCK // plan.closure.size)
    mom = _cluster_moments(
        logs, amps, lambda c0, c1: unit_phases(centres[c0:c1], ns).T,
        np.append(np.arange(0, centres.size, rows), centres.size), rho, J)
    floor = phase_roundoff(tmax, lmax, amp_sum)
    built = PRODUCT_ROUNDOFF * float(amps @ plan.products)
    return rho, mom, _expansion_bound(floor, built, amp_sum, r, tail)


def sums_at_height(ns: np.ndarray, exponents: np.ndarray, t: float):
    """sum_n n^(-s_j) n^(-it) for each exponent s_j at one height t, ns
    = 1..M ascending: (sums, floor, built).  The phases are one
    ``unit_phases`` row; ``floor`` is ``phase_roundoff`` and ``built`` the
    built-phase term, each the largest over the rows."""
    phase = unit_phases(np.array([t], dtype=np.longdouble), ns)[0]
    lnn = np.log(ns.astype(float))
    ampm = np.exp(-np.outer(exponents, lnn))
    return (ampm @ phase, phase_roundoff(abs(t), float(lnn[-1]),
                                         float(ampm.sum(axis=1).max())),
            PRODUCT_ROUNDOFF * float((ampm @ factor_plan(ns).products).max()))


def _truncation_bounds(N, reach, x, split, rho, amps, plan):
    """(J, bounds) of the cluster pass of ``truncated_sums``: the Taylor
    order, and the bound of each height (its truncation N, the
    |outer| + |inner| of its centre, reach, and its offset x) per row of
    ``amps``.

    Each height gets the cluster path's bound at its own truncation N_k,
    with A_k = sum over n <= N_k of |a_n| and r_k = rho log(N_k) |x_k|:
    ``phase_roundoff`` at its centre, where the phases are reduced; the
    built phases (prefix sums of |a_n| times ``plan.products``, and A_k
    more for the product outer * inner when the lattice splits); the
    arithmetic floor times e^(r_k) - 1; and the Taylor tail
    A_k r_k^J/J! (J+1)/(J+1-r_k), J sized at the largest r_k against the
    smallest floor per unit amplitude.
    """
    r = rho * np.log(N) * np.abs(x)
    unit = phase_roundoff(reach, np.log(N), 1.0)
    J, _ = _taylor_order(float(r.max()), 1.0, float(unit.min()))
    unit += phase_roundoff(0.0, 0.0, 1.0) * np.expm1(r)
    unit += r ** J / float(math.factorial(J)) * (J + 1) / (J + 1 - r)
    if split:
        unit += PRODUCT_ROUNDOFF
    amps_abs = np.abs(amps)
    return J, np.cumsum(amps_abs, axis=1)[:, N - 1] * unit \
        + PRODUCT_ROUNDOFF \
        * np.cumsum(amps_abs * plan.products, axis=1)[:, N - 1]


def truncated_sums(ts: np.ndarray, N: np.ndarray,
                   exponents) -> tuple[np.ndarray, np.ndarray]:
    """sum over n <= N_k of n^(-e) n^(-it_k), per exponent e, for each
    height t_k and its truncation N_k >= 2 (integral values, non-decreasing
    in t).

    One cluster pass serves every truncation and exponent.  The sorted
    heights take the cells of the lattice of ``phase_sum``'s cluster path
    (``_lattice``), rho = _CLUSTER_R / log N_max, with N as the group
    key, so that no cell crosses a change of N.  The phases of
    n = 1..N_max are built once per occupied cell, and a cell of
    truncation N_c takes a_n = 0 for n > N_c (``_cluster_moments``).
    Each exponent is a row of amplitudes on the same phases, summed by
    one Horner pass.  Each height gets the bound of its own truncation
    (``_truncation_bounds``).  Returns the sums and their bounds, each
    of shape (len(exponents), len(ts)).
    """
    R, K = len(exponents), ts.size
    sums = np.empty((R, K), dtype=complex)
    bounds = np.empty((R, K))
    if K == 0:
        return sums, bounds
    order = np.argsort(ts, kind="stable")
    srt = ts[order]
    N = np.asarray(N, dtype=np.intp)[order]
    n = np.arange(1, int(N[-1]) + 1)
    logs = np.log(n.astype(float))
    amps = n ** -np.array(exponents, dtype=float)[:, None]
    rho = _CLUSTER_R / float(logs[-1])
    plan = factor_plan(n)
    cl, x, first, centre_phases, blocks, reach, split = _lattice(
        srt, rho, n, plan.bases.size,
        max(1, _CHUNK // (2 * R * plan.closure.size)), N)
    J, bounds[:, order] = _truncation_bounds(N, reach[cl], x, split, rho,
                                             amps, plan)
    mom = _cluster_moments(logs, amps, centre_phases, blocks, rho, J,
                           N[first])
    for row in range(R):
        sums[row, order] = cluster_horner(mom[row], cl, x)
    return sums, bounds
