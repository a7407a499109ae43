"""Nontrivial-zero ordinates: production, import/export, validation,
and the counting function N(t), certified by Turing's method.

Z is scanned at 1e-6 through the Gram points g_n (theta(g_n) = n pi),
``_SCAN_DENSITY`` = 8 steps per Gram interval.  g_n is good when
(-1)^n Z(g_n) exceeds its error bound.  A Gram block [g_j, g_k) between
consecutive good points with fewer than k - j sign changes breaks
Rosser's rule and is re-scanned at 4x the density, up to
``_ESCALATION_ROUNDS`` times.  K blocks that keep the rule above
g_n > 168 pi, K >= 0.0061 log^2 g_p + 0.08 log g_p at their top g_p,
give N(g_n) <= n + 1 (R. P. Brent, Math. Comp. 33 (1979) 1361-1372,
Th. 3.2); n + 1 sign changes below g_n then account for every zero up
to it.  A block still short after the re-scans, or any other total,
raises Inconsistent.  A coarse scan is therefore safe: a pair of zeros
missed inside one step leaves the total short of n + 1, which makes
some block short and re-scanned, or the scan raises.  The zero in each
certified bracket is found by Newton's method on Z at the target
accuracy, with bisection wherever a step would leave the bracket, on
one Taylor expansion of Z per bracket (``zeta.hardy_z_near``): its
phases are reduced once, and each round costs a Horner sum per point.
``verify_zero_list`` builds its own expansion, one about each listed
ordinate, so that it does not rely on those of the solve.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import errors, zeta
from .config import DEFAULT, PrecisionConfig

#: Default absolute accuracy of computed ordinates.
ORDINATE_ACCURACY = 1e-9

#: Scan steps per Gram interval.
_SCAN_DENSITY = 8

#: A short Gram block is re-scanned at 4x the density this many times.
_ESCALATION_ROUNDS = 5

#: Lehman's bound on the integral of S holds above this height.
_TURING_T_MIN = 168.0 * math.pi

#: Gram intervals scanned above the one at max(T, 168 pi).
_SCAN_MARGIN = 16

#: Secant points are kept this fraction of the bracket width inside it.
_REFINE_MARGIN = 1e-6

#: Safety cap on Newton rounds (about 5 are needed).
_REFINE_MAX_ROUNDS = 64


@dataclass
class ZeroList:
    """Validated ascending list of zero ordinates up to covered_height."""

    ordinates: np.ndarray
    covered_height: float
    source: str = "computed"
    verified: bool = False

    def __post_init__(self):
        self.ordinates = np.asarray(self.ordinates, dtype=float)
        if self.ordinates.size:
            if np.any(self.ordinates <= 0):
                raise ValueError("ordinates must be positive")
            if np.any(np.diff(self.ordinates) <= 0):
                raise errors.NotAscending("ordinates must be strictly ascending")
            if float(self.ordinates[-1]) > self.covered_height + 1e-9:
                raise ValueError("ordinate exceeds covered_height")
        if self.source not in ("computed", "imported"):
            raise ValueError("source must be 'computed' or 'imported'")

    def __len__(self):
        return self.ordinates.size

    def require_height(self, t: float) -> None:
        """Raise ZeroListInsufficient unless verified and covering t."""
        if not self.verified:
            raise errors.ZeroListInsufficient("zero list must be verified")
        if not self.covered_height >= t:
            raise errors.ZeroListInsufficient(
                f"zero list covers {self.covered_height}, need {t}")


@dataclass(frozen=True)
class ZeroCandidate:
    """Hypothetical off-line zero rho = beta + i gamma (beta > 1/2)."""

    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.5 < self.beta < 1.0:
            raise errors.BetaOutOfRange(
                f"beta must lie strictly in (1/2, 1), got {self.beta}")


def _z_triplets(near: zeta.NearZ, x: np.ndarray, at: np.ndarray, h: float,
                cfg: PrecisionConfig):
    """((Z(x), Z(x + h), Z(x - h)), their bounds): each x on the
    expansion of ``near`` about centre ``at``, except where
    ``near.serves`` refuses a point, which ``zeta.hardy_z_batch``
    evaluates at ``cfg.target_abs_error``."""
    pts, idx = np.concatenate([x, x + h, x - h]), np.tile(at, 3)
    z, e = np.empty(pts.size), np.empty(pts.size)
    here = near.serves(pts, idx)
    z[here], e[here] = near(pts[here], idx[here])
    if not np.all(here):
        z[~here], e[~here] = zeta.hardy_z_batch(pts[~here],
                                                cfg.target_abs_error, cfg)
    return np.split(z, 3), np.split(e, 3)


def _solve_brackets(lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
                    fhi: np.ndarray, cfg: PrecisionConfig) -> np.ndarray:
    """Roots of Z by safeguarded Newton inside sign-change brackets.

    ``flo``/``fhi`` are Z at the bracket ends, taken from the scan; each
    root starts at the secant point.  Z is evaluated by one
    ``zeta.hardy_z_near`` built for the call: one centre per bracket, at
    its midpoint, with a radius that covers the bracket and the stencil.
    A point outside its centre's disk (a bracket wider than the cluster
    radius), or where ``hardy_z_batch`` would try Riemann-Siegel, is
    evaluated by ``zeta.hardy_z_batch`` instead.  Each round evaluates
    Z at x, x + h and x - h (h = 1e-5, ``cfg.target_abs_error``) for
    every active root; where |Z(x)| exceeds its bound, x becomes the
    bracket end of its sign.  The Newton step uses the central-difference
    derivative; a step that leaves the bracket is replaced by bisection,
    so each root stays in its own bracket.  A root is done after a step
    of at most 0.05 * ORDINATE_ACCURACY, or once |Z(x)| is within its
    bound (then x takes the Newton step if it stays in the bracket).  A
    root still active after ``_REFINE_MAX_ROUNDS`` raises Inconsistent.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    w = hi - lo
    x = np.clip(hi - fhi * w / (fhi - flo), lo + _REFINE_MARGIN * w,
                hi - _REFINE_MARGIN * w)
    # NaN, or an end reached by rounding: take the midpoint
    x = np.where((x > lo) & (x < hi), x, lo + 0.5 * w)
    h = 1e-5
    # 2h: the stencil, and room for the rounding of the midpoint
    near = zeta.hardy_z_near(lo + 0.5 * w, 0.5 * w + 2 * h,
                             cfg.target_abs_error, cfg)
    act = np.arange(x.size)
    for _ in range(_REFINE_MAX_ROUNDS):
        if act.size == 0:
            break
        g = x[act]
        (z0, zp, zm), (e0, _, _) = _z_triplets(near, g, act, h, cfg)
        sure = np.abs(z0) > e0
        up = sure & (np.sign(z0) == np.sign(flo[act]))  # root above g
        a = lo[act] = np.where(up, g, lo[act])
        b = hi[act] = np.where(sure & ~up, g, hi[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = g - z0 * (2 * h) / (zp - zm)
        inside = (xn >= a) & (xn <= b)
        x[act] = np.where(inside, xn, np.where(sure, a + 0.5 * (b - a), g))
        done = ~sure | (np.abs(x[act] - g) <= 0.05 * ORDINATE_ACCURACY)
        act = act[~done]
    if act.size:
        i = int(act[0])
        raise errors.Inconsistent(
            f"Newton on Z did not converge in {_REFINE_MAX_ROUNDS} rounds "
            f"at {x[i]} in the bracket [{lo[i]}, {hi[i]}]", index=i)
    return x


def _gram_index(t: float) -> int:
    """Largest n with g_n <= t; -2 on [5, g_{-1}), where theta < -pi."""
    return math.floor(zeta.rs_theta(max(t, 5.0)) / math.pi)


def _find_in_window(j: int, k: int, density: int, cfg: PrecisionConfig):
    """Z at 1e-6 on [g_j, g_k], ``density`` steps per Gram interval
    (g_{-2} = 5): the Gram heights, which are good, and the sign-change
    brackets as rows (lo, hi, Z(lo), Z(hi), Gram interval index)."""
    ns = np.arange(j, k + 1)
    gs = np.where(ns < -1, 5.0, zeta.gram_points(np.maximum(ns, -1)))
    grid = np.append((gs[:-1, None] + np.diff(gs)[:, None]
                      * (np.arange(density) / density)).ravel(), gs[-1])
    vals, errs = zeta.hardy_z_batch(grid, 1e-6, cfg)
    good = (ns >= -1) & ((-1.0) ** ns * vals[::density] > errs[::density])
    i = np.flatnonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))
    return gs, good, np.array([grid[i], grid[i + 1], vals[i], vals[i + 1],
                               j + i // density])


def _certified_scan(T: float, cfg: PrecisionConfig, a: int = -2,
                    below: int = 0) -> np.ndarray:
    """Sign-change brackets (lo, hi, Z(lo), Z(hi)) of Z above g_a, ascending.

    g_a is good with ``below`` zeros under it (a = -2: t = 5).  g_n is the
    first good Gram point above max(T, 168 pi); the scan ends at the top
    g_p of the K blocks above it.  Each bracket below g_n then holds one
    zero and no other zero lies below g_n; else raises Inconsistent.
    """
    m = _gram_index(max(T, _TURING_T_MIN)) + 1
    gs, good, br = _find_in_window(a, m + _SCAN_MARGIN, _SCAN_DENSITY, cfg)
    goods = np.flatnonzero(good) + a
    after = goods[goods >= m]
    L = np.log(gs[after - a])
    K = np.flatnonzero(np.arange(after.size) >= 0.0061 * L * L + 0.08 * L)
    if not np.any(K > 0):
        raise errors.Inconsistent(
            f"no Turing certificate within {_SCAN_MARGIN} Gram intervals "
            f"above g_{m} = {gs[m - a]}")
    n, p = int(after[0]), int(after[K[K > 0][0]])
    goods, br = goods[goods <= p], br[:, br[4] < p]
    short = np.diff(np.searchsorted(br[4], goods)) < np.diff(goods)
    for j, k in zip(goods[:-1][short].tolist(), goods[1:][short].tolist()):
        inside = (br[4] >= j) & (br[4] < k)
        sub, density = br[:, inside], _SCAN_DENSITY
        for _ in range(_ESCALATION_ROUNDS):
            if sub.shape[1] >= k - j:
                break
            density *= 4
            sub = _find_in_window(j, k, density, cfg)[2]
        if sub.shape[1] < k - j:
            raise errors.Inconsistent(
                f"Gram block [g_{j}, g_{k}) has {sub.shape[1]} sign changes"
                f" at {density} steps per interval; Rosser's rule needs "
                f"{k - j}")
        br = np.concatenate([br[:, ~inside], sub], axis=1)
    got = below + int(np.count_nonzero(br[4] < n))
    if got != n + 1:
        raise errors.Inconsistent(f"{got} zeros below g_{n} = {gs[n - a]}; "
                                  f"Turing's method certifies {n + 1}")
    return br[:4, np.argsort(br[0])]


def count_zeros(t: float, cfg: PrecisionConfig = DEFAULT) -> int:
    """N(t) from the certified brackets; Z(t) places the one across t."""
    if t < 10.0:
        raise ValueError("count_zeros requires t >= 10")
    zt, _ = zeta.hardy_z_batch(np.array([t]), 1e-9, cfg)
    if abs(float(zt[0])) < 1e-6:
        raise errors.OnOrdinate(f"t = {t} is (numerically) a zero ordinate")
    lo, hi, flo, _ = _certified_scan(t, cfg)
    return int(np.count_nonzero(
        (lo < t) & ((hi <= t) | (np.sign(flo) != np.sign(zt[0])))))


def find_zeros_up_to(T: float, cfg: PrecisionConfig = DEFAULT) -> ZeroList:
    """All ordinates in (0, T], complete by Turing's method: the roots of
    Z in the certified brackets that start at or below T, by Newton
    safeguarded by each bracket on the accurate path, cut at T."""
    if not (math.isfinite(T) and T >= 15.0):
        raise ValueError("find_zeros_up_to requires finite T >= 15")
    lo, hi, flo, fhi = _certified_scan(T, cfg)
    m = lo <= T
    ordinates = _solve_brackets(lo[m], hi[m], flo[m], fhi[m], cfg)
    return ZeroList(ordinates[ordinates <= T], covered_height=T,
                    source="computed", verified=True)


def verify_zero_list(zl: ZeroList, cfg: PrecisionConfig = DEFAULT) -> ZeroList:
    """Set ``verified`` by per-entry residuals and a certified count.

    Each ordinate must be a root of Z with a certified sign change of Z
    across [gamma - h, gamma + h], h = 1e-5, and no two ordinates lie
    within 2h: each holds a zero of its own.  Z and its bound at gamma
    and gamma +- h come from one ``zeta.hardy_z_near`` with a disk of
    radius 2h about each ordinate, a Taylor expansion of a few orders;
    a point it does not serve (where ``hardy_z_batch`` would try
    Riemann-Siegel) is evaluated by ``zeta.hardy_z_batch``.  An
    ordinate below 2h raises Inconsistent with its index.  With g_a the
    last good Gram point at or below the covered height H, the
    ordinates below g_a count towards Turing's n + 1, and each sign
    change of Z in (g_a, H] must hold exactly one listed ordinate.
    """
    g = zl.ordinates
    if g.size:
        h = 1e-5
        if g[0] < 2 * h:    # its disk would reach below t = 0
            raise errors.Inconsistent(
                f"listed ordinate {g[0]} lies within {2 * h} of t = 0, "
                f"below the first zero", index=0)
        # one expansion about each ordinate; 2h: the stencil, and room
        # for the rounding of g +- h
        near = zeta.hardy_z_near(g, 2 * h, cfg.target_abs_error, cfg)
        (vals, vp, vm), (_, ep, em) = _z_triplets(near, g, np.arange(g.size),
                                                  h, cfg)
        deriv = np.abs(vp - vm) / (2 * h)
        bad = np.abs(vals) > 1e-7 * np.maximum(deriv, 1.0)
        if np.any(bad):
            raise errors.Inconsistent(
                "zero residual |Z(gamma)| too large",
                index=int(np.nonzero(bad)[0][0]))
        lone = (vp * vm < 0) & (np.abs(vp) > ep) & (np.abs(vm) > em)
        lone[1:] &= np.diff(g) > 2 * h
        if not np.all(lone):
            i = int(np.nonzero(~lone)[0][0])
            raise errors.Inconsistent(
                f"no certified sign change of Z within {h} of the listed "
                f"ordinate {g[i]} that no other entry shares", index=i)
    # the window starts at g_a, the last good of the 9 Gram points up to H
    H = zl.covered_height
    j = max(_gram_index(H) - 8, -2)
    gs, good, _ = _find_in_window(j, _gram_index(H), 1, cfg)
    a = j + int(np.max(np.flatnonzero(good), initial=0))
    ga = float(gs[a - j])
    br = _certified_scan(H, cfg, a, int(np.count_nonzero(g < ga)))
    lo, hi, flo = br[:3, br[0] < H]
    held = np.searchsorted(g, hi, "right") - np.searchsorted(g, lo, "left")
    unheld_across = bool(held.size) and hi[-1] > H and held[-1] == 0
    if unheld_across:  # Z must keep its sign from lo[-1] to H
        zh, eh = zeta.hardy_z_batch(np.array([H]), 1e-9, cfg)
        unheld_across = not (zh[0] * flo[-1] > 0 and abs(zh[0]) > eh[0])
    if unheld_across or np.any(held[hi <= H] != 1) or np.any(held > 1) \
            or held.sum() != np.count_nonzero(g > ga):
        raise errors.Inconsistent(
            f"listed ordinates in ({ga}, {H}] do not match the sign "
            f"changes of Z one to one")
    return ZeroList(zl.ordinates, zl.covered_height, zl.source, True)


# ----------------------------------------------------------------------
# Plain-text zero files
# ----------------------------------------------------------------------

def import_zeros(stream) -> ZeroList:
    """Parse the plain-text zero format.

    UTF-8 text, '#'-prefixed comment lines, one decimal ordinate per
    line, strictly ascending, dot decimal separator.  ``stream`` is a
    file path or an iterable of lines.  The covered height is read from
    a ``# zero ordinates up to H`` line (as ``export_zeros`` writes it;
    H below the last ordinate raises ParseError), else it is the last
    ordinate.
    """
    if isinstance(stream, (str, os.PathLike)):
        with open(stream, encoding="utf-8") as f:
            return _parse_zero_lines(f)
    return _parse_zero_lines(stream)


_HEADER = "# zero ordinates up to "


def _parse_zero_lines(stream) -> ZeroList:
    ords = []
    header = None
    for ln, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line.startswith(_HEADER):
            try:
                header = float(line[len(_HEADER):])
            except ValueError:
                header = math.nan
            if not math.isfinite(header) or header <= 0:
                raise errors.ParseError(
                    f"line {ln}: bad covered height: {line!r}",
                    line_number=ln)
            continue
        if not line or line.startswith("#"):
            continue
        try:
            v = float(line)
        except ValueError:
            raise errors.ParseError(f"line {ln}: not a decimal: {line!r}",
                                    line_number=ln)
        if not math.isfinite(v) or v <= 0:
            raise errors.ParseError(f"line {ln}: ordinate must be positive",
                                    line_number=ln)
        if ords and v <= ords[-1]:
            raise errors.NotAscending(
                f"line {ln}: {v} not above previous {ords[-1]}")
        ords.append(v)
    arr = np.asarray(ords)
    covered = float(arr[-1]) if arr.size else 0.0
    if header is not None:
        if header < covered:
            raise errors.ParseError(
                f"covered height {header!r} below the last ordinate "
                f"{covered!r}")
        covered = header
    return ZeroList(arr, covered_height=covered, source="imported",
                    verified=False)


def export_zeros(zl: ZeroList, stream) -> None:
    """Write the plain-text format to a path or stream.

    Each ordinate is written as the shortest decimal that reads back as
    the same float (``repr``), so ``import_zeros`` returns the list bit
    for bit.
    """
    lines = [f"{_HEADER}{zl.covered_height!r}\n",
             f"# source={zl.source} verified={zl.verified}\n"]
    lines += [f"{g!r}\n" for g in zl.ordinates.tolist()]
    if isinstance(stream, (str, os.PathLike)):
        with open(stream, "w", encoding="utf-8") as f:
            f.writelines(lines)
    else:
        stream.writelines(lines)
