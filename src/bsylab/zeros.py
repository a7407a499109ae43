"""Nontrivial-zero ordinates: production, import/export, validation,
and the counting function N(t).

Counting is double-checked: the smooth count round(theta/pi + 1 + S(t))
from branch-tracked arg zeta must match the sign-change count of Hardy's
Z.  No Turing-method rigor is attempted at desk heights; the double
check substitutes (mismatch raises Inconsistent and triggers grid
refinement in find_zeros_up_to).
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import errors, zeta
from .config import DEFAULT, PrecisionConfig

#: Default absolute accuracy of computed ordinates.
ORDINATE_ACCURACY = 1e-9

#: Zeros are scanned with step ~ mean_gap / _SCAN_DENSITY.
_SCAN_DENSITY = 24.0

_BLOCK = 128.0

#: Census edges step this far off a found ordinate (0.05 clearance).
_EDGE_STEP = 0.07

#: The scan reaches this far past T, so the last edge can move up.
_EDGE_PAD = 1.0

#: Secant points are kept this fraction of the bracket width inside it.
_REFINE_MARGIN = 1e-6

#: Safety cap on Illinois rounds (about 15 are needed at 1e-9).
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

    def up_to(self, t: float) -> np.ndarray:
        return self.ordinates[self.ordinates <= t]

    def require_height(self, t: float):
        if t > self.covered_height + 1e-12:
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


def mean_gap(t: float) -> float:
    """Mean spacing of ordinates near height t."""
    return 2.0 * math.pi / math.log(max(t, 20.0) / (2.0 * math.pi))


def _scan_grid(lo: float, hi: float, density: float) -> np.ndarray:
    """Height-adapted scan grid on [lo, hi]."""
    pieces = []
    a = lo
    while a < hi:
        b = min(hi, max(a * 1.5, a + 64.0))
        step = mean_gap(b) / density
        pieces.append(np.arange(a, b, step))
        a = b
    pieces.append(np.array([hi]))
    return np.concatenate(pieces)


def _z_signs(ts: np.ndarray, cfg: PrecisionConfig) -> np.ndarray:
    vals, _ = zeta.hardy_z_batch(ts, 1e-6, cfg)
    return vals


def _refine_brackets(lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
                     fhi: np.ndarray, cfg: PrecisionConfig) -> np.ndarray:
    """Vectorized Illinois (modified regula falsi) on sign-change brackets.

    ``flo``/``fhi`` are Z at the bracket ends, taken from the scan.  Each
    round evaluates Z at the secant point of every bracket still wider
    than 0.05 * ORDINATE_ACCURACY and keeps the half with the sign
    change; an end kept twice in a row has its value halved (Dowell &
    Jarratt, BIT 11 (1971)), so both ends close in superlinearly.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    flo, fhi = flo.astype(float), fhi.astype(float)
    kept = np.zeros(lo.shape, dtype=int)  # end kept last round: -1 lo, +1 hi
    for _ in range(_REFINE_MAX_ROUNDS):
        act = np.nonzero(hi - lo >= 0.05 * ORDINATE_ACCURACY)[0]
        if act.size == 0:
            break
        a, b, fa, fb = lo[act], hi[act], flo[act], fhi[act]
        w = b - a
        x = np.clip(b - fb * w / (fb - fa), a + _REFINE_MARGIN * w,
                    b - _REFINE_MARGIN * w)
        # NaN, or an end reached by rounding: take the midpoint
        x = np.where((x > a) & (x < b), x, a + 0.5 * w)
        fx, _ = zeta.hardy_z_batch(x, 1e-9, cfg)
        keep_lo = (fx != 0.0) & (np.sign(fx) == np.sign(fb))  # root in [a, x]
        keep_hi = (fx != 0.0) & ~keep_lo                       # root in [x, b]
        k = kept[act]
        fa = np.where(keep_lo & (k == -1), 0.5 * fa, fa)
        fb = np.where(keep_hi & (k == 1), 0.5 * fb, fb)
        lo[act] = np.where(keep_lo, a, x)
        hi[act] = np.where(keep_hi, b, x)
        flo[act] = np.where(keep_lo, fa, fx)
        fhi[act] = np.where(keep_hi, fb, fx)
        kept[act] = np.where(keep_lo, -1, np.where(keep_hi, 1, 0))
    return 0.5 * (lo + hi)


def _newton_polish(g: np.ndarray, cfg: PrecisionConfig,
                   rounds: int = 2) -> np.ndarray:
    """Newton refinement of near-roots of Z using the accurate path."""
    h = 1e-5
    for _ in range(rounds):
        pts = np.concatenate([g, g + h, g - h])
        vals, _ = zeta.hardy_z_batch(pts, cfg.target_abs_error, cfg)
        z0 = vals[: g.size]
        zp = (vals[g.size: 2 * g.size] - vals[2 * g.size:]) / (2 * h)
        safe = np.abs(zp) > 1e-8
        step = np.where(safe, z0 / np.where(safe, zp, 1.0), 0.0)
        g = g - np.clip(step, -1e-3, 1e-3)
    return g


def _smooth_count(t: float, cfg: PrecisionConfig) -> int:
    """round(theta(t)/pi + 1 + S(t)) with branch-tracked S."""
    th = zeta.rs_theta(t)
    lz = zeta.log_zeta_branch(0.5, t, cfg)
    x = th / math.pi + 1.0 + lz.imag / math.pi
    n = int(round(x))
    if abs(x - n) > 0.25:
        raise errors.Inconsistent(
            f"smooth zero count {x} suspiciously far from an integer at t={t}")
    return n


def count_zeros(t: float, cfg: PrecisionConfig = DEFAULT) -> int:
    """N(t), cross-checked between the smooth formula and sign changes."""
    if t < 10.0:
        raise ValueError("count_zeros requires t >= 10")
    zt, _ = zeta.hardy_z_batch(np.array([t]), 1e-9, cfg)
    if abs(float(zt[0])) < 1e-6:
        raise errors.OnOrdinate(f"t = {t} is (numerically) a zero ordinate")
    n_formula = _smooth_count(t, cfg)
    n_scan = _sign_change_count(t, cfg)
    if n_formula != n_scan:
        raise errors.Inconsistent(
            f"N({t}): smooth formula gives {n_formula}, sign-change scan "
            f"gives {n_scan}")
    return n_formula


def _sign_change_count(t: float, cfg: PrecisionConfig,
                       density: float = _SCAN_DENSITY) -> int:
    grid = _scan_grid(5.0, t, density)
    vals = _z_signs(grid, cfg)
    return int(np.count_nonzero(np.sign(vals[1:]) != np.sign(vals[:-1])))


def find_zeros_up_to(T: float, cfg: PrecisionConfig = DEFAULT) -> ZeroList:
    """All ordinates in (0, T], verified against the independent count.

    Scans Z for sign changes with height-adapted steps on (5, T + 1],
    refines each bracket by Illinois at 1e-9, Newton-polishes on the
    accurate path, and checks every 128-unit block against
    round(theta/pi + 1 + S), re-scanning a block at up to 256x the
    density when the two disagree.  Census edges are moved off found
    ordinates: interior edges downward, the last edge upward past T, so
    a zero just below T stays in the list, which is then cut at T.
    """
    if T < 15.0:
        raise ValueError("find_zeros_up_to requires T >= 15")
    found = _find_in_window(5.0, T + _EDGE_PAD, cfg, _SCAN_DENSITY)

    # block-wise census against the smooth count
    edges = [_shift_off_ordinate(e, found, -_EDGE_STEP)
             for e in np.arange(_BLOCK, T, _BLOCK)]
    edges.append(_shift_off_ordinate(T, found, _EDGE_STEP))
    prev = 0
    lo_edge = 5.0
    zs = []
    for e_eff in edges:
        c = _smooth_count(e_eff, cfg)
        expect = c - prev
        got = found[(found > lo_edge) & (found <= e_eff)]
        density = _SCAN_DENSITY
        for _ in range(4):
            if got.size == expect:
                break
            density *= 4.0
            got = _find_in_window(max(lo_edge - 0.5, 5.0), e_eff + 1e-12,
                                  cfg, density)
            got = got[(got > lo_edge) & (got <= e_eff)]
        if got.size != expect:
            raise errors.Inconsistent(
                f"block ({lo_edge}, {e_eff}]: found {got.size} zeros, "
                f"smooth count expects {expect}")
        zs.append(got)
        prev, lo_edge = c, e_eff
    ordinates = np.concatenate(zs)
    ordinates = ordinates[ordinates <= T]
    return ZeroList(ordinates, covered_height=T, source="computed",
                    verified=True)


def _find_in_window(lo: float, hi: float, cfg: PrecisionConfig,
                    density: float) -> np.ndarray:
    grid = _scan_grid(lo, hi, density)
    vals = _z_signs(grid, cfg)
    idx = np.nonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0]
    if idx.size == 0:
        return np.zeros(0)
    roots = _refine_brackets(grid[idx], grid[idx + 1], vals[idx],
                             vals[idx + 1], cfg)
    return np.sort(_newton_polish(roots, cfg))


def _shift_off_ordinate(e: float, found: np.ndarray, step: float) -> float:
    """Step a census edge until every found ordinate is over 0.05 away."""
    for _ in range(50):
        if found.size == 0 or np.min(np.abs(found - e)) > 0.05:
            return e
        e = max(e + step, 10.0)
    return e


def verify_zero_list(zl: ZeroList, cfg: PrecisionConfig = DEFAULT) -> ZeroList:
    """Set ``verified`` by census and per-entry residual checks."""
    g = zl.ordinates
    if g.size:
        vals, _ = zeta.hardy_z_batch(g, cfg.target_abs_error, cfg)
        h = 1e-5
        vp, _ = zeta.hardy_z_batch(g + h, 1e-9, cfg)
        vm, _ = zeta.hardy_z_batch(g - h, 1e-9, cfg)
        deriv = np.abs(vp - vm) / (2 * h)
        bad = np.abs(vals) > 1e-7 * np.maximum(deriv, 1.0)
        if np.any(bad):
            raise errors.Inconsistent(
                "zero residual |Z(gamma)| too large",
                index=int(np.nonzero(bad)[0][0]))
    top = _shift_off_ordinate(zl.covered_height, g, -_EDGE_STEP)
    expected = _smooth_count(top, cfg) if top >= 10 else 0
    n_in = int(np.count_nonzero(g <= top))
    if n_in != expected:
        raise errors.Inconsistent(
            f"census mismatch: list has {n_in} zeros below {top}, "
            f"smooth count expects {expected}")
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
    close = False
    if isinstance(stream, (str, os.PathLike)):
        stream = open(stream, "r", encoding="utf-8")
        close = True
    try:
        return _parse_zero_lines(stream)
    finally:
        if close:
            stream.close()


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
    """Write the plain-text format (12 decimal places)."""
    close = False
    if isinstance(stream, str):
        stream = open(stream, "w", encoding="utf-8")
        close = True
    try:
        stream.write(f"{_HEADER}{zl.covered_height!r}\n")
        stream.write(f"# source={zl.source} verified={zl.verified}\n")
        for g in zl.ordinates:
            stream.write(f"{g:.12f}\n")
    finally:
        if close:
            stream.close()
