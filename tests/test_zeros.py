"""Zero finding, counting, verification and the text cache format."""

import functools
import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsylab import errors
from bsylab.config import DEFAULT
from bsylab.zeros import (
    ORDINATE_ACCURACY,
    ZeroList,
    _refine_brackets,
    _SCAN_DENSITY,
    count_zeros,
    export_zeros,
    find_zeros_up_to,
    import_zeros,
    mean_gap,
    verify_zero_list,
)
from bsylab.zeta import hardy_z, hardy_z_batch

mpmath.mp.dps = 30

GAMMA_1 = 14.134725141734693  # bisection oracle, re-derived below


def _bisect_gamma(lo: float, hi: float) -> float:
    flo = float(hardy_z(lo, DEFAULT))
    assert flo * float(hardy_z(hi, DEFAULT)) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = float(hardy_z(mid, DEFAULT))
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_first_ordinate_bisection_oracle(zeros_100):
    oracle = _bisect_gamma(14.0, 14.2)
    assert abs(oracle - GAMMA_1) < 1e-10
    assert abs(float(zeros_100.ordinates[0]) - oracle) < 1e-8


def test_count_to_100_sign_change_oracle(zeros_100):
    ts = np.linspace(0.5, 100.0, 40001)
    from bsylab.zeta import hardy_z_batch
    zs = hardy_z_batch(ts, 1e-6, DEFAULT)[0]
    independent = int(np.count_nonzero(np.sign(zs[:-1]) != np.sign(zs[1:])))
    assert independent == 29
    assert len(zeros_100) == independent
    assert count_zeros(100.0, DEFAULT) == independent


def test_ordinates_match_mpmath(zeros_100):
    for k in (1, 5, 17, 29):
        oracle = float(mpmath.zetazero(k).imag)
        assert abs(float(zeros_100.ordinates[k - 1]) - oracle) \
            <= ORDINATE_ACCURACY * 10


#: Indices of the Lehmer pair near t = 7005.06 (gap ~0.038).
LEHMER_PAIR = (6709, 6710)


@functools.lru_cache(maxsize=None)
def _zetazero(k: int) -> float:
    return float(mpmath.zetazero(k).imag)


def _refined_roots(lo: float, hi: float, step: float) -> np.ndarray:
    """Illinois roots of the sign changes of Z on a grid, unpolished."""
    grid = np.arange(lo, hi, step)
    vals = hardy_z_batch(grid, 1e-6, DEFAULT)[0]
    idx = np.nonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0]
    return _refine_brackets(grid[idx], grid[idx + 1], vals[idx],
                            vals[idx + 1], DEFAULT)


def test_illinois_refinement_matches_mpmath():
    # brackets at the default scan step near t = 100 (zeros 28..31) ...
    roots = _refined_roots(95.0, 105.0, mean_gap(105.0) / _SCAN_DENSITY)
    assert roots.size == 4
    for k, r in zip(range(28, 32), roots):
        assert abs(r - _zetazero(k)) <= ORDINATE_ACCURACY
    # ... and a grid fine enough to split the Lehmer pair
    roots = _refined_roots(7004.9, 7005.3, 0.005)
    assert roots.size == 2
    for k, r in zip(LEHMER_PAIR, roots):
        assert abs(r - _zetazero(k)) <= ORDINATE_ACCURACY


def test_lehmer_pair_in_tall_list(zeros_10k):
    for k in LEHMER_PAIR:
        assert abs(float(zeros_10k.ordinates[k - 1]) - _zetazero(k)) \
            <= ORDINATE_ACCURACY


@pytest.mark.parametrize("k, offset", [(31, 0.005), (35, 0.03), (39, 0.049)])
def test_height_just_above_ordinate_keeps_it(k, offset):
    # T within the 0.05 census clearance above zero k
    gamma = _zetazero(k)
    zl = verify_zero_list(find_zeros_up_to(gamma + offset, DEFAULT), DEFAULT)
    assert len(zl) == k
    assert abs(float(zl.ordinates[-1]) - gamma) <= ORDINATE_ACCURACY


def test_verify_marks_verified(zeros_100):
    assert zeros_100.verified
    assert zeros_100.covered_height >= 100.0


def test_verify_rejects_missing_zero(zeros_100):
    broken = ZeroList(np.delete(zeros_100.ordinates, 3),
                      zeros_100.covered_height)
    with pytest.raises(errors.Inconsistent):
        verify_zero_list(broken, DEFAULT)


def test_verify_rejects_moved_ordinate(zeros_100):
    g = zeros_100.ordinates.copy()
    g[7] += 1e-6
    with pytest.raises(errors.Inconsistent) as exc:
        verify_zero_list(ZeroList(g, zeros_100.covered_height), DEFAULT)
    assert exc.value.index == 7


def test_mean_gap_positive_and_shrinking():
    assert mean_gap(100.0) > mean_gap(1000.0) > 0


def test_export_import_roundtrip(zeros_100, tmp_path):
    path = tmp_path / "cache.txt"
    export_zeros(zeros_100, str(path))
    back = import_zeros(str(path))
    assert back.source == "imported"
    np.testing.assert_allclose(back.ordinates, zeros_100.ordinates,
                               rtol=0, atol=1e-12)
    # the "# zero ordinates up to H" header carries the covered height
    assert back.covered_height == zeros_100.covered_height
    assert back.covered_height > float(back.ordinates[-1])


def test_import_bad_header_rejected():
    for height in ("20.0", "nan", "-5", "thirty"):
        with pytest.raises(errors.ParseError):
            import_zeros(io.StringIO(
                f"# zero ordinates up to {height}\n14.13\n21.02\n"))
    # without the header the last ordinate is the covered height
    assert import_zeros(io.StringIO("14.13\n21.02\n")).covered_height \
        == 21.02


def test_load_zeros_uses_header_height(zeros_100, tmp_path, monkeypatch):
    from bsylab import cli, zeros

    path = tmp_path / "cache.txt"
    export_zeros(zeros_100, str(path))
    need = 0.5 * (float(zeros_100.ordinates[-1]) + zeros_100.covered_height)

    def no_search(*args, **kwargs):
        raise AssertionError("zero file recomputed")

    monkeypatch.setattr(zeros, "find_zeros_up_to", no_search)
    zl = cli._load_zeros(str(path), need, DEFAULT)
    assert zl.verified and len(zl) == len(zeros_100)


def test_import_accepts_comments_and_reports_bad_lines():
    ok = import_zeros(io.StringIO("# covered_height = 30\n14.13\n21.02\n"))
    assert len(ok) == 2
    with pytest.raises(errors.ParseError) as exc:
        import_zeros(io.StringIO("14.13\nnot-a-number\n"))
    assert exc.value.line_number == 2
    with pytest.raises(errors.NotAscending):
        import_zeros(io.StringIO("21.02\n14.13\n"))


def test_zerolist_validation():
    with pytest.raises(errors.NotAscending):
        ZeroList(np.array([14.1, 14.1]), 30.0)
    with pytest.raises(ValueError):
        ZeroList(np.array([-3.0]), 30.0)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=99.0),
                min_size=1, max_size=12, unique=True))
def test_format_roundtrip_property(vals):
    vals = sorted(vals)
    if vals_too_close(vals):
        return
    zl = ZeroList(np.array(vals), 100.0)
    buf = io.StringIO()
    export_zeros(zl, buf)
    buf.seek(0)
    back = import_zeros(buf)
    # the format carries 12 decimal places
    np.testing.assert_allclose(back.ordinates, zl.ordinates,
                               rtol=0, atol=5e-13)


def vals_too_close(vals):
    return any(b - a < 1e-9 for a, b in zip(vals, vals[1:]))


def test_counting_formula_consistency(zeros_550):
    # N(t) from theta/pi + 1 + S agrees with the verified list off ordinates
    from bsylab.argument import S_of_t
    from bsylab.zeta import rs_theta
    for t in (50.3, 222.2, 433.1, 549.0):
        n = round(rs_theta(t) / math.pi + 1.0 + S_of_t(t, DEFAULT, zeros_550))
        assert n == int(np.count_nonzero(zeros_550.ordinates <= t))
