"""Zero finding, counting, verification and the text cache format."""

import dataclasses
import functools
import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsylab import errors, phases, zeros, zeta
from bsylab.config import DEFAULT
from bsylab.zeros import (
    ORDINATE_ACCURACY,
    ZeroList,
    _certified_scan,
    _SCAN_DENSITY,
    _solve_brackets,
    count_zeros,
    export_zeros,
    find_zeros_up_to,
    import_zeros,
    verify_zero_list,
)
from bsylab.zeta import gram_points, hardy_z, hardy_z_batch

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
    """Bracketed Newton roots of the sign changes of Z on a grid."""
    grid = np.arange(lo, hi, step)
    vals = hardy_z_batch(grid, 1e-6, DEFAULT)[0]
    idx = np.nonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0]
    return _solve_brackets(grid[idx], grid[idx + 1], vals[idx],
                           vals[idx + 1], DEFAULT)


def test_bracketed_newton_matches_mpmath():
    # brackets at the default scan step near t = 100 (zeros 28..31): the
    # mean gap 2 pi / log(t / 2 pi) at t = 105, over _SCAN_DENSITY ...
    roots = _refined_roots(95.0, 105.0, 2.231178794831924 / _SCAN_DENSITY)
    assert roots.size == 4
    for k, r in zip(range(28, 32), roots):
        assert abs(r - _zetazero(k)) <= ORDINATE_ACCURACY
    # ... and a grid fine enough to split the Lehmer pair
    roots = _refined_roots(7004.9, 7005.3, 0.005)
    assert roots.size == 2
    for k, r in zip(LEHMER_PAIR, roots):
        assert abs(r - _zetazero(k)) <= ORDINATE_ACCURACY


def test_bracketed_newton_stays_in_its_bracket():
    # from the secant point of [13, 20.6], near the maximum of Z at
    # 17.88, the Newton step lands below 13; the solver must bisect
    lo, hi = np.array([13.0]), np.array([20.6])
    flo, fhi = np.split(hardy_z_batch(np.concatenate([lo, hi]), 1e-6,
                                      DEFAULT)[0], 2)
    x = hi - fhi * (hi - lo) / (fhi - flo)
    h = 1e-5
    z0, zp, zm = hardy_z_batch(np.concatenate([x, x + h, x - h]),
                               DEFAULT.target_abs_error, DEFAULT)[0]
    assert x[0] - z0 * (2 * h) / (zp - zm) < lo[0]
    root = _solve_brackets(lo, hi, flo, fhi, DEFAULT)
    assert lo[0] < root[0] < hi[0]
    assert abs(root[0] - _zetazero(1)) <= ORDINATE_ACCURACY


def test_unconverged_bracket_raises(monkeypatch):
    monkeypatch.setattr(zeros, "_REFINE_MAX_ROUNDS", 1)
    with pytest.raises(errors.Inconsistent, match="did not converge"):
        find_zeros_up_to(100.0, DEFAULT)


def test_find_solves_brackets_in_few_z_batches(monkeypatch):
    # outside the scan, the solve builds one expansion per octave group of
    # bracket centres and evaluates each Newton round on it, with no
    # hardy_z_batch call
    calls = {"batch": 0, "moments": 0, "rounds": 0}
    batch, moments = zeta.hardy_z_batch, phases._cluster_moments
    near, scan = zeta.NearZ.__call__, zeros._certified_scan

    def counted(key, f):
        def call(*args):
            calls[key] += 1
            return f(*args)
        return call

    def outside_scan(*args):
        before = dict(calls)
        out = scan(*args)
        calls.update(before)                    # the scan's calls uncounted
        return out

    monkeypatch.setattr(zeta, "hardy_z_batch", counted("batch", batch))
    monkeypatch.setattr(phases, "_cluster_moments",
                        counted("moments", moments))
    monkeypatch.setattr(zeta.NearZ, "__call__", counted("rounds", near))
    monkeypatch.setattr(zeros, "_certified_scan", outside_scan)
    find_zeros_up_to(1003.7, DEFAULT)
    # centres in [0, 64), [64, 128), [128, 256), [256, 512), [512, 1024)
    assert calls["moments"] == 5
    assert 2 <= calls["rounds"] <= 6
    assert calls["batch"] == 0


def test_loose_target_terminates_and_verifies():
    # |Z| within its bound stops a root before noise drives it to the cap
    cfg = dataclasses.replace(DEFAULT, target_abs_error=1e-9, quad_tol=1e-9)
    zl = find_zeros_up_to(1003.7, cfg)
    assert len(zl) == 652
    verify_zero_list(zl, DEFAULT)
    for k in (1, 100, 400, 652):
        assert abs(float(zl.ordinates[k - 1]) - _zetazero(k)) \
            <= ORDINATE_ACCURACY


@pytest.mark.parametrize("n", [-1, 0, 1, 100, 1000, 6700, 13000])
def test_gram_points_match_mpmath(n):
    # theta(g) in float64 rounds g to about one ulp at 1.3e4 (1.8e-12)
    assert abs(float(gram_points(n)) - float(mpmath.grampoint(n))) <= 2e-12


# 98.82/98.84 and 111.02/111.04 lie 0.01 either side of gamma_29 and
# gamma_35, in the zero's scan step, where Z(t) places the zero
@pytest.mark.parametrize("t", [100.0, 550.5, 1004.3, 98.82, 98.84, 111.02,
                               111.04])
def test_count_zeros_matches_mpmath(t):
    assert count_zeros(t, DEFAULT) == mpmath.nzeros(t)


#: Good Gram points about the Lehmer pair: the block [g_6707, g_6709)
#: holds both zeros in its first interval and none in its second.
LEHMER_BLOCK = (6707, 6709)


def test_coarse_scan_through_lehmer_pair(monkeypatch):
    a = LEHMER_BLOCK[0]
    below = int(mpmath.nzeros(float(gram_points(a))))
    monkeypatch.setattr(zeros, "_SCAN_DENSITY", 1)
    # one step per Gram interval misses the pair; with no re-scan the
    # block's shortfall is fatal ...
    monkeypatch.setattr(zeros, "_ESCALATION_ROUNDS", 0)
    with pytest.raises(errors.Inconsistent,
                       match=f"g_{a}, g_{LEHMER_BLOCK[1]}"):
        _certified_scan(7005.2, DEFAULT, a, below)
    # ... and the density escalation separates it
    monkeypatch.undo()
    monkeypatch.setattr(zeros, "_SCAN_DENSITY", 1)
    lo, hi, _, _ = _certified_scan(7005.2, DEFAULT, a, below)
    for gamma in map(_zetazero, LEHMER_PAIR):
        assert np.count_nonzero((lo < gamma) & (gamma < hi)) == 1
    assert np.count_nonzero((lo > 7004.9) & (hi < 7005.3)) == 2


def test_default_scan_separates_lehmer_pair():
    # at the default density a step (0.11) is wider than the pair's gap
    # (0.038); the short block's re-scan must split it
    a = LEHMER_BLOCK[0]
    below = int(mpmath.nzeros(float(gram_points(a))))
    lo, hi, _, _ = _certified_scan(7005.2, DEFAULT, a, below)
    for gamma in map(_zetazero, LEHMER_PAIR):
        assert np.count_nonzero((lo < gamma) & (gamma < hi)) == 1
    assert np.count_nonzero((lo > 7004.9) & (hi < 7005.3)) == 2


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


# g_27 = 97.71 and g_28 = 99.99 are good, gamma_29 = 98.83: at H = 100
# the count below g_28 misses gamma_29, at 99.9 its bracket holds no
# listed ordinate, and at gamma_29 + 0.001 its bracket straddles H
@pytest.mark.parametrize("H", [100.0, 99.9, 98.832])
def test_verify_rejects_deleted_last_ordinate(zeros_100, H):
    broken = ZeroList(zeros_100.ordinates[:-1], H)
    with pytest.raises(errors.Inconsistent):
        verify_zero_list(broken, DEFAULT)


def test_verify_rejects_near_duplicate(zeros_100):
    g = np.insert(zeros_100.ordinates, 10, zeros_100.ordinates[9] + 1e-10)
    with pytest.raises(errors.Inconsistent):
        verify_zero_list(ZeroList(g, zeros_100.covered_height), DEFAULT)


# gamma_5 deleted, a twin of gamma_11 inserted: the total still equals
# Turing's n + 1, and the twin passes the residual check
@pytest.mark.parametrize("offset", [1e-10, 9e-8])
def test_verify_rejects_deleted_ordinate_offset_by_a_twin(zeros_100, offset):
    g = np.delete(zeros_100.ordinates, 4)
    g = np.insert(g, 10, zeros_100.ordinates[10] + offset)
    with pytest.raises(errors.Inconsistent) as exc:
        verify_zero_list(ZeroList(g, zeros_100.covered_height), DEFAULT)
    assert exc.value.index == 10


def test_verify_needs_a_sign_change_at_each_ordinate(zeros_100, monkeypatch):
    # |Z| keeps every residual small but changes sign nowhere, on the
    # expansion about each ordinate and on the batch alike
    def abs_of(z_of):
        def abs_z(*args, **kwargs):
            z, e = z_of(*args, **kwargs)
            return np.abs(z), e
        return abs_z

    monkeypatch.setattr(zeta, "hardy_z_batch", abs_of(zeta.hardy_z_batch))
    monkeypatch.setattr(zeta.NearZ, "__call__", abs_of(zeta.NearZ.__call__))
    with pytest.raises(errors.Inconsistent) as exc:
        verify_zero_list(zeros_100, DEFAULT)
    assert exc.value.index == 0


# the expansion about each ordinate covers 2h = 2e-5 on either side
@pytest.mark.parametrize("low", ["1e-300", "1.5e-5"])
def test_verify_refuses_an_ordinate_whose_disk_reaches_below_zero(low):
    zl = import_zeros(io.StringIO(f"{low}\n14.134725141734693\n"))
    with pytest.raises(errors.Inconsistent) as exc:
        verify_zero_list(zl, DEFAULT)
    assert exc.value.index == 0


@pytest.fixture(scope="module")
def zeros_1300():
    return find_zeros_up_to(1300.0, DEFAULT)


def test_verify_triplets_lie_within_their_bounds_of_siegelz(zeros_1300,
                                                           monkeypatch):
    seen = []
    triplets = zeros._z_triplets

    def spy(near, x, at, h, cfg):
        out = triplets(near, x, at, h, cfg)
        seen.append((x, h, out))
        return out

    monkeypatch.setattr(zeros, "_z_triplets", spy)
    verify_zero_list(zeros_1300, DEFAULT)
    (g, h, ((z0, zp, zm), (e0, ep, em))), = seen
    assert g is zeros_1300.ordinates
    # 32 ordinates from gamma_1 to the last, in every octave group
    pick = np.linspace(0, g.size - 1, 32).astype(int)
    with mpmath.workdps(20):
        for k in pick.tolist():
            for t, z, e in ((g[k], z0[k], e0[k]), (g[k] + h, zp[k], ep[k]),
                            (g[k] - h, zm[k], em[k])):
                assert abs(z - float(mpmath.siegelz(t))) <= e


def test_verify_takes_every_triplet_from_one_expansion(monkeypatch):
    zl = find_zeros_up_to(1003.7, DEFAULT)
    builds, batched = [], []
    near, batch = zeta.hardy_z_near, zeta.hardy_z_batch

    def near_spy(centres, radius, tol, cfg):
        builds.append((centres, radius))
        return near(centres, radius, tol, cfg)

    def batch_spy(ts, *args):
        batched.append(ts)
        return batch(ts, *args)

    monkeypatch.setattr(zeta, "hardy_z_near", near_spy)
    monkeypatch.setattr(zeta, "hardy_z_batch", batch_spy)
    out = verify_zero_list(zl, DEFAULT)
    assert out.verified and len(out) == 652
    assert np.array_equal(out.ordinates.view(np.uint64),
                          zl.ordinates.view(np.uint64))
    (centres, radius), = builds
    assert centres is zl.ordinates and radius == 2e-5
    # hardy_z_batch serves the count alone, no point of a triplet
    g, h = zl.ordinates, 1e-5
    stencil = np.concatenate([g, g + h, g - h])
    assert batched and not any(np.isin(ts, stencil).any() for ts in batched)


def test_triplets_outside_their_disks_go_to_the_batch(zeros_100):
    # disks of h/2: each ordinate lies in its own, x +- h in none
    g, h, tol = zeros_100.ordinates, 1e-5, DEFAULT.target_abs_error
    near = zeta.hardy_z_near(g, h / 2, tol, DEFAULT)
    at = np.arange(g.size)
    assert near.serves(g, at).all()
    assert not near.serves(g + h, at).any()
    assert not near.serves(g - h, at).any()
    z, e = zeros._z_triplets(near, g, at, h, DEFAULT)
    on_near = near(g, at)
    on_batch = hardy_z_batch(np.concatenate([g + h, g - h]), tol, DEFAULT)
    for got, want in ((z[0], on_near[0]), (e[0], on_near[1]),
                      (np.concatenate(z[1:]), on_batch[0]),
                      (np.concatenate(e[1:]), on_batch[1])):
        assert np.array_equal(got, want)


def test_export_import_roundtrip(zeros_100, tmp_path):
    path = tmp_path / "cache.txt"
    export_zeros(zeros_100, str(path))
    back = import_zeros(str(path))
    assert back.source == "imported"
    np.testing.assert_array_equal(back.ordinates, zeros_100.ordinates)
    # the "# zero ordinates up to H" header carries the covered height
    assert back.covered_height == zeros_100.covered_height
    assert back.covered_height > float(back.ordinates[-1])
    # a pathlib.Path serves as well as a str, both ways
    export_zeros(zeros_100, path)
    np.testing.assert_array_equal(import_zeros(path).ordinates,
                                  back.ordinates)


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


def test_nan_and_infinite_heights_are_refused(zeros_100):
    with pytest.raises(errors.ZeroListInsufficient):
        zeros_100.require_height(math.nan)
    for T in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite T >= 15"):
            find_zeros_up_to(T, DEFAULT)


def test_zerolist_validation():
    with pytest.raises(errors.NotAscending):
        ZeroList(np.array([14.1, 14.1]), 30.0)
    with pytest.raises(ValueError):
        ZeroList(np.array([-3.0]), 30.0)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=99.0),
                min_size=1, max_size=12, unique=True))
# 12 decimals and the read back moved this one by 5.009e-13
@example([16.7506819514265])
def test_format_roundtrip_property(vals):
    vals = sorted(vals)
    if vals_too_close(vals):
        return
    zl = ZeroList(np.array(vals), 100.0)
    buf = io.StringIO()
    export_zeros(zl, buf)
    buf.seek(0)
    back = import_zeros(buf)
    # the format carries each float's shortest round-trip decimal
    np.testing.assert_array_equal(back.ordinates, zl.ordinates)


def test_twelve_decimal_file_still_imports():
    # the format as written with 12 decimal places reads as before
    text = ("# zero ordinates up to 25.5\n"
            "# source=found verified=True\n"
            "14.134725141735\n21.022039638772\n25.010857580146\n")
    back = import_zeros(io.StringIO(text))
    np.testing.assert_array_equal(
        back.ordinates, [14.134725141735, 21.022039638772, 25.010857580146])
    assert back.covered_height == 25.5


def vals_too_close(vals):
    return any(b - a < 1e-9 for a, b in zip(vals, vals[1:]))


def test_counting_formula_consistency(zeros_550):
    # N(t) from theta/pi + 1 + S agrees with the verified list off ordinates
    from bsylab.argument import S_of_t
    from bsylab.zeta import rs_theta
    for t in (50.3, 222.2, 433.1, 549.0):
        n = round(rs_theta(t) / math.pi + 1.0 + S_of_t(t, DEFAULT, zeros_550))
        assert n == int(np.count_nonzero(zeros_550.ordinates <= t))
