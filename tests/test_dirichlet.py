"""Dirichlet polynomial mean values and the vertical log-zeta integral."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bsylab import dirichlet, errors, phases, zeta
from bsylab.accum import comp_sum
from bsylab.config import DEFAULT
from bsylab.dirichlet import (
    Lemma3Request,
    eval_R,
    eval_R_batch,
    lemma3_compare,
    lemma3_lhs,
    lemma3_rhs,
    mean_square_exact,
    s1_resonance_statistic,
)
from bsylab.resonator import ResonatorParams, build_resonator
from bsylab.sieve import factorize


def test_eval_R_trivial(trivial_table):
    assert eval_R(trivial_table, 7.3) == 1.0 + 0.0j
    vals = eval_R_batch(trivial_table, np.array([0.0, 5.0]))
    np.testing.assert_array_equal(vals, [1.0, 1.0])


def test_eval_R_at_zero_sums_coefficients(toy_table):
    assert abs(eval_R(toy_table, 0.0)) == pytest.approx(
        comp_sum(toy_table.rs), rel=1e-14)


def test_eval_R_brute_force(toy_table):
    t = 123.456
    oracle = sum(float(r) * complex(n) ** complex(0, -t)
                 for n, r in zip(toy_table.ns.tolist(), toy_table.rs))
    assert abs(eval_R(toy_table, t) - oracle) < 1e-10


def test_eval_R_batch_grid_vs_python_loop(toy_table):
    # the loop reduces each phase in 30-digit arithmetic, so it is exact
    # to double precision
    ts = np.linspace(1000.0, 2000.0, 4001)
    vals = eval_R_batch(toy_table, ts)
    with mpmath.workdps(30):
        two_pi = 2 * mpmath.pi
        for k in range(0, ts.size, 97):
            t = mpmath.mpf(float(ts[k]))
            re, im = [], []
            for n, r in zip(toy_table.ns.tolist(), toy_table.rs.tolist()):
                ph = float(mpmath.fmod(t * mpmath.log(n), two_pi))
                re.append(r * math.cos(ph))
                im.append(-r * math.sin(ph))
            oracle = complex(math.fsum(re), math.fsum(im))
            assert abs(vals[k] - oracle) <= 1e-12 * comp_sum(
                np.abs(toy_table.rs))


def test_mean_square_trivial(trivial_table):
    assert mean_square_exact(trivial_table, 13.7) == pytest.approx(13.7)


def test_mean_square_vs_quadrature_oracle(toy_table):
    T = 1000.0
    ms = mean_square_exact(toy_table, T)
    oracle = quad(lambda x: abs(eval_R(toy_table, x)) ** 2, T, 2.0 * T,
                  limit=2000, epsabs=1e-9, epsrel=1e-12)[0]
    assert abs(ms - oracle) <= DEFAULT.quad_tol


@pytest.fixture(scope="module")
def table_270():
    params = ResonatorParams(mu=2, nu=0, N=3000, h=0.1, L=1.0, A=2.0,
                             B=60.0, override=True)
    table = build_resonator(params, "plus")
    assert table.ns.size == 270
    return table


@pytest.fixture(scope="module")
def pair_sums_270(table_270):
    """The pair loop in 30-digit arithmetic on the 270-entry table: for
    each T, the sum over a < b of 2 r_a r_b (sin(2T l) - sin(T l)) / l
    with l = log(n_b/n_a); and the amplitude sum of 2|r_a r_b|/l."""
    heights = (1.0, 10.0, 100.0, 1e5)
    with mpmath.workdps(30):
        Ts = [mpmath.mpf(T) for T in heights]
        logs = [mpmath.log(int(n)) for n in table_270.ns]
        rs = [mpmath.mpf(float(r)) for r in table_270.rs]
        off = [mpmath.mpf(0)] * len(Ts)
        amp_sum = mpmath.mpf(0)
        for a in range(len(rs)):
            for b in range(a + 1, len(rs)):
                ell = logs[b] - logs[a]
                amp = 2 * rs[a] * rs[b] / ell
                amp_sum += abs(amp)
                for k, T in enumerate(Ts):
                    c, s = mpmath.cos_sin(T * ell)   # sin 2x = 2 sin x cos x
                    off[k] += amp * s * (2 * c - 1)
        sum_r2 = mpmath.fsum(r * r for r in rs)
    return dict(zip(heights, off)), amp_sum, sum_r2


def test_mean_square_large_table_vs_pair_loop(table_270, pair_sums_270):
    # ~3.6e4 off-diagonal pairs summed at T = 1e5 without a compensated
    # sum; the oracle is the pair loop in 30-digit arithmetic
    T = 1e5
    off, _, sum_r2 = pair_sums_270
    with mpmath.workdps(30):
        oracle = float(mpmath.mpf(T) * sum_r2 + off[T])
    diag = T * comp_sum(table_270.rs ** 2)
    assert abs(mean_square_exact(table_270, T) - oracle) <= 1e-14 * diag


def test_mean_square_off_diagonal_small_T(table_270, pair_sums_270):
    # at T >= 1e3 the diagonal T * sum r^2 is so large that rounding the
    # total hides errors in the pair sum; at small T they show.  The
    # bound is the phase floor of the pair sum plus the rounding of the
    # diagonal and of the total.
    off, amp_sum, _ = pair_sums_270
    sum_r2 = np.sum(table_270.rs.astype(np.longdouble) ** 2)
    lmax = float(np.log(table_270.ns[-1]))
    for T in (1.0, 10.0, 100.0):
        ms = mean_square_exact(table_270, T)
        got = np.longdouble(ms) - np.longdouble(T) * sum_r2
        bound = (phases.phase_roundoff(2.0 * T, lmax, float(amp_sum))
                 + 2.0 * np.spacing(T * float(sum_r2)) + np.spacing(ms))
        assert abs(float(got - np.longdouble(float(off[T])))) <= bound


def test_mean_square_in_row_blocks(monkeypatch):
    table = build_resonator(ResonatorParams(mu=2, nu=0, N=3000, h=0.1,
                                            L=1.0, A=2.0, B=60.0,
                                            override=True), "plus")
    T = 1e5
    whole = mean_square_exact(table, T)
    # 270 rows, at most 5000 elements of W per block: 9 blocks, the first
    # of 18 rows, the later ones longer as the band j > i narrows
    monkeypatch.setattr(dirichlet, "_PAIR_BLOCK", 5000)
    blocked = mean_square_exact(table, T)
    assert abs(blocked - whole) <= 1e-14 * T * comp_sum(table.rs ** 2)


@pytest.mark.parametrize("T", [1e2, 1e3])
def test_mean_square_keeps_the_low_word_of_the_logs(T):
    # l = log(1 + 1e-6) is ~1e-6 while log n is ~14, so l from the high
    # float64 words of the logs alone is off by ~1e-9 relative, and the
    # pair term 2/l ~ 2e6 by more than the phase floor
    ns = [1, 10 ** 6, 10 ** 6 + 1]
    ms = mean_square_exact((ns, np.ones(3)), T)
    with mpmath.workdps(40):
        logs = [mpmath.log(n) for n in ns]
        off, amp_sum = mpmath.mpf(0), mpmath.mpf(0)
        for a in range(3):
            for b in range(a + 1, 3):
                ell = logs[b] - logs[a]
                off += 2 * (mpmath.sin(2 * T * ell)
                            - mpmath.sin(T * ell)) / ell
                amp_sum += 2 / ell
    got = np.longdouble(ms) - np.longdouble(3.0 * T)
    bound = (phases.phase_roundoff(2.0 * T, math.log(10 ** 6 + 1),
                                  float(amp_sum))
             + 2.0 * np.spacing(3.0 * T) + np.spacing(ms))
    assert abs(float(got - np.longdouble(float(off)))) <= bound


def test_mean_square_refuses_tied_logs():
    # log(1e18 + 1) - log(1e18) = 1e-18 is under a longdouble ulp of 41.4:
    # the logs tie, and dropping the pair term would return 20.0 at T = 10
    # against the true 40.0
    ns = np.array([10 ** 18, 10 ** 18 + 1])
    with pytest.raises(errors.TableTooLarge, match=str(10 ** 18)):
        mean_square_exact((ns, np.ones(2)), 10.0)


def test_mean_square_memory_does_not_grow_with_the_pairs():
    # the benchmark's mid table: ~5.5e5 pairs; W as one n x n block would
    # be 8.8 MB alone
    table = build_resonator(ResonatorParams(mu=2, nu=0, N=20200, h=0.12,
                                            L=1, A=2, B=80, override=True),
                            "plus")
    assert table.ns.size == 1047
    mean_square_exact(table, 1e4)              # factor plan cached
    tracemalloc.start()
    try:
        mean_square_exact(table, 1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("ns", [[0, 2], [-5, 1, 2]])
def test_table_entries_below_1_are_rejected(ns):
    table = (ns, np.ones(len(ns)))
    with pytest.raises(ValueError, match=">= 1"):
        eval_R_batch(table, [10.0])
    with pytest.raises(ValueError, match=">= 1"):
        mean_square_exact(table, 10.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_table_coefficients_not_finite_are_rejected(r):
    table = ([1, 2], [1.0, r])
    with pytest.raises(ValueError, match="finite"):
        eval_R_batch(table, [10.0])
    with pytest.raises(ValueError, match="finite"):
        mean_square_exact(table, 10.0)


@pytest.mark.parametrize("ts", [[math.nan], [1.0, math.inf], [-math.inf],
                                [[1.0, 2.0]], 3.0])
def test_eval_R_batch_rejects_bad_heights(toy_table, ts):
    # at the parent: nan for a non-finite height, IndexError otherwise
    with pytest.raises(ValueError, match="1-d array of finite t"):
        eval_R_batch(toy_table, ts)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0])
def test_mean_square_rejects_bad_heights(trivial_table, T):
    with pytest.raises(ValueError):
        mean_square_exact(trivial_table, T)


def test_mean_square_approaches_diagonal(toy_table):
    base = comp_sum(toy_table.rs ** 2)
    ratios = [mean_square_exact(toy_table, T) / (T * base)
              for T in (1e3, 1e4, 1e5)]
    assert 0.9 <= ratios[0] <= 1.1
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
    assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0)


def _von_mangoldt(n):
    """log p when n >= 2 is a power of the prime p, else 0."""
    f = factorize(n)
    return math.log(f[0][0]) if len(f) == 1 else 0.0


def _rhs_brute(req):
    if isinstance(req.table, tuple):
        ns, rs = req.table
    else:
        ns, rs = req.table.ns, req.table.rs
    lut = dict(zip(np.asarray(ns).tolist(), np.asarray(rs).tolist()))
    N = max(lut)
    total = 0j
    for m in lut:
        for n in range(2, N // m + 1):
            lam = _von_mangoldt(n)
            if lam and m * n in lut:
                total += (lam * lut[m] * lut[m * n]
                          / (n ** complex(req.alpha, req.h) * math.log(n)))
    return req.T * total


def test_lemma3_rhs_pair_loop_oracle(toy_table):
    req = Lemma3Request(alpha=0.6, h=0.1, T=500.0, table=toy_table)
    rhs = lemma3_rhs(req)
    oracle = _rhs_brute(req)
    assert abs(rhs - oracle) <= 1e-12 * abs(oracle)


def test_lemma3_rhs_prime_powers_oracle():
    # a dense table, so that c(p^k) with k >= 2 contributes too
    ns = np.arange(1, 301)
    rs = np.cos(ns) / np.sqrt(ns)
    req = Lemma3Request(alpha=0.7, h=0.2, T=50.0, table=(ns, rs))
    oracle = _rhs_brute(req)
    assert abs(lemma3_rhs(req) - oracle) <= 1e-12 * abs(oracle)


def test_lemma3_lhs_series_oracle_alpha2(trivial_table):
    # at abscissa 2 the prime-power series converges absolutely and can
    # be integrated termwise as an independent oracle
    T, h = 100.0, 0.0
    req = Lemma3Request(alpha=2.0, h=h, T=T, table=trivial_table)
    lhs = lemma3_lhs(req, DEFAULT)
    total = 0j
    for n in range(2, 120_000):
        f = factorize(n)
        if len(f) != 1:
            continue
        ln = math.log(n)
        total += (math.log(f[0][0]) / (n * n * ln)
                  * (np.exp(-2j * T * ln) - np.exp(-1j * T * ln))
                  / (-1j * ln))
    assert abs(lhs - total) <= 1e-6


def test_lemma3_lhs_unconverged_raises(trivial_table, monkeypatch):
    from bsylab import dirichlet
    vertical = dirichlet._log_zeta_vertical
    sizes = []

    def noisy(alpha, ts, cfg):
        sizes.append(ts.size)
        lz, err = vertical(alpha, ts, cfg)
        return lz + 0.5 * (np.arange(ts.size) % 2), err  # odd nodes only

    monkeypatch.setattr(dirichlet, "_log_zeta_vertical", noisy)
    req = Lemma3Request(alpha=2.0, h=0.0, T=20.0, table=trivial_table)
    with pytest.raises(errors.ToleranceNotMet,
                       match="estimate .* exceeds the tolerance"):
        lemma3_lhs(req, DEFAULT)
    # spacings 0.05, 0.0125, 0.003125 and 0.00078125 over [20, 40]
    assert sizes == [401, 1601, 6401, 25601]


@pytest.mark.parametrize("T, h", [(math.nan, 0.1), (math.inf, 0.1),
                                  (100.0, math.nan), (100.0, math.inf)])
def test_lemma3_request_rejects_non_finite(toy_table, T, h):
    with pytest.raises(ValueError):
        Lemma3Request(alpha=0.6, h=h, T=T, table=toy_table)


def test_lemma3_alpha_guard(toy_table):
    with pytest.raises(ValueError):
        Lemma3Request(alpha=3.0, h=0.0, T=100.0, table=toy_table)
    req = Lemma3Request(alpha=0.52, h=0.0, T=100.0, table=toy_table)
    with pytest.raises(ValueError):
        lemma3_lhs(req, DEFAULT)


def test_lemma3_compare_bounded(toy_table):
    gaps = [lemma3_compare(Lemma3Request(alpha=0.6, h=0.1, T=T,
                                         table=toy_table), DEFAULT)
            for T in (100.0, 300.0)]
    assert all(0 <= g < 0.1 for g in gaps)


def test_s1_statistic_zero_at_h0(toy_table):
    assert s1_resonance_statistic(toy_table, 0.0) == (0.0, 0.0)


def test_s1_statistic_brute_force(toy_table):
    h = 0.1
    lut = dict(zip(toy_table.ns.tolist(), toy_table.rs.tolist()))
    N = toy_table.params.N
    den = comp_sum(toy_table.rs ** 2)
    sq = lin = 0.0
    for m in lut:
        for n in range(2, N // m + 1):
            lam = _von_mangoldt(n)
            if lam and m * n in lut:
                ln = math.log(n)
                base = lam * lut[m] * lut[m * n] / (math.sqrt(n) * ln * ln)
                sq += base * math.sin(0.5 * h * ln) ** 2
                lin += base * math.sin(h * ln)
    sin_sq, sin_lin = s1_resonance_statistic(toy_table, h)
    assert sin_sq == pytest.approx(2.0 / math.pi * sq / den, rel=1e-12)
    assert sin_lin == pytest.approx(2.0 * lin / den, rel=1e-12)
    assert sin_sq >= 0.0


def test_sieve_refuses_huge_entries():
    # read_table accepts this table; the c(p^k) kernel would sieve to 1e18
    table = (np.array([1, 10 ** 18 + 9]), np.array([1.0, 0.5]))
    with pytest.raises(errors.TableTooLarge):
        s1_resonance_statistic(table, 0.1)
    with pytest.raises(errors.TableTooLarge):
        lemma3_rhs(Lemma3Request(alpha=0.6, h=0.1, T=10.0, table=table))


def test_lemma3_compare_refuses_huge_table_before_the_integral(monkeypatch):
    table = (np.array([1, 10 ** 18 + 9]), np.array([1.0, 0.5]))

    def never(*args, **kwargs):
        raise AssertionError("lemma3_lhs called")

    monkeypatch.setattr(dirichlet, "lemma3_lhs", never)
    with pytest.raises(errors.TableTooLarge):
        lemma3_compare(Lemma3Request(alpha=0.6, h=0.1, T=300.0, table=table))
