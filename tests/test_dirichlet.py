"""Dirichlet polynomial mean values and the vertical log-zeta integral."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bsylab import errors, zeta
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
from bsylab.sieve import factorize, von_mangoldt


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


def test_mean_square_large_table_vs_pair_loop():
    # ~3.6e4 off-diagonal pairs summed at T = 1e5 without a compensated
    # sum; the oracle is the pair loop in 30-digit arithmetic
    params = ResonatorParams(mu=2, nu=0, N=3000, h=0.1, L=1.0, A=2.0,
                             B=60.0, override=True)
    table = build_resonator(params, "plus")
    assert table.ns.size == 270
    T = 1e5
    with mpmath.workdps(30):
        T_mp = mpmath.mpf(T)
        logs = [mpmath.log(int(n)) for n in table.ns]
        rs = [mpmath.mpf(float(r)) for r in table.rs]
        oracle = T_mp * mpmath.fsum(r * r for r in rs)
        for a in range(len(rs)):
            for b in range(a + 1, len(rs)):
                ell = logs[b] - logs[a]
                oracle += 2 * rs[a] * rs[b] * (
                    mpmath.sin(2 * T_mp * ell) - mpmath.sin(T_mp * ell)) / ell
    diag = T * comp_sum(table.rs ** 2)
    assert abs(mean_square_exact(table, T) - float(oracle)) <= 1e-14 * diag


def test_mean_square_in_row_blocks(monkeypatch):
    table = build_resonator(ResonatorParams(mu=2, nu=0, N=3000, h=0.1,
                                            L=1.0, A=2.0, B=60.0,
                                            override=True), "plus")
    T = 1e5
    whole = mean_square_exact(table, T)
    # 36,315 pairs in blocks of at most 5000: 8 blocks, rows kept whole
    monkeypatch.setattr(zeta, "_EM_CHUNK", 5000)
    blocked = mean_square_exact(table, T)
    assert abs(blocked - whole) <= 1e-14 * T * comp_sum(table.rs ** 2)


def test_mean_square_approaches_diagonal(toy_table):
    base = comp_sum(toy_table.rs ** 2)
    ratios = [mean_square_exact(toy_table, T) / (T * base)
              for T in (1e3, 1e4, 1e5)]
    assert 0.9 <= ratios[0] <= 1.1
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
    assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0)


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
            lam = von_mangoldt(n)
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


def test_lemma3_alpha_guard(toy_table):
    with pytest.raises(ValueError):
        Lemma3Request(alpha=3.0, h=0.0, T=100.0, table=toy_table)
    req = Lemma3Request(alpha=0.52, h=0.0, T=100.0, table=toy_table,
                        eps_margin=0.05)
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
            lam = von_mangoldt(n)
            if lam and m * n in lut:
                ln = math.log(n)
                base = lam * lut[m] * lut[m * n] / (math.sqrt(n) * ln * ln)
                sq += base * math.sin(0.5 * h * ln) ** 2
                lin += base * math.sin(h * ln)
    sin_sq, sin_lin = s1_resonance_statistic(toy_table, h)
    assert sin_sq == pytest.approx(2.0 / math.pi * sq / den, rel=1e-12)
    assert sin_lin == pytest.approx(2.0 * lin / den, rel=1e-12)
    assert sin_sq >= 0.0
