"""The ten acceptance experiments, one function each.

``tests/test_acceptance.py`` gates on them and ``bsy report <suite>``
runs them, so both answer the same question with the same sizes,
oracles and thresholds.  Each experiment returns ``(measured,
threshold, detail)``: ``measured`` is the number of failed checks,
``threshold`` is 0 (the experiment passes when ``measured <=
threshold``) and ``detail`` is the line of measured figures.

Inputs the tests take from fixtures (zero lists, resonator tables) are
arguments.  scipy.integrate, which only the test extra installs, is
imported only inside the experiment that uses it (criterion 10), so
importing bsylab does not load it.
"""

import dataclasses
import math

import numpy as np

from . import argument, dirichlet, errors, integral, resonator, zeros, zeta
from .accum import comp_sum
from .config import PrecisionConfig
from .sieve import factorize, primes_up_to

#: The doubling ladder of criteria 3 and 4: 10 .. 5120.
LADDER = np.array([10.0 * 2 ** k for k in range(10)])

#: The toy resonator of criteria 9 and 10 (25 entries, plus variant).
TOY_PARAMS = resonator.ResonatorParams(mu=2, nu=0, N=100, h=0.1, L=1.0,
                                       A=2.0, B=30.0, override=True)

#: The one-entry table r(1) = 1 of the criterion-10 series oracle.
TRIVIAL_TABLE = (np.array([1]), np.array([1.0]))


def _verdict(checks, detail):
    """(failed-check count, 0, detail) for a list of check outcomes."""
    return float(sum(not ok for ok in checks)), 0.0, detail


def zeta_engine(cfg: PrecisionConfig):
    """1: zeta(2) by EM, and RS against EM within their bounds."""
    em2 = abs(complex(zeta.zeta_em(2.0, cfg)) - math.pi ** 2 / 6)

    ts = np.linspace(10.0, 1e4, 1000)
    # force the Riemann-Siegel path wherever it is valid (t >= 30);
    # below that the hybrid falls back to the same series on both sides
    rs_cfg = dataclasses.replace(cfg, rs_correction_terms=4)
    rs_vals, rs_bounds = zeta.hardy_z_batch(ts, 1e-2, rs_cfg)
    worst = 0.0
    for t, rv, rb in zip(ts.tolist(), np.abs(rs_vals), rs_bounds):
        em = zeta.zeta_em(complex(0.5, t), cfg)
        gap = abs(abs(complex(em)) - rv)
        worst = max(worst, gap / (em.abs_error + rb))
    return _verdict([em2 <= 1e-10, worst <= 1.0],
                    f"|zeta(2) err|={em2:.3e} (<=1e-10), "
                    f"max gap/bound={worst:.3f} (<=1) on 1000 pts")


def zero_census(cfg: PrecisionConfig):
    """2: the zeros to 100 against a sign count and a gamma1 bisection."""
    zl = zeros.verify_zero_list(zeros.find_zeros_up_to(100.0, cfg), cfg)
    grid = np.linspace(0.5, 100.0, 40001)
    zs = zeta.hardy_z_batch(grid, 1e-6, cfg)[0]
    independent = int(np.count_nonzero(np.sign(zs[:-1]) != np.sign(zs[1:])))

    lo, hi = 14.0, 14.2
    flo = float(zeta.hardy_z(lo, cfg))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (float(zeta.hardy_z(mid, cfg)) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    gamma1_gap = abs(float(zl.ordinates[0]) - 0.5 * (lo + hi))

    return _verdict([zl.verified, len(zl) == independent == 29,
                     gamma1_gap <= 1e-8],
                    f"count={len(zl)} oracle={independent} (both 29), "
                    f"gamma1 gap={gamma1_gap:.2e} (<=1e-8)")


def ladder_I(zl: zeros.ZeroList, cfg: PrecisionConfig) -> np.ndarray:
    """I(T) on LADDER; criteria 3 and 4 share this one computation."""
    res = integral.compute_I_many(LADDER, zl, cfg)
    return np.array([r.value for r in res])


def theorem2_bounded(zl: zeros.ZeroList, ladder_values,
                     cfg: PrecisionConfig):
    """3: sup |I(T)| T^2/log T on LADDER is stable under refinement."""
    def sup_norm(vals):
        return max(abs(v) * T * T / math.log(T)
                   for T, v in zip(LADDER.tolist(), vals))

    sup0 = sup_norm(ladder_values)
    fine = integral.compute_I_many(LADDER, zl, cfg.refined(10.0))
    sup1 = sup_norm([r.value for r in fine])
    change = abs(sup1 - sup0) / abs(sup0)
    return _verdict([math.isfinite(sup0), change < 0.01],
                    f"sup |I| T^2/log T = {sup0:.6f}, refinement change "
                    f"{change:.2e} (<1%)")


def decay_exponent(ladder_values):
    """4: I(T) on LADDER decays like T^-2, closer to log T / T^2."""
    samples = np.column_stack([LADDER, ladder_values])
    pure = integral.fit_decay(samples, "pure_power")
    logt = integral.fit_decay(samples, "logT_over_T2")
    alpha = float(pure.fitted_params[1])

    # "sign-change windows flagged, not counted": residual RMS for the
    # model comparison is scored off the flagged windows, where log|I|
    # dips into a zero crossing and carries no decay information
    sign = np.sign(ladder_values)
    keep = np.ones(len(ladder_values), bool)
    for i in range(len(ladder_values) - 1):
        if sign[i] != sign[i + 1]:
            keep[i] = keep[i + 1] = False
    y = np.log(np.abs(ladder_values))
    lt = np.log(LADDER)
    r_pure = y - (pure.fitted_params[0] - alpha * lt)
    r_logt = y - (math.log(logt.fitted_params[0])
                  + np.log(lt) - 2.0 * lt)
    rms_pure = float(np.sqrt(np.mean(r_pure[keep] ** 2)))
    rms_logt = float(np.sqrt(np.mean(r_logt[keep] ** 2)))

    return _verdict([1.8 <= alpha <= 2.2, rms_logt <= rms_pure,
                     len(pure.flags) > 0],
                    f"alpha={alpha:.4f} in [1.8,2.2]; RMS logT/T^2="
                    f"{rms_logt:.4f} <= pure={rms_pure:.4f} off "
                    f"{int(np.sum(~keep))} flagged pts; "
                    f"{len(pure.flags)} windows flagged")


def weight_identity(cfg: PrecisionConfig):
    """5: the weight identity at x = 1e4 within 4 (1 + log x) / x."""
    x = 1e4
    val = abs(integral.weight_identity_check(x, cfg))
    bound = 4.0 * (1.0 + math.log(x)) / x
    return _verdict([val <= bound],
                    f"|check({x:g})|={val:.3e} <= {bound:.3e}")


def zero_sum(zl: zeros.ZeroList, cfg: PrecisionConfig):
    """6: a hypothetical off-line zero shifts I(100) by its term."""
    tiny = integral.zero_sum_term(zeros.ZeroCandidate(0.5 + 1e-9, 50.0))
    cand = zeros.ZeroCandidate(0.75, 40.0)
    base = integral.theorem2_residual(100.0, [], zl, cfg)[0]
    shifted = integral.theorem2_residual(100.0, [cand], zl, cfg)[0]
    expect = 2.0 * math.pi * integral.zero_sum_term(cand)
    rel = abs((base - shifted) - expect) / abs(expect)
    return _verdict([tiny <= 1e-8, rel <= 1e-12],
                    f"term(beta=1/2+1e-9)={tiny:.2e} (<=1e-8), "
                    f"shift rel err={rel:.2e} (<=1e-12)")


def _sigma_tail(t: float) -> float:
    total = 0.0
    for p in primes_up_to(3000).tolist():
        pk, k = p, 1
        while pk <= 10 ** 6:
            total += math.cos(t * k * math.log(p)) \
                / (pk * pk * k * k * math.log(p))
            pk *= p
            k += 1
    return total / math.pi


def argument_suite(zl: zeros.ZeroList, cfg: PrecisionConfig):
    """7: N(t) from S(t), and S1 two ways up to the sigma > 2 tail."""
    rng = np.random.default_rng(20260826)
    ts = rng.uniform(15.0, 500.0, 200)
    bad = 0
    for t in ts.tolist():
        s = argument.S_of_t(t, cfg, zl)
        n = round(zeta.rs_theta(t) / math.pi + 1.0 + s)
        bad += int(n != int(np.count_nonzero(zl.ordinates <= t)))

    # drift: total movement of the linear trend of the difference; the
    # bounded sigma > 2 tail oscillation lives in the constant band and
    # is additionally verified to explain the difference pointwise
    tg = np.linspace(20.0, 500.0, 25)
    diff = np.array([argument.S1_direct(t, zl, cfg)
                     - argument.S1_littlewood(t, cfg)
                     for t in tg.tolist()])
    design = np.column_stack([np.ones_like(tg), tg])
    slope = np.linalg.lstsq(design, diff, rcond=None)[0][1]
    drift = abs(slope) * (tg[-1] - tg[0])
    corrected = diff - np.array([_sigma_tail(t) for t in tg.tolist()])
    band = float(corrected.max() - corrected.min())

    return _verdict([bad == 0, drift <= 0.2, band < 1e-4],
                    f"reconstruction failures={bad}/200, drift={drift:.4f} "
                    f"(<=0.2), tail-corrected band={band:.2e}")


def lemma2_omega(zl: zeros.ZeroList, cfg: PrecisionConfig):
    """8: the Lemma 2 scan to 1e4 stays O(1); Omega has both signs."""
    # O(1) sup statistics.  The scans need the fast Riemann-Siegel path
    # (4 correction terms, 1e-8 point target) and a quadrature tolerance
    # above the resulting integrand noise floor (~1e-8 per unit length
    # over 1e4), else the adaptive pass chases noise for half an hour.
    cfg = dataclasses.replace(cfg, target_abs_error=1e-8,
                              quad_tol=1e-4, rs_correction_terms=4,
                              max_subdivisions=200_000)
    grid = np.geomspace(30.0, 1e4, 60)
    rep = argument.lemma2_scan(20.0, grid, zl, cfg)
    norms = np.abs(argument.lemma2_normalized(rep.samples[:, 0],
                                              rep.samples[:, 1]))
    sup = float(norms.max())
    # trend on octave means: single points of a sup statistic are noise
    last_mean = float(norms[rep.samples[:, 0] >= 5e3].mean())
    earlier_mean = float(norms[rep.samples[:, 0] < 5e3].mean())

    om = argument.omega_scan(1e3, 0.3, zl, cfg)
    mx, tmx, mn, tmn = om.fitted_params

    return _verdict([math.isfinite(sup), last_mean <= 1.25 * earlier_mean,
                     mx > 0 > mn],
                    f"normalized sup={sup:.3f} finite, last-octave mean "
                    f"{last_mean:.3f} <= 1.25*earlier {earlier_mean:.3f}; "
                    f"omega max={mx:+.2f}@{tmx:.1f} min={mn:+.2f}@{tmn:.1f}")


def _pair_loop(table):
    """(m, mp) pair loop over the table itself; independent of the
    vectorized c(p^k) correlation kernel behind resonator_numerator."""
    p_ = table.params
    lut = dict(zip(table.ns.tolist(), table.rs.tolist()))
    terms = []
    for n, rn in lut.items():
        if n == 1:
            continue
        for p, _ in factorize(n):
            m = n // p
            rm = lut.get(m)
            if rm is None:
                continue
            lp = math.log(p)
            terms.append(rm * rn * lp * math.sin(p_.h * lp) ** p_.mu
                         / (math.sqrt(p) * lp ** p_.nu))
    return comp_sum(np.array(terms if terms else [0.0]))


def _random_override_params(rng):
    nu = int(rng.integers(0, 3))
    mu = int(rng.integers(1, 4))
    a = float(rng.uniform(1.5, 20.0))
    b = a * float(rng.uniform(3.0, 15.0))
    n = int(rng.integers(200, 50_000))
    return resonator.ResonatorParams(mu=mu, nu=nu, N=n, h=0.1, L=1.0,
                                     A=a, B=b, override=True)


def resonator_exact(toy_params: resonator.ResonatorParams):
    """9: resonator numerators against a pair loop; ratio signs."""
    worst = 0.0
    sign_ok = True
    for h in (0.05, 0.1):
        ph = dataclasses.replace(toy_params, h=h)
        for variant in ("plus", "minus"):
            t = resonator.build_resonator(ph, variant)
            num = resonator.resonator_numerator(t)
            oracle = _pair_loop(t)
            worst = max(worst, abs(num - oracle) / max(abs(oracle), 1e-300))
            ratio = num / resonator.resonator_denominator(t)
            sign_ok &= (ratio > 0) if variant == "plus" else (ratio < 0)

    rng = np.random.default_rng(7)
    tables = 0
    while tables < 5:
        params = _random_override_params(rng)
        try:
            t = resonator.build_resonator(params, "plus",
                                          entry_cap=10_000)
        except errors.TableTooLarge:
            continue
        if t.ns.size < 3:
            continue
        tables += 1
        num = resonator.resonator_numerator(t)
        oracle = _pair_loop(t)
        worst = max(worst, abs(num - oracle) / max(abs(oracle), 1e-300))

    return _verdict([worst <= 1e-12, sign_ok],
                    f"max pair-loop rel gap={worst:.2e} (<=1e-12) over "
                    f"toy+5 random; signs "
                    f"{'correct' if sign_ok else 'WRONG'} for h in "
                    f"{{0.05,0.1}}")


def _table_50():
    params = resonator.ResonatorParams(mu=2, nu=0, N=400, h=0.1, L=1.0,
                                       A=2.0, B=30.0, override=True)
    return resonator.build_resonator(params, "plus")


def lemma3_mv(toy_table: resonator.ResonatorTable, trivial_table,
              cfg: PrecisionConfig):
    """10: mean squares, Lemma 3 gaps and the alpha = 2 series."""
    try:
        from scipy.integrate import quad
    except ImportError as exc:
        raise errors.MissingDependency(
            "criterion 10's quadrature oracle needs scipy, which comes "
            "with the test extra: pip install 'bsylab[test]'") from exc

    T = 1e3
    ms = dirichlet.mean_square_exact(toy_table, T)
    oracle = quad(lambda x: abs(dirichlet.eval_R(toy_table, x)) ** 2,
                  T, 2.0 * T, limit=2000, epsabs=1e-10, epsrel=1e-12)[0]
    ms_gap = abs(ms - oracle)

    t50 = _table_50()
    base = comp_sum(t50.rs ** 2)
    ratios = [dirichlet.mean_square_exact(t50, Tk) / (Tk * base)
              for Tk in (1e3, 1e4, 1e5)]
    ratio_ok = (0.9 <= ratios[0] <= 1.1
                and abs(ratios[1] - 1) < abs(ratios[0] - 1)
                and abs(ratios[2] - 1) < abs(ratios[1] - 1))

    # bounded check: the gap cannot be certified below the zeta engine's
    # own pointwise error times the polynomial mass, so each rung gets
    # that budget on top of twice the first rung's gap.  The tight
    # series oracle below certifies the quadrature itself.
    loose = dataclasses.replace(cfg, quad_tol=1e-3)
    gaps, budgets = [], []
    for Tk in (1e3, 1e4, 1e5):
        req = dirichlet.Lemma3Request(alpha=0.6, h=0.1, T=Tk, table=toy_table)
        gaps.append(dirichlet.lemma3_compare(req, loose))
        point = (zeta.AFE_BOUND_COEF * Tk ** (-0.6 / 2.0 - 0.25)
                 if 2.0 * Tk > dirichlet._AFE_CUTOVER else 1e-8)
        budgets.append(point * dirichlet.mean_square_exact(toy_table, Tk)
                       / dirichlet.lemma3_normalization(req))
    bounded_ok = all(g <= 2.0 * gaps[0] + b + 1e-6
                     for g, b in zip(gaps, budgets))

    # absolutely convergent series oracle at alpha = 2
    Ts, h = 100.0, 0.0
    lhs = dirichlet.lemma3_lhs(
        dirichlet.Lemma3Request(alpha=2.0, h=h, T=Ts, table=trivial_table),
        cfg)
    total = 0j
    for p in primes_up_to(120_000).tolist():
        pk = p
        while pk <= 120_000:
            ln = math.log(pk)
            total += (math.log(p) / (pk * pk * ln)
                      * (np.exp(-2j * Ts * ln) - np.exp(-1j * Ts * ln))
                      / (-1j * ln))
            pk *= p
    series_gap = abs(lhs - total)

    return _verdict([ms_gap <= cfg.quad_tol, ratio_ok, bounded_ok,
                     series_gap <= 1e-6],
                    f"mean-square gap={ms_gap:.2e} (<=quad_tol); "
                    f"ratios={np.round(ratios, 4).tolist()} monotone to 1; "
                    f"alpha=0.6 gaps={[f'{g:.2e}' for g in gaps]} within "
                    f"budgets={[f'{b:.2e}' for b in budgets]}; "
                    f"alpha=2 series gap={series_gap:.2e} (<=1e-6)")
