"""bsylab: a desk-scale laboratory for the weighted critical-line integral
I(T) = integral of log|zeta(1/2+it)| / (1/4 + t^2) over [-T, T], whose decay
is equivalent to the Riemann Hypothesis, together with the argument, zero,
resonator and Dirichlet-polynomial machinery needed to study it."""

import importlib

__version__ = "0.1.0"

# "module:" and its public names, each imported on first use (PEP 562).
_TABLE = """acceptance: accum: phases: sieve: config: DEFAULT PrecisionConfig
errors: BetaOutOfRange BranchAmbiguous BsyError Degenerate DegenerateFit
    Inconsistent MissingDependency NearZeroOrdinate NotAscending OnOrdinate
    ParseError PoleAt1 PrecisionUnreachable TableTooLarge ToleranceNotMet
    UnsupportedPlatform ZeroListInsufficient ZeroOnPath
zeta: ZetaValue hardy_z hardy_z_batch log_abs_zeta_half log_zeta_branch
    rs_error_bound rs_theta zeta_em
zeros: ORDINATE_ACCURACY ZeroCandidate ZeroList count_zeros export_zeros
    find_zeros_up_to import_zeros verify_zero_list
quadrature: IntegralResult adaptive_quad cli: RunConfig load_run_config
integral: MODELS ScanReport bsy_integrand compute_I compute_I_many fit_decay
    tail_I theorem2_residual weight_identity_check zero_sum_term
argument: S1_direct S1_littlewood S_of_t lemma2_normalized lemma2_scan
    omega_normalized omega_scan
resonator: ResonatorParams ResonatorTable build_resonator lemma4_check
    read_table resonator_denominator resonator_numerator solve_L write_table
dirichlet: Lemma3Request eval_R eval_R_batch lemma3_compare lemma3_lhs
    lemma3_normalization lemma3_rhs mean_square_exact s1_resonance_statistic"""
_HOME = {}      # each public name -> its module; a submodule is its own home
for _word in _TABLE.split():
    _module = _word[:-1] if _word.endswith(":") else _module
    _HOME[_word.rstrip(":")] = _module
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{_HOME[name]}")
    globals()[name] = home if name == _HOME[name] else getattr(home, name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
