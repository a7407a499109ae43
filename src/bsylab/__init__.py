"""bsylab: a desk-scale laboratory for the weighted critical-line integral
I(T) = integral of log|zeta(1/2+it)| / (1/4 + t^2) over [-T, T], whose decay
is equivalent to the Riemann Hypothesis, together with the argument, zero,
resonator and Dirichlet-polynomial machinery needed to study it."""

from .config import DEFAULT, PrecisionConfig
from .errors import (
    BetaOutOfRange,
    BranchAmbiguous,
    BsyError,
    Degenerate,
    DegenerateFit,
    Inconsistent,
    MissingDependency,
    NearZeroOrdinate,
    NotAscending,
    OnOrdinate,
    ParseError,
    PoleAt1,
    PrecisionUnreachable,
    TableTooLarge,
    ToleranceNotMet,
    ZeroListInsufficient,
    ZeroOnPath,
)
from .zeta import (
    ZetaValue,
    hardy_z,
    hardy_z_batch,
    log_abs_zeta_half,
    log_zeta_branch,
    rs_error_bound,
    rs_theta,
    zeta_em,
)
from .zeros import (
    ORDINATE_ACCURACY,
    ZeroCandidate,
    ZeroList,
    count_zeros,
    export_zeros,
    find_zeros_up_to,
    import_zeros,
    verify_zero_list,
)
from .quadrature import IntegralResult, adaptive_quad
from .integral import (
    MODELS,
    ScanReport,
    bsy_integrand,
    compute_I,
    compute_I_many,
    fit_decay,
    tail_I,
    theorem2_residual,
    weight_identity_check,
    zero_sum_term,
)
from .argument import (
    S1_direct,
    S1_littlewood,
    S_of_t,
    lemma2_normalized,
    lemma2_scan,
    omega_normalized,
    omega_scan,
)
from .resonator import (
    ResonatorParams,
    ResonatorTable,
    build_resonator,
    lemma4_check,
    read_table,
    resonator_denominator,
    resonator_numerator,
    solve_L,
    write_table,
)
from .dirichlet import (
    Lemma3Request,
    eval_R,
    eval_R_batch,
    lemma3_compare,
    lemma3_lhs,
    lemma3_normalization,
    lemma3_rhs,
    mean_square_exact,
    s1_resonance_statistic,
)
from .cli import RunConfig, load_run_config

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
