"""Precision configuration shared by every numerical routine.

Panel, segment and table reductions are correctly rounded float64 sums
(``math.fsum`` via :mod:`bsylab.accum`); phase-critical reductions go
through numpy longdouble (80-bit extended on x86-64).  That policy is
fixed package-wide; PrecisionConfig only controls tolerances, the
quadrature budget and the Riemann-Siegel correction order.  The
Euler-Maclaurin truncation and correction order are not configured:
:mod:`bsylab.zeta` works them out from each call's target.
"""

from dataclasses import dataclass, replace

MAX_RS_CORRECTION_TERMS = 4
MAX_SUBDIVISIONS_CAP = 1_000_000

#: |s - 1| below this raises PoleAt1 (quadratures here never approach s=1).
POLE_THRESHOLD = 1e-3


@dataclass(frozen=True)
class PrecisionConfig:
    """Target accuracy, Riemann-Siegel correction order, quadrature
    tolerance and subdivision budget."""

    target_abs_error: float = 1e-12
    rs_correction_terms: int = MAX_RS_CORRECTION_TERMS
    quad_tol: float = 1e-9
    max_subdivisions: int = 20_000

    def __post_init__(self):
        if not self.target_abs_error > 0:
            raise ValueError("target_abs_error must be > 0")
        if not self.quad_tol > 0:
            raise ValueError("quad_tol must be > 0")
        if self.target_abs_error > self.quad_tol:
            raise ValueError("target_abs_error must be <= quad_tol")
        if not 0 <= self.rs_correction_terms <= MAX_RS_CORRECTION_TERMS:
            raise ValueError("rs_correction_terms out of range")
        if not 1 <= self.max_subdivisions <= MAX_SUBDIVISIONS_CAP:
            raise ValueError("max_subdivisions out of range")

    def refined(self, factor: float = 10.0) -> "PrecisionConfig":
        """A config with all tolerances tightened by ``factor``."""
        return replace(
            self,
            target_abs_error=self.target_abs_error / factor,
            quad_tol=self.quad_tol / factor,
            rs_correction_terms=MAX_RS_CORRECTION_TERMS,
            max_subdivisions=min(self.max_subdivisions * 4, MAX_SUBDIVISIONS_CAP),
        )


#: Default configuration; suitable for every acceptance-scale experiment.
DEFAULT = PrecisionConfig()
