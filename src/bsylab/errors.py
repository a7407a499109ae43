"""Exception hierarchy shared by all bsylab modules."""


class BsyError(Exception):
    """Base class for all computational errors raised by bsylab."""


class PoleAt1(BsyError):
    """Evaluation point is too close to the pole of zeta at s = 1."""


class PrecisionUnreachable(BsyError):
    """The configured term budget cannot meet the requested accuracy."""


class NearZeroOrdinate(BsyError):
    """Evaluation requested too close to a zero ordinate; callers must
    subtract the singularity instead of evaluating through it."""


class ZeroOnPath(BsyError):
    """Branch tracking detected |zeta| below threshold on the path."""


class BranchAmbiguous(BsyError):
    """Step halving hit its refinement cap without taming the winding."""


class ParseError(BsyError):
    """Malformed zero-list input; carries the offending line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class NotAscending(BsyError):
    """Zero ordinates are not strictly ascending."""


class Inconsistent(BsyError):
    """Two independent zero counts disagree (possible missed zeros)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class OnOrdinate(BsyError):
    """Operation requested exactly at (or too close to) a zero ordinate."""


class ZeroListInsufficient(BsyError):
    """The supplied zero list does not cover the requested height."""


class ToleranceNotMet(BsyError):
    """Adaptive quadrature hit its subdivision cap before the tolerance."""


class BetaOutOfRange(BsyError):
    """Hypothetical zero real part outside (1/2, 1)."""


class DegenerateFit(BsyError):
    """Least-squares normal equations are singular or under-determined."""


class Degenerate(BsyError):
    """Resonator parameter equations have no admissible root at this N."""


class TableTooLarge(BsyError):
    """A resonator table is too large: its enumeration passed the entry
    cap, or its largest entry passes the limit of the c(p^k) sieve."""


class MissingDependency(BsyError):
    """An optional package that this computation needs is not installed."""


class UnsupportedPlatform(BsyError):
    """The platform's floating point lacks what the error bounds assume
    (an 80-bit longdouble)."""
