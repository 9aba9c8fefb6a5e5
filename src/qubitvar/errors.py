"""Exception types shared across the package."""


class QubitVarError(Exception):
    """Base class for every error raised by qubitvar."""


class BlochNormExceeded(QubitVarError):
    """Bloch vector lies outside the unit ball."""


class NotHermitian(QubitVarError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class TraceNotOne(QubitVarError):
    """Density matrix trace differs from 1 beyond tolerance."""


class NotPositive(QubitVarError):
    """Density matrix has an eigenvalue below the positivity tolerance."""


class BadDimension(QubitVarError):
    """Requested Hilbert-space dimension is not supported."""


class NumericalInconsistency(QubitVarError):
    """A quantity that must be non-negative came out negative beyond rounding noise."""


class DegenerateSpectrum(QubitVarError):
    """Observable has (numerically) equal eigenvalues, so outcomes are undefined."""


class CollinearObservables(QubitVarError):
    """Traceless parts of the two observables share a Bloch axis; estimator undefined."""


class NonFiniteInput(QubitVarError):
    """A numeric input is NaN or infinite."""


class NegativeRate(QubitVarError):
    """A rate of the feedback model (lam or omega) is negative."""


class NegativeTime(QubitVarError):
    """Evolution time must be non-negative."""


class NonPositiveTime(QubitVarError):
    """Closed-form tightness expressions require t > 0."""


class NonPositiveLambda(QubitVarError):
    """Closed-form tightness expression requires feedback strength > 0."""


class StepTooLarge(QubitVarError):
    """Integrator step size outside the supported range (0, 1e-2]."""


class PositivityLost(QubitVarError):
    """Integrated state left the Bloch ball by more than the instability threshold."""


class TooMuchWork(QubitVarError):
    """A request needs more grid points or integrator steps than the package allows."""
