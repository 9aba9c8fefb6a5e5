"""Exception types shared across the package."""


class QubitVarError(Exception):
    """Base class for every error raised by qubitvar."""


class InvalidArgument(QubitVarError, ValueError):
    """An argument or flag value is outside what the function or command accepts."""


class DegenerateSpectrum(QubitVarError):
    """Observable has (numerically) equal eigenvalues, so outcomes are undefined."""


class CollinearObservables(QubitVarError):
    """Traceless parts of the two observables share a Bloch axis; estimator undefined."""


class PositivityLost(QubitVarError):
    """Integrated state left the Bloch ball by more than the instability threshold."""
