"""Shared exception types; the command line maps these to exit codes."""


class InputError(ValueError):
    """A precondition on user-supplied data is violated (exit code 2)."""


class ConfigurationError(ValueError):
    """A run configuration is malformed or internally inconsistent (exit code 2)."""


class UnsupportedRegimeError(RuntimeError):
    """The requested (m, n) combination or problem size is outside the supported
    regime of the chosen method (exit code 3)."""


class InconclusiveError(RuntimeError):
    """A hard verdict was demanded but the computation is inconclusive (exit code 4)."""


class ConvergenceError(InconclusiveError):
    """An iterative solver stopped at its iteration limit short of the requested
    tolerance, or ended with a true residual above twice the larger of that
    tolerance and its rounding floor (exit code 4)."""
