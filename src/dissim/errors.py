"""Exception types shared across the package.

The split mirrors how callers need to react: bad data versus incompatible
shapes/settings versus an optimizer that could not finish.  The command line
maps InputError/ConfigError to exit code 2 and SolverError to exit code 3.
"""


class DissimError(Exception):
    """Base class for all package-specific errors."""


class InputError(DissimError):
    """Malformed data: bad file contents, degenerate boxes, missing fields."""


class ConfigError(DissimError):
    """Incompatible dimensions or invalid configuration values."""


class SolverError(DissimError):
    """An optimizer failed to converge within its budget.

    Carries the last iterate so callers can inspect or salvage it.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate
