"""Exception types shared across the toolkit.

The command line maps these onto exit codes: invalid arguments are usage
errors (2), malformed files and configs are parse errors (3), and singular
or otherwise failed numerics are solver errors (4).
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ToolkitError, ValueError):
    """An argument violates an operation's precondition."""


class NumericsError(ToolkitError):
    """A computation overflowed, diverged or could not be solved."""


class SingularSystemError(NumericsError):
    """A linear system could not be solved to the required residual.

    `index` is the failing system's position in a batch, or None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class FormatError(ToolkitError):
    """A file or byte stream does not match its declared format."""


class ConfigError(FormatError):
    """A configuration file is malformed or names an unknown key."""
