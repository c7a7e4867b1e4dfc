"""Exception types shared across the package."""


class CmopError(Exception):
    """Base class for all package errors."""


class DimensionError(CmopError, ValueError):
    """Operands have incompatible shapes."""


class InputError(CmopError, ValueError):
    """Malformed user input: non-finite data, bad file contents, bad w0."""


class ConfigError(CmopError, ValueError):
    """Invalid solver or step-size configuration."""


class ContractError(CmopError, ValueError):
    """A documented precondition was violated by the caller."""


class SingularSystemError(CmopError, RuntimeError):
    """A linear solve failed or left a residual above the trust threshold."""


class OracleError(CmopError, RuntimeError):
    """The dual oracle's result failed its optimality certificate.

    Carries the last primal point, multipliers and scaled residuals so the
    caller can inspect how close the ascent got.
    """

    def __init__(self, message, best_w=None, best_lambda=None, best_residuals=None):
        super().__init__(message)
        self.best_w = best_w
        self.best_lambda = best_lambda
        self.best_residuals = best_residuals


class DegenerateRowError(CmopError, ValueError):
    """A multiplier cannot be recovered from a zero-norm active row."""
