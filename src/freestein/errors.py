"""Shared exception and warning types."""


class ConvergenceError(RuntimeError):
    """A fixed-point iteration hit its cap without reaching a usable residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class FitRefusalError(RuntimeError):
    """Too few usable points (or all below the noise floor) for a rate fit."""


class ConfigError(ValueError):
    """A malformed or contradictory experiment configuration."""


class MassRecoveryWarning(UserWarning):
    """Recovered density mass is far from 1 (atoms, or window too small)."""
