"""Shared exception and warning types, and the one rule for numbers.

Every count, order, size and step is read through :func:`check_count` or
:func:`check_real`, which raise ValueError naming the argument.  This module
imports nothing from the package, so every layer can use the rule.
"""

import math
import numbers


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


def _real(v) -> bool:
    """The one test for a finite real; bools, strings and ints beyond float range fail."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def check_count(v, what: str, lo: int, hi: int) -> int:
    """The one count rule: a whole number in [lo, hi], 4 and 4.0 giving 4; else ValueError."""
    if not (_real(v) and float(v).is_integer() and lo <= v <= hi):
        raise ValueError(f"{what} must be a whole number in [{lo}, {hi}], got {v!r}")
    return int(v)


def check_real(v, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """The one rule for a real: a finite real v in [lo, hi], as a float; else ValueError."""
    if not (_real(v) and lo <= v <= hi):
        bound = "" if lo == -math.inf else f" >= {lo:g}"
        bound += "" if hi == math.inf else f"{' and' if bound else ''} <= {hi:g}"
        raise ValueError(f"{what} must be a finite real{bound}, got {v!r}")
    return float(v)
