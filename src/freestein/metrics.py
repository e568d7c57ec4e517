"""Distances between grid densities: Kolmogorov, total variation, W1.

:func:`distance_report` is the one entry.  It compares two densities on one
uniform grid, and refuses a pair on different grids (ValueError).  TV and
W1 integrate with the grid's trapezoid ``weights``; the CDFs are the
cumulative trapezoid rule.  A TV refused for a mass deficit is ``d_tv =
None``.  The Wasserstein distance is the classical CDF-difference
integral, the upper bound through which the non-commutative distance is
controlled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import GridDensity

TV_DEFICIT_LIMIT = 1e-3
ALL_METRICS = ("kol", "tv", "w1")
# names the distance method in result side-cars; change it when the method changes
DISTANCE_METHOD = "grid-trapezoid"


@dataclass
class DistanceReport:
    """Distances between two laws; a distance not asked for is None, and so is a
    TV refused for a mass deficit of ``TV_DEFICIT_LIMIT`` or more."""

    d_kol: float | None
    d_tv: float | None
    d_w1: float | None
    mass_deficit: float | None


def _cdf_on(xs: np.ndarray, f: np.ndarray) -> np.ndarray:
    inc = 0.5 * (f[1:] + f[:-1]) * np.diff(xs)
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    if cdf[-1] > 0 and abs(1.0 - cdf[-1]) < TV_DEFICIT_LIMIT:
        cdf = cdf / cdf[-1]
    return cdf


def distance_report(a: GridDensity, b: GridDensity, metrics=ALL_METRICS) -> DistanceReport:
    """The requested distances, None for the others; TV refusal is d_tv = None.

    A metric outside ``ALL_METRICS`` raises ValueError, and so do densities
    on different grids, whichever metrics are asked.  ``mass_deficit`` is the
    larger ``GridDensity.mass_deficit`` of the two, and TV is refused when it
    reaches ``TV_DEFICIT_LIMIT``.
    """
    if unknown := set(metrics) - set(ALL_METRICS):
        raise ValueError(f"unknown metrics {sorted(unknown)}; choose from {ALL_METRICS}")
    if (a.lo, a.hi, a.n_points) != (b.lo, b.hi, b.n_points):
        raise ValueError(f"distances need densities on one grid, got {a!r} and {b!r}")
    deficit = max(a.mass_deficit, b.mass_deficit)
    d_kol = d_tv = d_w1 = None
    if "kol" in metrics or "w1" in metrics:
        gap = np.abs(_cdf_on(a.x, a.values) - _cdf_on(a.x, b.values))
        d_kol = float(gap.max()) if "kol" in metrics else None
        d_w1 = float(a.weights @ gap) if "w1" in metrics else None
    if "tv" in metrics and deficit < TV_DEFICIT_LIMIT:
        d_tv = float(0.5 * (a.weights @ np.abs(a.values - b.values)))
    return DistanceReport(d_kol=d_kol, d_tv=d_tv, d_w1=d_w1, mass_deficit=deficit)
