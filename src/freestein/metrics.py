"""Distances between grid densities: Kolmogorov, total variation, W1.

All three compare two densities on one uniform grid, and refuse a pair on
different grids (ValueError).  TV and W1 integrate with the grid's
trapezoid ``weights``; the CDFs are the cumulative trapezoid rule.  The
Wasserstein distance is the classical CDF-difference integral, the upper
bound through which the non-commutative distance is controlled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import GridDensity

TV_DEFICIT_LIMIT = 1e-3
# names the distance method in result side-cars; change it when the method changes
DISTANCE_METHOD = "grid-trapezoid"


@dataclass
class DistanceReport:
    """Distances between two laws; d_tv is None when an atom was detected."""

    d_kol: float
    d_tv: float | None
    d_w1: float
    mass_deficit: float


def _one_grid(a: GridDensity, b: GridDensity) -> None:
    """Refuse two densities on different grids."""
    if (a.lo, a.hi, a.n_points) != (b.lo, b.hi, b.n_points):
        raise ValueError(f"distances need densities on one grid, got {a!r} and {b!r}")


def _cdf_on(xs: np.ndarray, f: np.ndarray) -> np.ndarray:
    inc = 0.5 * (f[1:] + f[:-1]) * np.diff(xs)
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    if cdf[-1] > 0 and abs(1.0 - cdf[-1]) < TV_DEFICIT_LIMIT:
        cdf = cdf / cdf[-1]
    return cdf


def _cdf_gap(a: GridDensity, b: GridDensity) -> np.ndarray:
    """|F_a - F_b| at the nodes of the grid that a and b share."""
    _one_grid(a, b)
    xs = a.x
    return np.abs(_cdf_on(xs, a.values) - _cdf_on(xs, b.values))


def kolmogorov(a: GridDensity, b: GridDensity) -> float:
    """sup_x |F_a(x) - F_b(x)| over the grid nodes."""
    return float(_cdf_gap(a, b).max())


def total_variation(a: GridDensity, b: GridDensity) -> float:
    """Half the L1 distance of the densities.

    Refused (ValueError) when either input is mass-deficient; a density
    that silently dropped an atom would understate the distance.
    """
    _one_grid(a, b)
    return _total_variation(a, b, a.weights, (a.mass_deficit, b.mass_deficit))


def _total_variation(a: GridDensity, b: GridDensity, weights, deficits) -> float:
    """:func:`total_variation` from the grid's weights and the two mass deficits."""
    for deficit, side in zip(deficits, ("first", "second")):
        if deficit >= TV_DEFICIT_LIMIT:
            raise ValueError(
                f"total variation unavailable: {side} density has mass deficit {deficit:.4f}"
            )
    return float(0.5 * (weights @ np.abs(a.values - b.values)))


def wasserstein1(a: GridDensity, b: GridDensity) -> float:
    """W1 distance as the integral of |F_a - F_b| over the grid's window."""
    return float(a.weights @ _cdf_gap(a, b))


def distance_report(a: GridDensity, b: GridDensity, metrics=("kol", "tv", "w1")) -> DistanceReport:
    """Bundle the requested distances; TV refusal becomes d_tv = None.

    Densities on different grids raise ValueError, whichever metrics are asked.
    The CDF gap, the weights and the two masses are computed once.
    """
    _one_grid(a, b)
    weights = a.weights
    deficits = tuple(abs(1.0 - float(weights @ g.values)) for g in (a, b))
    gap = _cdf_gap(a, b) if "kol" in metrics or "w1" in metrics else None
    d_kol = float(gap.max()) if "kol" in metrics else float("nan")
    d_w1 = float(weights @ gap) if "w1" in metrics else float("nan")
    d_tv = None
    if "tv" in metrics:
        try:
            d_tv = _total_variation(a, b, weights, deficits)
        except ValueError:
            d_tv = None
    return DistanceReport(d_kol=d_kol, d_tv=d_tv, d_w1=d_w1, mass_deficit=max(deficits))
