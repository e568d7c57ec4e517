"""Distances between grid densities: Kolmogorov, total variation, W1.

All three work from densities/CDFs on uniform grids; inputs on different
windows are resampled by linear interpolation onto the union grid.  The
Wasserstein distance is the classical CDF-difference integral, the upper
bound through which the non-commutative distance is controlled.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

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

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _union_grid(a: GridDensity, b: GridDensity):
    if a.lo == b.lo and a.hi == b.hi and a.n_points == b.n_points:
        return a.x, np.asarray(a.values), np.asarray(b.values)
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    n = max(a.n_points, b.n_points)
    xs = np.linspace(lo, hi, n)
    fa = np.interp(xs, a.x, a.values, left=0.0, right=0.0)
    fb = np.interp(xs, b.x, b.values, left=0.0, right=0.0)
    return xs, fa, fb


def _cdf_on(xs: np.ndarray, f: np.ndarray) -> np.ndarray:
    inc = 0.5 * (f[1:] + f[:-1]) * np.diff(xs)
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    if cdf[-1] > 0 and abs(1.0 - cdf[-1]) < TV_DEFICIT_LIMIT:
        cdf = cdf / cdf[-1]
    return cdf


def kolmogorov(a: GridDensity, b: GridDensity) -> float:
    """sup_x |F_a(x) - F_b(x)| over the union grid."""
    xs, fa, fb = _union_grid(a, b)
    return float(np.abs(_cdf_on(xs, fa) - _cdf_on(xs, fb)).max())


def total_variation(a: GridDensity, b: GridDensity) -> float:
    """Half the L1 distance of the densities.

    Refused (ValueError) when either input is mass-deficient; a density
    that silently dropped an atom would understate the distance.
    """
    for g, side in ((a, "first"), (b, "second")):
        if g.mass_deficit >= TV_DEFICIT_LIMIT:
            raise ValueError(
                f"total variation unavailable: {side} density has mass deficit "
                f"{g.mass_deficit:.4f}"
            )
    xs, fa, fb = _union_grid(a, b)
    return float(0.5 * np.trapezoid(np.abs(fa - fb), xs))


def wasserstein1(a: GridDensity, b: GridDensity) -> float:
    """W1 distance as the integral of |F_a - F_b| over the union window."""
    xs, fa, fb = _union_grid(a, b)
    return float(np.trapezoid(np.abs(_cdf_on(xs, fa) - _cdf_on(xs, fb)), xs))


def distance_report(a: GridDensity, b: GridDensity, metrics=("kol", "tv", "w1")) -> DistanceReport:
    """Bundle the requested distances; TV refusal becomes d_tv = None."""
    d_kol = kolmogorov(a, b) if "kol" in metrics else float("nan")
    d_w1 = wasserstein1(a, b) if "w1" in metrics else float("nan")
    d_tv = None
    if "tv" in metrics:
        try:
            d_tv = total_variation(a, b)
        except ValueError:
            d_tv = None
    return DistanceReport(
        d_kol=d_kol,
        d_tv=d_tv,
        d_w1=d_w1,
        mass_deficit=max(a.mass_deficit, b.mass_deficit),
    )
