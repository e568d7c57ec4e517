"""Analytic engine: Cauchy transforms, subordination, density recovery.

A :class:`MeasureSpec` names a compactly supported law (atoms, semicircle,
or a grid density).  Every transform goes through one handle,
:class:`MeasureEvaluator`, which solves once per call for omega(z) and G(z):
the subordination handles read G from F = omega1 + omega2 - z (Belinschi and
Bercovici 2007), under one residual gate.
Densities come back through Stieltjes inversion with an epsilon ladder.
The moment extractor closes the loop with the cumulant engine of
:mod:`freestein.momentalg`.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels, momentalg
from .errors import (ConfigError, ConvergenceError, MassRecoveryWarning, _real,
                     check_count, check_real)

EPS_LADDER = (4e-3, 2e-3, 1e-3)
# Lagrange weights for quadratic extrapolation of the ladder to eps = 0
_LADDER_W = (1.0 / 3.0, -2.0, 8.0 / 3.0)
# names the density method in result side-cars; change it when the method changes
DENSITY_METHOD = "stieltjes-eps-ladder-checked-closed-root"
MASS_WARN_BAND = (0.97, 1.03)
RESIDUAL_ACCEPT = 1e-9
MIN_GRID_POINTS = 64
MAX_GRID_POINTS = 20_001
# n-fold rows agree with a cancellation-free solve to 1e-7 relative up to here;
# semicircle and two-atom rows return their closed-form root as checked, so
# they lose no digits with n
MAX_N = 10**6


def read_csv(path, header: str, kind: str) -> list:
    """The one CSV reader: (line number, cells) of each non-blank line of a
    ``kind`` file after its ``header``.  An unreadable file, another header or
    another cell count than the header's is a ConfigError naming file and line."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip() != header:
        raise ConfigError(f"{path}, line 1: not {kind}, whose header is {header!r}")
    rows = [(k, line.strip().split(",")) for k, line in enumerate(lines[1:], 2) if line.strip()]
    width = header.count(",") + 1
    for lineno, cells in rows:
        if len(cells) != width:
            raise ConfigError(f"{path}, line {lineno}: expected {width} cells, got {len(cells)}")
    return rows


def write_atomic(path, text: str) -> None:
    """The one file writer: ``text`` replaces ``path`` in one step, through ``<path>.tmp``."""
    path = os.path.realpath(path)  # through a symbolic link, not over it
    Path(path + ".tmp").write_text(text)
    os.replace(path + ".tmp", path)


def check_window(lo, hi, n_points=None) -> int | None:
    """The one window rule: finite reals lo < hi with a finite width hi - lo,
    and a count ``n_points`` in [MIN_GRID_POINTS, MAX_GRID_POINTS] when given,
    returned as an int.  Raises ValueError; the command line and the
    experiment config turn it into a configuration error naming their key.
    """
    if not (_real(lo) and _real(hi) and lo < hi and math.isfinite(float(hi) - float(lo))):
        raise ValueError(f"need finite lo < hi with a finite width hi - lo, got {lo!r} {hi!r}")
    if n_points is not None:
        return check_count(n_points, "the grid point count", MIN_GRID_POINTS, MAX_GRID_POINTS)
    return None


class GridDensity:
    """Nonnegative density values on a uniform grid over [lo, hi].

    Values in [-1e-12, 0) are clamped to zero at construction; anything
    more negative, any non-finite value and a window that fails
    :func:`check_window` are rejected.
    ``weights`` is the trapezoid rule on the grid, the one quadrature behind
    ``mass``, the grid moments and kernels, and the grid distances.
    """

    __slots__ = ("lo", "hi", "values")

    def __init__(self, lo: float, hi: float, values):
        check_window(lo, hi)
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("density values must be a 1-d array of length >= 2")
        if not np.isfinite(vals).all():
            raise ValueError("density values must be finite")
        if vals.min() < -1e-12:
            raise ValueError(f"density has negative values (min {vals.min():.3e})")
        vals = np.clip(vals, 0.0, None)
        vals.setflags(write=False)
        self.lo = float(lo)
        self.hi = float(hi)
        self.values = vals

    @property
    def n_points(self) -> int:
        return len(self.values)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, len(self.values))

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights dx * [1/2, 1, ..., 1, 1/2] on the grid nodes."""
        wts = np.full(len(self.values), (self.hi - self.lo) / (len(self.values) - 1))
        wts[[0, -1]] *= 0.5
        return wts

    @property
    def mass(self) -> float:
        return float(self.weights @ self.values)

    @property
    def mass_deficit(self) -> float:
        return abs(1.0 - self.mass)

    def to_csv(self, path) -> None:
        """Write two columns x,density with 17 significant digits, atomically."""
        rows = (f"{xi:.17g},{vi:.17g}\n" for xi, vi in zip(self.x, self.values))
        write_atomic(path, "x,density\n" + "".join(rows))

    @classmethod
    def from_csv(cls, path) -> "GridDensity":
        """Read an ``x,density`` CSV (uniform x, at least 2 rows; blank lines
        skipped); a cell that is not a finite real is refused with its line."""
        xs, vs = [], []
        for lineno, (a, b) in read_csv(path, "x,density", "a density CSV"):
            try:
                xs.append(check_real(float(a), "x"))
                vs.append(check_real(float(b), "density"))
            except ValueError as exc:
                raise ConfigError(f"{path}, line {lineno}: {exc}") from exc
        if len(xs) < 2:
            raise ValueError(f"{path}: need at least 2 density rows, got {len(xs)}")
        gap = np.abs(np.array(xs) - np.linspace(xs[0], xs[-1], len(xs))).max()
        if gap > 1e-9 * abs(xs[-1] - xs[0]):
            raise ValueError(f"{path}: x column is not uniform (off by {gap:.3e})")
        return cls(xs[0], xs[-1], vs)

    def __repr__(self) -> str:
        return (
            f"GridDensity([{self.lo}, {self.hi}], n={self.n_points}, "
            f"mass={self.mass:.6f})"
        )


@dataclass(frozen=True)
class MeasureSpec:
    """Symbolic law: atoms + weights, a semicircle, or a grid density."""

    kind: str
    atoms: tuple = ()
    mean: float = 0.0
    variance: float = 1.0
    grid: GridDensity | None = None

    @classmethod
    def atomic(cls, atoms) -> "MeasureSpec":
        pts = tuple((check_real(p, "an atom"), check_real(w, "an atom weight")) for p, w in atoms)
        if abs(sum(w for _, w in pts) - 1.0) > 1e-12:
            raise ValueError("atom weights must sum to 1")
        if any(w <= 0 for _, w in pts):
            raise ValueError("atom weights must be positive")
        if len({p for p, _ in pts}) != len(pts):
            raise ValueError("atom positions must be distinct")
        return cls(kind="atomic", atoms=tuple(sorted(pts)))

    @classmethod
    def semicircle(cls, mean: float = 0.0, variance: float = 1.0) -> "MeasureSpec":
        if not (_real(mean) and _real(variance) and variance > 0):
            raise ValueError("semicircle needs a finite mean and a finite positive variance")
        return cls(kind="semicircle", mean=float(mean), variance=float(variance))

    @classmethod
    def from_grid(cls, grid: GridDensity) -> "MeasureSpec":
        if grid.mass_deficit > 1e-6:
            raise ValueError(f"grid density mass {grid.mass} is not 1 (within 1e-6)")
        return cls(kind="grid", grid=grid)

    def descriptor(self) -> tuple:
        """Flat (kind, c0, c1, xs, ys) encoding consumed by the kernels.

        A semicircle gives its mean and variance (kind 1).  Atoms and grids
        share kind 0, one weighted node sum: atoms give positions and
        weights, a grid its nodes and its values times its trapezoid
        ``weights``.
        """
        if self.kind == "semicircle":
            empty = np.empty(0, dtype=float)
            return (1, self.mean, self.variance, empty, empty)
        if self.kind == "atomic":
            xs = np.array([p for p, _ in self.atoms], dtype=float)
            ys = np.array([w for _, w in self.atoms], dtype=float)
        else:
            xs, ys = self.grid.x, self.grid.values * self.grid.weights
        return (0, 0.0, 0.0, xs, ys)

    @property
    def support_radius(self) -> float:
        if self.kind == "atomic":
            return max(abs(p) for p, _ in self.atoms)
        if self.kind == "semicircle":
            return abs(self.mean) + 2.0 * math.sqrt(self.variance)
        return max(abs(self.grid.lo), abs(self.grid.hi))

    def dilate(self, r: float) -> "MeasureSpec":
        """Pushforward under x -> r*x."""
        if r == 0:
            raise ValueError("dilation by 0 is degenerate")
        if self.kind == "atomic":
            return MeasureSpec.atomic([(r * p, w) for p, w in self.atoms])
        if self.kind == "semicircle":
            return MeasureSpec.semicircle(r * self.mean, r * r * self.variance)
        xs = self.grid.x * r
        vals = np.asarray(self.grid.values) / abs(r)
        if r < 0:
            xs, vals = xs[::-1], vals[::-1]
        return MeasureSpec.from_grid(GridDensity(xs[0], xs[-1], vals))

    def moments(self, order: int) -> momentalg.MomentSequence:
        """Exact raw moments (quadrature for the grid variant)."""
        order = check_count(order, "the moment order", 2, momentalg.MAX_ORDER)
        if self.kind == "atomic":
            vals = [
                sum(w * p**j for p, w in self.atoms) for j in range(order + 1)
            ]
            vals[0] = 1
            return momentalg.MomentSequence(vals, validate=False)
        if self.kind == "semicircle":
            kappa = [self.mean, self.variance] + [0] * (order - 2)
            return momentalg.cumulants_to_moments(
                momentalg.FreeCumulantSequence(kappa)
            )
        _, _, _, x, wv = self.descriptor()
        vals = [float(wv @ x**j) for j in range(order + 1)]
        vals[0] = 1.0
        return momentalg.MomentSequence(vals, validate=False)


def _as_upper_half(z):
    """z as a 1-d complex array; refuses a point that is not finite with Im z > 0."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if not (np.isfinite(arr).all() and (arr.imag > 0).all()):
        raise ValueError("Cauchy transforms are evaluated at finite points of the upper half plane")
    return arr


class MeasureEvaluator:
    """Cauchy-transform handle; ``_solve`` returns (omega(z), G(z)) in one go.

    For a plain law omega is the identity.  The subordination handles
    below set ``base`` and ``support_radius`` and supply ``_solve`` from a
    kernel solver; all of them share :meth:`cauchy`, the upper-half-plane
    check and the residual gate.
    """

    def __init__(self, base: MeasureSpec):
        self.base = base
        self.support_radius = base.support_radius
        self.peak_iterations = 0

    def omega(self, z):
        """omega(z) as a 1-d array, Im z > 0."""
        return self._solve(_as_upper_half(z))[0]

    def _solve(self, z):
        return z, _kernels.cauchy_vals(z, *self.base.descriptor())

    def cauchy(self, z):
        """G(z) = integral of 1/(z - x) d(law)(x), Im z > 0 (so Im G < 0)."""
        out = self._solve(_as_upper_half(z))[1]
        return out[0] if np.isscalar(z) or np.ndim(z) == 0 else out

    def _accept(self, what: str, iters, resid) -> None:
        """Record the solve's iterations; refuse a residual above RESIDUAL_ACCEPT or NaN."""
        iterations = int(iters.max())
        self.peak_iterations = max(self.peak_iterations, iterations)
        worst = float(resid.max())
        if not worst <= RESIDUAL_ACCEPT:
            raise ConvergenceError(
                f"{what} did not converge (residual {worst:.3e})",
                residual=worst,
                iterations=iterations,
            )


class NFoldEvaluator(MeasureEvaluator):
    """Handle for G of (D_scale mu)^{boxplus n}, n >= 2 (see :func:`nfold_convolve`).

    For identical summands the n-fold subordination map collapses to the
    single fixed point w -> (z + (n-1) F(w)) / n, with F the reciprocal
    Cauchy transform of the dilated base; all n subordination functions are
    omega, so G_{nu}(z) = (n-1) / (n omega(z) - z), 0/0 at n = 1.
    The solver starts from a closed form: the fixed point itself for a
    semicircle or a base of at most two atoms, which is checked with one
    evaluation of the map and returned with 0 iterations, and otherwise the
    fixed point for the two-atom law with the base's first three moments, a
    few Newton steps from the root; the residual gate applies either way, to
    the point returned.
    """

    def __init__(self, base: MeasureSpec, n: int, scale: float = 1.0):
        self.n = check_count(n, "the n of an n-fold handle", 2, MAX_N)
        super().__init__(base.dilate(scale))
        self.support_radius = self.n * self.base.support_radius

    def _solve(self, z):
        om, iters, resid = _kernels.nfold_omega(z, *self.base.descriptor(), float(self.n))
        self._accept("n-fold subordination", iters, resid)
        return om, (self.n - 1.0) / (self.n * om - z)


class PairConvolveEvaluator(MeasureEvaluator):
    """Handle for G of a boxplus b via two-measure subordination.

    omega1 is the attracting fixed point of w -> z + h_b(z + h_a(w)) with
    h = 1/G - id and omega2 = z + h_a(omega1); G = 1/(omega1 + omega2 - z).
    The solver starts from a closed form: the fixed point for the two
    semicircles with the operands' means and variances.  When a and b are
    semicircles, as in the OU flow of a semicircle, that is the fixed point
    itself, checked with one evaluation of the map and returned with 0
    iterations; otherwise Newton takes a few steps from it.  The residual
    gate applies either way, to the point returned.
    """

    def __init__(self, a: MeasureSpec, b: MeasureSpec):
        super().__init__(a)
        self.b = b
        self.support_radius = a.support_radius + b.support_radius

    def _solve(self, z):
        om1, om2, iters, resid = _kernels.pair_omega(
            z, *self.base.descriptor(), *self.b.descriptor()
        )
        self._accept("subordination", iters, resid)
        return om1, 1.0 / (om1 + om2 - z)


def nfold_convolve(mu: MeasureSpec, n: int, scale: float = 1.0) -> MeasureEvaluator:
    """Handle for (D_scale mu)^{boxplus n}; at n = 1 the plain one of D_scale mu."""
    if check_count(n, "n, a positive integer,", 1, MAX_N) == 1:
        return MeasureEvaluator(mu.dilate(scale))
    return NFoldEvaluator(mu, n, scale)


def ou_semigroup(mu: MeasureSpec, theta: float):
    """Handle for P_theta[mu] = D_{e^-theta}[mu] boxplus D_{sqrt(1-e^-2theta)}[s].

    theta is a finite real >= 0.  theta = 0 collapses the semicircle factor
    to a point mass at 0, so the measure is returned unchanged; the
    semicircle's variance 1 - e^{-2 theta} is taken by ``expm1``, so it
    stays positive for any theta > 0.  Once e^{-2 theta} falls below the
    least normal float (theta > 354), the dilated law's variance would
    underflow while its distance to the standard semicircle, of order
    e^{-theta}, is far below double precision: the standard semicircle's
    handle is returned, as it is once e^{-theta} underflows to 0.
    """
    theta = check_real(theta, "the semigroup time theta", 0.0)
    if theta == 0.0:
        return MeasureEvaluator(mu)
    decay = math.exp(-theta)
    if decay * decay < sys.float_info.min:
        return MeasureEvaluator(MeasureSpec.semicircle(0.0, 1.0))
    return PairConvolveEvaluator(
        mu.dilate(decay), MeasureSpec.semicircle(0.0, -math.expm1(-2.0 * theta))
    )


def stieltjes_density(evaluator, lo: float, hi: float, n_points: int = 2001) -> GridDensity:
    """Recover a density from -Im G / pi on the epsilon ladder.

    Evaluates at eps in {4e-3, 2e-3, 1e-3}, extrapolates quadratically to
    eps = 0, clamps at zero.  A recovered mass outside [0.97, 1.03] raises
    a :class:`MassRecoveryWarning` (atom in the law, or window too small);
    total-variation distances are refused downstream in that case.  A
    window or point count that fails :func:`check_window` raises ValueError
    before any solve.
    """
    check_window(lo, hi, n_points)
    xs = np.linspace(lo, hi, n_points)
    f = np.zeros(n_points)
    for eps, wgt in zip(EPS_LADDER, _LADDER_W):
        g = evaluator.cauchy(xs + 1j * eps)
        f += wgt * (-g.imag / math.pi)
    out = GridDensity(lo, hi, np.clip(f, 0.0, None))
    if not MASS_WARN_BAND[0] <= out.mass <= MASS_WARN_BAND[1]:
        warnings.warn(
            f"recovered mass {out.mass:.4f} outside {MASS_WARN_BAND}; "
            "atomic part or window too small",
            MassRecoveryWarning,
            stacklevel=2,
        )
    return out


def moments_from_evaluator(evaluator, order: int) -> momentalg.MomentSequence:
    """Moments via the contour integral m_j = (1/2 pi i) oint z^j G(z) dz.

    The circle has radius support_radius + 1; conjugate symmetry of G folds
    the integral onto the upper semicircle, where the midpoint rule
    converges geometrically:

        m_j = (1/pi) Re int_0^pi z(t)^j G(z(t)) R e^{it} dt,  z(t) = R e^{it}.
    """
    order = check_count(order, "the moment order", 2, momentalg.MAX_ORDER)
    radius = evaluator.support_radius + 1.0
    n_nodes = 256
    t = (np.arange(n_nodes) + 0.5) * math.pi / n_nodes
    z = radius * np.exp(1j * t)
    g = evaluator.cauchy(z)
    base = g * radius * np.exp(1j * t) * (math.pi / n_nodes)
    vals = [(z**j * base).sum().real / math.pi for j in range(order + 1)]
    if abs(vals[0] - 1.0) > 1e-6:
        raise ValueError(
            f"contour mass {vals[0]:.8f} != 1; support bound too small for this handle"
        )
    vals[0] = 1.0
    return momentalg.MomentSequence(vals, validate=False)


def semicircle_density(
    lo: float, hi: float, n_points: int = 2001, mean: float = 0.0, variance: float = 1.0
) -> GridDensity:
    """Closed-form semicircle density sqrt(4 s^2 - (x-m)^2) / (2 pi s^2), its window
    read by :func:`check_window` and its law by :meth:`MeasureSpec.semicircle`."""
    n_points = check_window(lo, hi, n_points)
    law = MeasureSpec.semicircle(mean, variance)
    xs = np.linspace(lo, hi, n_points)
    arg = 4.0 * law.variance - (xs - law.mean) ** 2
    vals = np.sqrt(np.clip(arg, 0.0, None)) / (2.0 * math.pi * law.variance)
    return GridDensity(lo, hi, vals)
