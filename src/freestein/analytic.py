"""Analytic engine: Cauchy transforms, subordination, density recovery.

A :class:`MeasureSpec` names a compactly supported law (atoms, semicircle,
or a grid density).  Every transform goes through one handle,
:class:`MeasureEvaluator`, which computes G(z) = G_base(omega(z)): omega is
the identity for a plain law, and the n-fold and pair subordination
handles supply it from a kernel fixed point, under one residual gate.
Densities come back through Stieltjes inversion with an epsilon ladder.
The moment extractor closes the loop with the cumulant engine of
:mod:`freestein.momentalg`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels, momentalg
from .errors import ConvergenceError, MassRecoveryWarning

EPS_LADDER = (4e-3, 2e-3, 1e-3)
# Lagrange weights for quadratic extrapolation of the ladder to eps = 0
_LADDER_W = (1.0 / 3.0, -2.0, 8.0 / 3.0)
# names the density method in result side-cars; change it when the method changes
DENSITY_METHOD = "stieltjes-eps-ladder"
MASS_WARN_BAND = (0.97, 1.03)
RESIDUAL_ACCEPT = 1e-9
MIN_GRID_POINTS = 64


class GridDensity:
    """Nonnegative density values on a uniform grid over [lo, hi].

    Values in [-1e-12, 0) are clamped to zero at construction; anything
    more negative is rejected.  ``mass`` is the trapezoid integral.
    """

    __slots__ = ("lo", "hi", "values")

    def __init__(self, lo: float, hi: float, values):
        if not hi > lo:
            raise ValueError("need hi > lo")
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("density values must be a 1-d array of length >= 2")
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
    def mass(self) -> float:
        return float(np.trapezoid(self.values, dx=(self.hi - self.lo) / (len(self.values) - 1)))

    @property
    def mass_deficit(self) -> float:
        return abs(1.0 - self.mass)

    def to_csv(self, path) -> None:
        """Write two columns x,density with 17 significant digits."""
        with open(path, "w") as fh:
            fh.write("x,density\n")
            for xi, vi in zip(self.x, self.values):
                fh.write(f"{xi:.17g},{vi:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "GridDensity":
        """Read an ``x,density`` CSV (uniform x, at least 2 rows; blank lines skipped)."""
        xs, vs = [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "x,density":
                raise ValueError(f"unexpected density CSV header: {header!r}")
            for line in fh:
                if not line.strip():
                    continue
                a, b = line.strip().split(",")
                xs.append(float(a))
                vs.append(float(b))
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
        pts = tuple((float(p), float(w)) for p, w in atoms)
        if abs(sum(w for _, w in pts) - 1.0) > 1e-12:
            raise ValueError("atom weights must sum to 1")
        if any(w <= 0 for _, w in pts):
            raise ValueError("atom weights must be positive")
        if len({p for p, _ in pts}) != len(pts):
            raise ValueError("atom positions must be distinct")
        return cls(kind="atomic", atoms=tuple(sorted(pts)))

    @classmethod
    def semicircle(cls, mean: float = 0.0, variance: float = 1.0) -> "MeasureSpec":
        if variance <= 0:
            raise ValueError("semicircle variance must be positive")
        return cls(kind="semicircle", mean=float(mean), variance=float(variance))

    @classmethod
    def from_grid(cls, grid: GridDensity) -> "MeasureSpec":
        if grid.mass_deficit > 1e-6:
            raise ValueError(f"grid density mass {grid.mass} is not 1 (within 1e-6)")
        return cls(kind="grid", grid=grid)

    @classmethod
    def point_mass(cls, c: float) -> "MeasureSpec":
        return cls.atomic([(c, 1.0)])

    def descriptor(self) -> tuple:
        """Flat (kind, c0, c1, xs, ys) encoding consumed by the kernels.

        Atoms give positions and weights (kind 0), a semicircle its mean
        and variance (kind 1).  A grid (kind 2) gives its nodes and its
        values times the trapezoid weights dx * [1/2, 1, ..., 1, 1/2], so
        the kernels sum atoms and grid nodes alike.
        """
        empty = np.empty(0, dtype=float)
        if self.kind == "atomic":
            pos = np.array([p for p, _ in self.atoms], dtype=float)
            wts = np.array([w for _, w in self.atoms], dtype=float)
            return (0, 0.0, 0.0, pos, wts)
        if self.kind == "semicircle":
            return (1, self.mean, self.variance, empty, empty)
        grid = self.grid
        wts = np.full(grid.n_points, (grid.hi - grid.lo) / (grid.n_points - 1))
        wts[[0, -1]] *= 0.5
        return (2, 0.0, 0.0, grid.x, grid.values * wts)

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
        x = self.grid.x
        vals = [
            float(np.trapezoid(x**j * self.grid.values, x)) for j in range(order + 1)
        ]
        vals[0] = 1.0
        return momentalg.MomentSequence(vals, validate=False)


def _as_upper_half(z):
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(arr.imag <= 0):
        raise ValueError("Cauchy transforms are evaluated on the upper half plane")
    return arr


class MeasureEvaluator:
    """Cauchy-transform handle G(z) = G_base(omega(z)).

    For a plain law omega is the identity.  The subordination handles
    below set ``base`` and ``support_radius`` and supply ``_omega`` from a
    kernel solver; all of them share :meth:`cauchy`, the upper-half-plane
    check and the residual gate.
    """

    def __init__(self, base: MeasureSpec):
        self.base = base
        self.support_radius = base.support_radius
        self.peak_iterations = 0

    def omega(self, z):
        """omega(z) as a 1-d array, Im z > 0."""
        return self._omega(_as_upper_half(z))

    def _omega(self, z):
        return z

    def cauchy(self, z):
        arr = _as_upper_half(z)
        out = _kernels.cauchy_vals(self._omega(arr), *self.base.descriptor())
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


def cauchy_transform(mu: MeasureSpec, z):
    """G_mu(z) = integral of 1/(z - x) dmu(x), Im z > 0 (so Im G < 0)."""
    return MeasureEvaluator(mu).cauchy(z)


class NFoldEvaluator(MeasureEvaluator):
    """Handle for G of (D_scale mu)^{boxplus n}.

    For identical summands the n-fold subordination map collapses to the
    single fixed point w -> (z + (n-1) F(w)) / n, with F the reciprocal
    Cauchy transform of the dilated base; G_{nu}(z) = G_base(omega(z)).
    The solver starts from a closed form: the fixed point itself for a
    semicircle or a base of at most two atoms, which then report 0
    iterations, and otherwise the fixed point for the two-atom law with the
    base's first three moments, a few Newton steps from the root.  The
    residual at the returned point is checked against ``RESIDUAL_ACCEPT``
    either way.
    """

    def __init__(self, base: MeasureSpec, n: int, scale: float = 1.0):
        if n < 1:
            raise ValueError("n must be a positive integer")
        super().__init__(base.dilate(scale) if scale != 1.0 else base)
        self.n = int(n)
        self.support_radius = self.n * self.base.support_radius

    def _omega(self, z):
        om, iters, resid = _kernels.nfold_omega(z, *self.base.descriptor(), float(self.n))
        self._accept("n-fold subordination", iters, resid)
        return om


class PairConvolveEvaluator(MeasureEvaluator):
    """Handle for G of a boxplus b via two-measure subordination.

    omega1 is the attracting fixed point of w -> z + h_b(z + h_a(w)) with
    h = 1/G - id; then G_{a boxplus b} = G_a(omega1).
    """

    def __init__(self, a: MeasureSpec, b: MeasureSpec):
        super().__init__(a)
        self.b = b
        self.support_radius = a.support_radius + b.support_radius

    def _omega(self, z):
        om1, _, iters, resid = _kernels.pair_omega(
            z, *self.base.descriptor(), *self.b.descriptor()
        )
        self._accept("subordination", iters, resid)
        return om1


def nfold_convolve(mu: MeasureSpec, n: int, scale: float = 1.0) -> NFoldEvaluator:
    """Cauchy-transform handle for (D_scale mu)^{boxplus n}."""
    return NFoldEvaluator(mu, n, scale)


def ou_semigroup(mu: MeasureSpec, theta: float):
    """Handle for P_theta[mu] = D_{e^-theta}[mu] boxplus D_{sqrt(1-e^-2theta)}[s].

    theta = 0 collapses the semicircle factor to a point mass at 0, so the
    measure is returned unchanged.
    """
    if theta < 0:
        raise ValueError("semigroup time must be nonnegative")
    if theta == 0:
        return MeasureEvaluator(mu)
    decay = math.exp(-theta)
    return PairConvolveEvaluator(
        mu.dilate(decay), MeasureSpec.semicircle(0.0, 1.0 - decay * decay)
    )


def stieltjes_density(evaluator, lo: float, hi: float, n_points: int = 2001) -> GridDensity:
    """Recover a density from -Im G / pi on the epsilon ladder.

    Evaluates at eps in {4e-3, 2e-3, 1e-3}, extrapolates quadratically to
    eps = 0, clamps at zero.  A recovered mass outside [0.97, 1.03] raises
    a :class:`MassRecoveryWarning` (atom in the law, or window too small);
    total-variation distances are refused downstream in that case.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    if n_points < MIN_GRID_POINTS:
        raise ValueError(f"need at least {MIN_GRID_POINTS} grid points")
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
    if order > momentalg.MAX_ORDER:
        raise ValueError(f"moment extraction capped at order {momentalg.MAX_ORDER}")
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
    """Closed-form semicircle density sqrt(4 s^2 - (x-m)^2) / (2 pi s^2)."""
    xs = np.linspace(lo, hi, n_points)
    arg = 4.0 * variance - (xs - mean) ** 2
    vals = np.sqrt(np.clip(arg, 0.0, None)) / (2.0 * math.pi * variance)
    return GridDensity(lo, hi, vals)
