"""Hot numeric kernels: Cauchy transforms and subordination fixed points.

One vectorised numpy backend: each solver iterates all query points at
once under an active-point mask.  ``BACKEND`` names it for provenance
records.  Measures enter as a flat descriptor ``(kind, c0, c1, xs, ys)``:

* kind 0: atomic       -- xs positions, ys weights
* kind 1: semicircle   -- c0 mean, c1 variance
* kind 2: grid density -- xs uniform nodes, ys values times trapezoid weights

Atoms and grids share one weighted node sum, G(w) = sum ys / (w - xs),
so kind 2 differs from kind 0 only as a label.

Both solvers run one Newton loop on w = Phi(w), :func:`_solve`, with one
stop test, the tolerance ``TOL``, the step cap ``MAX_ITER`` and one
restart of unsettled points at pass ``RESTART_AT``.  The
n-fold solver starts from one closed form, :func:`_nfold_seed`: the root
itself for a semicircle or at most two atoms, which settles at the first
check and reports 0 iterations, and otherwise the root for the two-atom
law with the same first three moments.  The pair solver starts at w = z.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"
TOL = 1e-13
MAX_ITER = 10_000
RESTART_AT = 32


def cauchy_vals(z, kind, c0, c1, xs, ys):
    """G(z) = integral of 1/(z - x) for one descriptor, Im z > 0."""
    if kind == 1:
        u = z - c0
        edge = 2.0 * math.sqrt(c1)
        s = np.sqrt(u - edge) * np.sqrt(u + edge)
        return 2.0 / (u + s)
    return (1.0 / (z[:, None] - xs)) @ ys


def _f_df_vec(kind, c0, c1, xs, ys, w):
    """Reciprocal Cauchy transform F = 1/G and its derivative at w."""
    if kind == 1:
        u = w - c0
        edge = 2.0 * math.sqrt(c1)
        s = np.sqrt(u - edge) * np.sqrt(u + edge)
        return 0.5 * (u + s), 0.5 * (1.0 + u / s)
    r = 1.0 / (w[:, None] - xs)
    g = r @ ys
    # F' = -G'/G^2 with G' = -sum ys r^2
    return 1.0 / g, ((r * r) @ ys) / (g * g)


def _nfold_seed(z, kind, c0, c1, xs, ys, nfold):
    """Closed-form start for n*w - (n-1) F(w) = z in the upper half plane.

    A holomorphic self-map of the upper half plane has at most one fixed
    point there, so any upper root is omega(z).  For a semicircle,
    omega = (z + (n-1) F_nu(z)) / n with nu the n-fold semicircle.  Atoms
    and grids stand in for the law of at most two atoms with the same mean
    m, variance v and third central moment m_3, whose F(w) is
    w - m - v / (w - c) with c = m + m_3 / v (c = m when v = 0).  So
    u = omega - c solves u^2 - zeta u + (n-1) v = 0 with
    zeta = z - (n-1) m - c: u is the reciprocal Cauchy transform of the
    semicircle of variance (n-1) v.  Written as
    omega = z - (n-1) m - (n-1) v / F_sc(zeta), the seed has
    Im omega >= Im z with no cancellation, equals z at n = 1, and is the
    root itself for a semicircle or at most two atoms.
    """
    if kind == 1:
        f_nu = _f_df_vec(1, nfold * c0, nfold * c1, xs, ys, z)[0]
        return (z + (nfold - 1.0) * f_nu) / nfold
    mean = ys @ xs
    dev = xs - mean
    var = ys @ dev**2
    c = mean + (ys @ dev**3) / var if var > 0.0 else mean
    s2 = (nfold - 1.0) * var
    shifted = z - (nfold - 1.0) * mean
    return shifted - s2 / _f_df_vec(1, c, s2, xs, ys, shifted)[0]


def _solve(z, w0, phi):
    """Newton's method on w = Phi(w) per point from w0; returns (w, iters, resid).

    ``phi(z, w)`` returns Phi(w) and Phi'(w) for the given points.  Each
    pass evaluates them once per active point and steps to
    w - (Phi(w) - w) / (Phi'(w) - 1), or to Phi(w) when that is not finite
    or not in the upper half plane.  A point settles when
    |Phi(w) - w| < ``TOL`` (1 + |w|); it still takes its step, uncounted.
    Newton can fall into a cycle near the real axis, so a point still
    active after ``RESTART_AT`` passes restarts once at w + i (1 + |w|),
    high in the upper half plane, where Phi is nearly affine.  ``resid``
    is |Phi(w) - w| at the returned w, one more evaluation per point, so
    a settled point is judged where it lands.
    """
    w = np.array(w0, dtype=np.complex128)
    iters = np.zeros(len(z), dtype=np.int64)
    active = np.ones(len(z), dtype=bool)
    for it in range(MAX_ITER):
        if not active.any():
            break
        if it == RESTART_AT:
            w[active] += 1j * (1.0 + np.abs(w[active]))
        wa = w[active]
        mapped, dmapped = phi(z[active], wa)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = wa - (mapped - wa) / (dmapped - 1.0)
        w[active] = np.where(np.isfinite(newton) & (newton.imag > 0.0), newton, mapped)
        settled = np.abs(mapped - wa) < TOL * (1.0 + np.abs(wa))
        iters[active] += ~settled
        active[active] = ~settled
    return w, iters, np.abs(phi(z, w)[0] - w)


def nfold_omega(z, kind, c0, c1, xs, ys, nfold):
    """Solve n*w - (n-1) F(w) = z per point; returns (omega, iters, resid)."""

    def phi(zs, w):
        f, df = _f_df_vec(kind, c0, c1, xs, ys, w)
        return (zs + (nfold - 1.0) * f) / nfold, (nfold - 1.0) / nfold * df

    w0 = _nfold_seed(z, kind, c0, c1, xs, ys, nfold)
    return _solve(z, np.where(np.isfinite(w0) & (w0.imag > 0.0), w0, z), phi)


def pair_omega(z, ka, a0, a1, axs, ays, kb, b0, b1, bxs, bys):
    """Solve w = z + h_b(z + h_a(w)), h = F - id, per point.

    Returns (omega1, omega2, iterations, residual); omega1 feeds G_a,
    omega2 = z + h_a(omega1) feeds G_b.
    """

    def phi(zs, w):
        fa, dfa = _f_df_vec(ka, a0, a1, axs, ays, w)
        inner = zs + fa - w
        fb, dfb = _f_df_vec(kb, b0, b1, bxs, bys, inner)
        return zs + fb - inner, (dfb - 1.0) * (dfa - 1.0)

    w, iters, resid = _solve(z, z, phi)
    inner = z + _f_df_vec(ka, a0, a1, axs, ays, w)[0] - w
    return w, inner, iters, resid
