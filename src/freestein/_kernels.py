"""Hot numeric kernels: Cauchy transforms and subordination fixed points.

One vectorised numpy backend: each solver iterates all query points at
once under an active-point mask.  ``BACKEND`` names it for provenance
records.  Measures enter as a flat descriptor ``(kind, c0, c1, xs, ys)``:

* kind 0: atomic       -- xs positions, ys weights
* kind 1: semicircle   -- c0 mean, c1 variance
* kind 2: grid density -- xs uniform nodes, ys values times trapezoid weights

Atoms and grids share one weighted node sum, G(w) = sum ys / (w - xs),
so kind 2 differs from kind 0 only as a label (grids are never seeded).

Both solvers run one loop, :func:`_solve`: a short Picard warmup and then
safeguarded Newton steps on w = Phi(w); plain Picard stalls near spectral
edges, where Phi'(w) approaches 1.  A Newton candidate leaving the upper
half plane falls back to the Picard step.  From iteration ``_DAMP_AFTER``
on, every Picard step is damped by 0.5.

The n-fold solver starts from the exact fixed point where it has a closed
form (semicircle, one or two atoms, see :func:`_nfold_seed`) and from
w = z otherwise.  The loop still checks every point, so an exact seed
settles at the first check and reports 0 iterations.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"
DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 10_000
_PICARD_WARMUP = 8
_DAMP_AFTER = 1_000


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
    """Closed-form root of n*w - (n-1) F(w) = z in the upper half plane.

    A holomorphic self-map of the upper half plane has at most one fixed
    point there, so any upper root is omega(z).  For a semicircle,
    omega = (z + (n-1) F_nu(z)) / n with nu the n-fold semicircle.  A law
    of at most two atoms has F(w) = w - m - v / (w - c), with m its mean,
    v its variance and c = a + b - m, so u = omega - c solves
    u^2 - zeta u + (n-1) v = 0 with zeta = z - (n-1) m - c: u is the
    reciprocal Cauchy transform of the semicircle of variance (n-1) v.
    Written as omega = z - (n-1) m - (n-1) v / F_sc(zeta), the seed has
    Im omega >= Im z with no cancellation, and equals z at n = 1.  Other
    descriptors, and any non-finite or non-upper seed, start from w = z.
    """
    if kind == 1:
        f_nu = _f_df_vec(1, nfold * c0, nfold * c1, xs, ys, z)[0]
        w = (z + (nfold - 1.0) * f_nu) / nfold
    elif kind == 0 and len(xs) <= 2:
        mean = ys @ xs
        s2 = (nfold - 1.0) * (ys @ (xs - mean) ** 2)
        shifted = z - (nfold - 1.0) * mean
        w = shifted - s2 / _f_df_vec(1, xs.sum() - mean, s2, xs, ys, shifted)[0]
    else:
        return np.array(z, dtype=np.complex128)
    return np.where(np.isfinite(w) & (w.imag > 0.0), w, z)


def _solve(z, w0, phi, tol, max_iter):
    """Iterate w = Phi(w) per point from w0; returns (w, iters, resid).

    ``phi(z, w)`` returns Phi(w) and Phi'(w) for the given points.  The
    Newton candidate is w - (Phi(w) - w) / (Phi'(w) - 1) and the residual
    is |Phi(w) - w| at the returned w.
    """
    w = np.array(w0, dtype=np.complex128)
    iters = np.zeros(len(z), dtype=np.int64)
    active = np.ones(len(z), dtype=bool)
    it = 0
    while active.any() and it < max_iter:
        wa = w[active]
        mapped, dmapped = phi(z[active], wa)
        settled = np.abs(mapped - wa) < tol * (1.0 + np.abs(wa))
        picard = mapped
        if it >= _DAMP_AFTER:
            picard = 0.5 * (picard + wa)
        w_new = picard
        if it >= _PICARD_WARMUP:
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = wa - (mapped - wa) / (dmapped - 1.0)
            ok = np.isfinite(cand) & (cand.imag > 0.0)
            w_new = np.where(ok, cand, picard)
        w_new = np.where(settled, wa, w_new)
        delta = np.abs(w_new - wa)
        w[active] = w_new
        iters[active] += ~settled
        active[active] = ~settled & (delta >= tol * (1.0 + np.abs(w_new)))
        it += 1
    return w, iters, np.abs(phi(z, w)[0] - w)


def nfold_omega(z, kind, c0, c1, xs, ys, nfold, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve n*w - (n-1) F(w) = z per point; returns (omega, iters, resid)."""

    def phi(zs, w):
        f, df = _f_df_vec(kind, c0, c1, xs, ys, w)
        return (zs + (nfold - 1.0) * f) / nfold, (nfold - 1.0) / nfold * df

    w0 = _nfold_seed(z, kind, c0, c1, xs, ys, nfold)
    return _solve(z, w0, phi, tol, max_iter)


def pair_omega(
    z, ka, a0, a1, axs, ays, kb, b0, b1, bxs, bys, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER
):
    """Solve w = z + h_b(z + h_a(w)), h = F - id, per point.

    Returns (omega1, omega2, iterations, residual); omega1 feeds G_a,
    omega2 = z + h_a(omega1) feeds G_b.
    """

    def phi(zs, w):
        fa, dfa = _f_df_vec(ka, a0, a1, axs, ays, w)
        inner = zs + fa - w
        fb, dfb = _f_df_vec(kb, b0, b1, bxs, bys, inner)
        return zs + fb - inner, (dfb - 1.0) * (dfa - 1.0)

    w, iters, resid = _solve(z, z, phi, tol, max_iter)
    inner = z + _f_df_vec(ka, a0, a1, axs, ays, w)[0] - w
    return w, inner, iters, resid
