"""Hot numeric kernels: Cauchy transforms and subordination fixed points.

One vectorised numpy backend: each solver iterates all query points at
once under an active-point mask.  ``BACKEND`` names it for provenance
records.  Measures enter as a flat descriptor ``(kind, c0, c1, xs, ys)``:

* kind 1: semicircle -- c0 mean, c1 variance, one closed form
* kind 0: atoms or a grid density -- xs positions or uniform nodes, ys
  weights or values times trapezoid weights

Atoms and grids share one weighted node sum, G(w) = sum ys / (w - xs);
the kernels branch only on ``kind == 1``.

Both solvers run one Newton loop on w = Phi(w), :func:`_solve`, with one
stop test, the tolerance ``TOL``, the step cap ``MAX_ITER`` and one
restart of unsettled points at pass ``RESTART_AT``.  The
n-fold solver starts from one closed form, :func:`_nfold_seed`: the root
itself for a semicircle or at most two atoms, and otherwise the root for
the two-atom law with the same first three moments.  The pair solver
starts from :func:`_pair_seed`, the root for the two semicircles with the
operands' means and variances: the root itself when both operands are
semicircles.  Either start falls back to z where it is not finite or not
above the axis.  Where the start is the root itself, :func:`_solve`
checks it with one evaluation of Phi and returns it, with 0 iterations,
instead of stepping from it; Newton runs only on the points that fail the
check.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"
TOL = 1e-13
MAX_ITER = 10_000
RESTART_AT = 32
# points x nodes entries per block of a node sum
BLOCK_ENTRIES = 2**18


def cauchy_vals(z, kind, c0, c1, xs, ys):
    """G(z) = integral of 1/(z - x) for one descriptor, Im z > 0."""
    if kind == 1:
        return 1.0 / _f_df_vec(1, c0, c1, xs, ys, z, deriv=False)[0]
    return _node_sums(z, xs, ys, deriv=False)[0]


def _node_sums(w, xs, ys, deriv):
    """sum ys / (w - xs) and, if ``deriv``, sum ys / (w - xs)^2 per point (else 0.0).

    The points run in blocks of ``BLOCK_ENTRIES // len(xs)`` (at least
    one), so a grid base holds one block of points x nodes at a time;
    each point's sums are the same in any block.  A base of a few atoms
    is one block, returned as computed.
    """
    step = max(1, BLOCK_ENTRIES // len(xs))
    sums = []
    for lo in range(0, max(len(w), 1), step):
        r = 1.0 / (w[lo : lo + step, None] - xs)
        sums.append((r @ ys, (r * r) @ ys if deriv else 0.0))
    if len(sums) == 1:
        return sums[0]
    g, dg = zip(*sums)
    return np.concatenate(g), np.concatenate(dg) if deriv else 0.0


def _f_df_vec(kind, c0, c1, xs, ys, w, deriv=True):
    """Reciprocal Cauchy transform F = 1/G at w, and F' there (0.0 unless ``deriv``)."""
    if kind == 1:
        u = w - c0
        edge = 2.0 * math.sqrt(c1)
        s = np.sqrt(u - edge) * np.sqrt(u + edge)
        return 0.5 * (u + s), 0.5 * (1.0 + u / s) if deriv else 0.0
    g, dg = _node_sums(w, xs, ys, deriv)
    # F' = -G'/G^2 with G' = -sum ys / (w - xs)^2
    return 1.0 / g, dg / (g * g) if deriv else 0.0


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
        f_nu = _f_df_vec(1, nfold * c0, nfold * c1, xs, ys, z, deriv=False)[0]
        return (z + (nfold - 1.0) * f_nu) / nfold
    mean, var = _mean_var(kind, c0, c1, xs, ys)
    c = mean + (ys @ (xs - mean) ** 3) / var if var > 0.0 else mean
    s2 = (nfold - 1.0) * var
    shifted = z - (nfold - 1.0) * mean
    return shifted - s2 / _f_df_vec(1, c, s2, xs, ys, shifted, deriv=False)[0]


def _mean_var(kind, c0, c1, xs, ys):
    """Mean and variance of a descriptor's law: (c0, c1) for a semicircle."""
    if kind == 1:
        return c0, c1
    mean = ys @ xs
    return mean, ys @ (xs - mean) ** 2


def _pair_seed(z, a, b):
    """Closed-form start for w = z + h_b(z + h_a(w)), with a and b descriptors.

    For a semicircle b of mean m_b and variance v_b, Biane's relation
    omega1 = z - m_b - v_b G(z) holds with G the Cauchy transform of
    a boxplus b.  The seed takes a and b to be the semicircles with the
    operands' means and variances, whose sum is the semicircle of mean
    m_a + m_b and variance v_a + v_b, so
    omega1 = z - m_b - v_b / F_sc(z) in closed form.  Since Im F_sc >= Im z,
    the seed has Im omega1 >= Im z; it is the root itself when both
    operands are semicircles, and z - m_b when b is one atom.
    """
    m_a, v_a = _mean_var(*a)
    m_b, v_b = _mean_var(*b)
    return z - m_b - v_b / _f_df_vec(1, m_a + m_b, v_a + v_b, None, None, z, deriv=False)[0]


def _start(w0, z):
    """w0 where it is finite and above the real axis, z elsewhere."""
    return np.where(np.isfinite(w0) & (w0.imag > 0.0), w0, z)


def _solve(z, w0, phi, exact):
    """Newton's method on w = Phi(w) per point from w0; returns (w, iters, resid).

    ``phi(z, w, deriv)`` returns Phi(w) and Phi'(w) for the given points,
    or Phi(w) and a throw-away constant when ``deriv`` is false.  When
    ``exact`` says that w0 is the root in closed form, Phi alone is
    evaluated there once, and each point that passes the settle test below
    keeps w0 with 0 iterations and no step taken; Newton runs from w0 on the
    points that fail, and on every point when ``exact`` is false.
    Each pass evaluates Phi and Phi' once per active point and steps to
    w - (Phi(w) - w) / (Phi'(w) - 1), or to Phi(w) when that is not finite
    or not in the upper half plane.  A point settles when
    |Phi(w) - w| < ``TOL`` (1 + |w|); it still takes its step, uncounted.
    Newton can fall into a cycle near the real axis, so a point still
    active after ``RESTART_AT`` passes restarts once at w + i (1 + |w|),
    high in the upper half plane, where Phi is nearly affine.  ``resid``
    is |Phi(w) - w| at the returned w, one more evaluation of Phi alone
    per point, so a settled point is judged where it lands.
    """
    w = np.array(w0, dtype=np.complex128)
    iters = np.zeros(len(z), dtype=np.int64)
    active = np.ones(len(z), dtype=bool)
    if exact:
        resid = np.abs(phi(z, w, deriv=False)[0] - w)
        active = ~(resid < TOL * (1.0 + np.abs(w)))  # a NaN residual fails too
        if not active.any():
            return w, iters, resid
    for it in range(MAX_ITER):
        if not active.any():
            break
        if it == RESTART_AT:
            w[active] += 1j * (1.0 + np.abs(w[active]))
        wa = w[active]
        mapped, dmapped = phi(z[active], wa, deriv=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = wa - (mapped - wa) / (dmapped - 1.0)
        w[active] = np.where(np.isfinite(newton) & (newton.imag > 0.0), newton, mapped)
        settled = np.abs(mapped - wa) < TOL * (1.0 + np.abs(wa))
        iters[active] += ~settled
        active[active] = ~settled
    return w, iters, np.abs(phi(z, w, deriv=False)[0] - w)


def nfold_omega(z, kind, c0, c1, xs, ys, nfold):
    """Solve n*w - (n-1) F(w) = z per point; returns (omega, iters, resid)."""

    def phi(zs, w, deriv):
        f, df = _f_df_vec(kind, c0, c1, xs, ys, w, deriv)
        return (zs + (nfold - 1.0) * f) / nfold, (nfold - 1.0) / nfold * df

    w0 = _start(_nfold_seed(z, kind, c0, c1, xs, ys, nfold), z)
    return _solve(z, w0, phi, kind == 1 or len(xs) <= 2)


def pair_omega(z, ka, a0, a1, axs, ays, kb, b0, b1, bxs, bys):
    """Solve w = z + h_b(z + h_a(w)), h = F - id, per point.

    Returns (omega1, omega2, iterations, residual); omega1 feeds G_a,
    omega2 = z + h_a(omega1) feeds G_b.  Newton starts from
    :func:`_pair_seed`.
    """

    def phi(zs, w, deriv):
        fa, dfa = _f_df_vec(ka, a0, a1, axs, ays, w, deriv)
        inner = zs + fa - w
        fb, dfb = _f_df_vec(kb, b0, b1, bxs, bys, inner, deriv)
        return zs + fb - inner, (dfb - 1.0) * (dfa - 1.0)

    w0 = _pair_seed(z, (ka, a0, a1, axs, ays), (kb, b0, b1, bxs, bys))
    w, iters, resid = _solve(z, _start(w0, z), phi, ka == 1 and kb == 1)
    inner = z + _f_df_vec(ka, a0, a1, axs, ays, w, deriv=False)[0] - w
    return w, inner, iters, resid
