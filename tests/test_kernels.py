"""Numpy kernels against scalar loop oracles and companion-matrix roots, and
the n-fold seeds."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freestein import _kernels
from freestein.analytic import RESIDUAL_ACCEPT, GridDensity, MeasureSpec

BERN = MeasureSpec.atomic([(-1.0, 0.5), (1.0, 0.5)])
SEMI = MeasureSpec.semicircle(0.0, 1.0)
GRID_Z = (np.linspace(-3, 3, 257) + 1j * 1e-3).astype(complex)
HIGH_Z = (np.linspace(-3, 3, 31) + 2j).astype(complex)
_NODES = np.linspace(-2.0, 2.0, 33)
_ARC = np.sqrt(4.0 - _NODES**2)
SEMI_GRID = MeasureSpec.from_grid(GridDensity(-2.0, 2.0, _ARC / np.trapezoid(_ARC, _NODES)))
# nonzero end values, so the half end weights of the trapezoid rule count
FLAT_GRID = MeasureSpec.from_grid(GridDensity(-1.0, 1.0, np.full(17, 0.5)))
# laws whose n-fold seed is not the root: it is the root for the two-atom
# law with their first three moments; the others start at the exact root
INEXACT_SEED = ("three-atom", "grid")
NFOLD_LAWS = {
    "one-atom": MeasureSpec.point_mass(0.3),
    "bernoulli": BERN,
    "skewed": MeasureSpec.atomic([(2.0, 0.2), (-0.5, 0.8)]),
    "three-atom": MeasureSpec.atomic([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]),
    "semicircle": SEMI,
    "grid": SEMI_GRID,
}
# the loop oracles take Picard steps before any Newton step, warm-start
# from the previous point and, since a warm start can land in a slow basin,
# retry cold once from w = z
_WARMUP = 8
_RESTART_AT = 256


def _oracle_desc(mu):
    """Descriptor for the scalar oracles: a grid keeps its raw values, since
    the oracle applies the trapezoid rule itself."""
    if mu.kind == "grid":
        return (2, 0.0, 0.0, mu.grid.x, np.asarray(mu.grid.values))
    return mu.descriptor()


# ---------------------------------------------------------------------------
# scalar loop oracles: one point at a time, plain Python arithmetic
# ---------------------------------------------------------------------------

def _f_df_scalar(kind, c0, c1, xs, ys, w):
    """Reciprocal Cauchy transform F = 1/G and its derivative at w."""
    if kind == 1:
        u = w - c0
        edge = 2.0 * math.sqrt(c1)
        s = cmath.sqrt(u - edge) * cmath.sqrt(u + edge)
        return 0.5 * (u + s), 0.5 * (1.0 + u / s)
    if kind == 0:
        g = 0.0 + 0.0j
        dg = 0.0 + 0.0j
        for i in range(xs.shape[0]):
            r = 1.0 / (w - xs[i])
            g += ys[i] * r
            dg -= ys[i] * r * r
        return 1.0 / g, -dg / (g * g)
    n = xs.shape[0]
    dx = (xs[n - 1] - xs[0]) / (n - 1)
    r0 = 1.0 / (w - xs[0])
    rn = 1.0 / (w - xs[n - 1])
    g = 0.5 * (ys[0] * r0 + ys[n - 1] * rn)
    dg = -0.5 * (ys[0] * r0 * r0 + ys[n - 1] * rn * rn)
    for i in range(1, n - 1):
        r = 1.0 / (w - xs[i])
        g += ys[i] * r
        dg -= ys[i] * r * r
    g *= dx
    dg *= dx
    return 1.0 / g, -dg / (g * g)


def _nfold_omega_loop(z, kind, c0, c1, xs, ys, nfold, tol, max_iter, damp_after):
    """Solve n*w - (n-1) F(w) = z per point; returns (omega, iters, resid)."""
    m = z.shape[0]
    omega = np.empty(m, np.complex128)
    iters = np.empty(m, np.int64)
    resid = np.empty(m, np.float64)
    w_prev = 0.0 + 0.0j
    z_prev = 0.0 + 0.0j
    have_prev = False
    for i in range(m):
        zi = z[i]
        w = w_prev + (zi - z_prev) if have_prev else zi
        if w.imag <= 0.0:
            w = zi
        it = 0
        since = 0
        while it < max_iter:
            f, df = _f_df_scalar(kind, c0, c1, xs, ys, w)
            mapped = (zi + (nfold - 1.0) * f) / nfold
            if abs(mapped - w) < tol * (1.0 + abs(w)):
                break
            picard = mapped
            if it >= damp_after:
                picard = 0.5 * (picard + w)
            w_new = picard
            if since >= _WARMUP:
                denom = nfold - (nfold - 1.0) * df
                if abs(denom) > 1e-300:
                    cand = w - (nfold * w - (nfold - 1.0) * f - zi) / denom
                    if cand.imag > 0.0:
                        w_new = cand
            delta = abs(w_new - w)
            w = w_new
            it += 1
            since += 1
            if delta < tol * (1.0 + abs(w)):
                break
            if it == _RESTART_AT and have_prev:
                w = zi
                since = 0
        f, df = _f_df_scalar(kind, c0, c1, xs, ys, w)
        resid[i] = abs((zi + (nfold - 1.0) * f) / nfold - w)
        omega[i] = w
        iters[i] = it
        w_prev = w
        z_prev = zi
        have_prev = True
    return omega, iters, resid


def _pair_omega_loop(
    z, ka, a0, a1, axs, ays, kb, b0, b1, bxs, bys, tol, max_iter, damp_after
):
    """Solve w = z + h_b(z + h_a(w)), h = F - id, per point.

    Returns (omega1, omega2, iterations, residual).
    """
    m = z.shape[0]
    om1 = np.empty(m, np.complex128)
    om2 = np.empty(m, np.complex128)
    iters = np.empty(m, np.int64)
    resid = np.empty(m, np.float64)
    w_prev = 0.0 + 0.0j
    z_prev = 0.0 + 0.0j
    have_prev = False
    for i in range(m):
        zi = z[i]
        w = w_prev + (zi - z_prev) if have_prev else zi
        if w.imag <= 0.0:
            w = zi
        it = 0
        since = 0
        inner = zi
        while it < max_iter:
            fa, dfa = _f_df_scalar(ka, a0, a1, axs, ays, w)
            inner = zi + fa - w
            fb, dfb = _f_df_scalar(kb, b0, b1, bxs, bys, inner)
            mapped = zi + fb - inner
            if abs(mapped - w) < tol * (1.0 + abs(w)):
                break
            picard = mapped
            if it >= damp_after:
                picard = 0.5 * (picard + w)
            w_new = picard
            if since >= _WARMUP:
                dpsi = (dfb - 1.0) * (dfa - 1.0) - 1.0
                if abs(dpsi) > 1e-300:
                    cand = w - (mapped - w) / dpsi
                    if cand.imag > 0.0:
                        w_new = cand
            delta = abs(w_new - w)
            w = w_new
            it += 1
            since += 1
            if delta < tol * (1.0 + abs(w)):
                break
            if it == _RESTART_AT and have_prev:
                w = zi
                since = 0
        fa, dfa = _f_df_scalar(ka, a0, a1, axs, ays, w)
        inner = zi + fa - w
        fb, dfb = _f_df_scalar(kb, b0, b1, bxs, bys, inner)
        resid[i] = abs(zi + fb - inner - w)
        om1[i] = w
        om2[i] = inner
        iters[i] = it
        w_prev = w
        z_prev = zi
        have_prev = True
    return om1, om2, iters, resid


def _companion_root(z, xs, ys, nfold):
    """Upper root of P(w) = (n w - z) N(w) - (n-1) D(w) per point, G = N / D.

    P / D = (n w - z) G(w) - (n-1) = L (1 + sum_i c_i / (w - xs_i)), with
    L = n sum(ys) - (n-1) and c_i = ys_i (n xs_i - z) / L, so P / L is the
    characteristic polynomial of diag(xs) - c 1^T: the companion matrix of
    P in the Lagrange basis on xs.  (The monomial-basis companion matrix
    loses the root among the 33 clustered nodes of a dilated grid.)  The
    eigenvalue of largest imaginary part is polished by two Newton steps on
    n w - (n-1) F(w) - z.
    """
    lead = nfold * ys.sum() - (nfold - 1.0)
    out = np.empty(len(z), np.complex128)
    for i, zi in enumerate(z):
        c = ys * (nfold * xs - zi) / lead
        roots = np.linalg.eigvals(np.diag(xs.astype(complex)) - c[:, None])
        w = roots[np.argmax(roots.imag)]
        for _ in range(2):
            r = 1.0 / (w - xs)
            g = r @ ys
            dh = nfold - (nfold - 1.0) * ((r * r) @ ys) / (g * g)
            w -= (nfold * w - (nfold - 1.0) / g - zi) / dh
        out[i] = w
    return out


# ---------------------------------------------------------------------------
# kernels against the oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z", [GRID_Z, HIGH_Z], ids=["near-axis", "high"])
@pytest.mark.parametrize(
    "mu", [BERN, SEMI, SEMI_GRID, FLAT_GRID], ids=["atomic", "semicircle", "grid", "flat-grid"]
)
def test_cauchy_backends_agree(mu, z):
    active = _kernels.cauchy_vals(z, *mu.descriptor())
    reference = np.array([1.0 / _f_df_scalar(*_oracle_desc(mu), zi)[0] for zi in z])
    assert np.abs(active - reference).max() < 1e-13


@pytest.mark.parametrize("z", [GRID_Z, HIGH_Z], ids=["near-axis", "high"])
@pytest.mark.parametrize("n", [1, 2, 16, 128, 4096])
@pytest.mark.parametrize("law", list(NFOLD_LAWS))
def test_nfold_matches_loop_oracle(law, n, z):
    mu = NFOLD_LAWS[law].dilate(1.0 / math.sqrt(n))
    desc = mu.descriptor()
    om, iters, res = _kernels.nfold_omega(z, *desc, float(n))
    om_ref, _, res_ref = _nfold_omega_loop(z, *_oracle_desc(mu), float(n), 1e-13, 10_000, 1_000)
    assert res_ref.max() < 1e-10
    assert res.max() <= 1e-12
    # the oracle stops about n * tol short of the root, so compare transforms
    g = _kernels.cauchy_vals(om, *desc)
    g_ref = _kernels.cauchy_vals(om_ref, *desc)
    assert np.abs(g - g_ref).max() <= 1e-8
    if law not in INEXACT_SEED:
        assert iters.max() == 0  # the exact seed settles at the first check
    if n == 1:
        assert np.all(np.abs(om - z) <= 1e-12 * (1.0 + np.abs(z)))


@pytest.mark.parametrize("n", [16, 512, 4096])
@pytest.mark.parametrize("law", INEXACT_SEED)
def test_nfold_matches_companion_root(law, n):
    # the three-moment seed and the Newton loop reach the root itself, not
    # a point about n * tol short of it, in a few steps for every n
    desc = NFOLD_LAWS[law].dilate(1.0 / math.sqrt(n)).descriptor()
    om, iters, _ = _kernels.nfold_omega(GRID_Z, *desc, float(n))
    ref = _companion_root(GRID_Z, desc[3], desc[4], float(n))
    assert np.all(np.abs(om - ref) <= 1e-10 * (1.0 + np.abs(ref)))
    assert iters.max() <= 12


def test_pair_matches_loop_oracle():
    # atoms with a semicircle, then a grid with atoms: the shared loop runs
    # on every F/F' branch through this solver too
    for da, db in [(BERN.dilate(0.7), SEMI.dilate(0.5)), (SEMI_GRID.dilate(0.7), BERN.dilate(0.5))]:
        o1, o2, _, _ = _kernels.pair_omega(GRID_Z, *da.descriptor(), *db.descriptor())
        o1_ref, o2_ref, _, _ = _pair_omega_loop(
            GRID_Z, *_oracle_desc(da), *_oracle_desc(db), 1e-13, 10_000, 1_000
        )
        assert np.abs(o1 - o1_ref).max() < 1e-10, da.kind
        # omega2 = z + h_a(omega1) amplifies last-ulp omega1 differences by
        # |F_a'| near spectral edges; the transform values are what must match
        assert np.abs(o2 - o2_ref).max() < 1e-7, da.kind
        g = _kernels.cauchy_vals(o1, *da.descriptor())
        g_ref = _kernels.cauchy_vals(o1_ref, *da.descriptor())
        assert np.abs(g - g_ref).max() < 1e-10, da.kind


def test_residual_is_measured_at_the_returned_point(monkeypatch):
    # cut short after two steps, both solvers report |Phi(w) - w| at the w
    # they return
    monkeypatch.setattr(_kernels, "MAX_ITER", 2)
    mu = NFOLD_LAWS["three-atom"].dilate(0.25)
    om, _, res = _kernels.nfold_omega(GRID_Z, *mu.descriptor(), 16.0)
    f = np.array([_f_df_scalar(*_oracle_desc(mu), w)[0] for w in om])
    np.testing.assert_allclose(res, np.abs((GRID_Z + 15.0 * f) / 16.0 - om), rtol=1e-9, atol=1e-12)
    assert res.max() > 1e-6
    da, db = SEMI_GRID.dilate(0.7), BERN.dilate(0.5)
    o1, o2, _, res = _kernels.pair_omega(GRID_Z, *da.descriptor(), *db.descriptor())
    fb = np.array([_f_df_scalar(*_oracle_desc(db), w)[0] for w in o2])
    np.testing.assert_allclose(res, np.abs(GRID_Z + fb - o2 - o1), rtol=1e-9, atol=1e-12)
    assert res.max() > 1e-6


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-10.0, 10.0),
    gap=st.floats(1e-3, 20.0),
    pa=st.floats(1e-3, 1.0 - 1e-3),
    n=st.integers(1, 10_000),
    dilated=st.booleans(),
    x=st.floats(-30.0, 30.0),
    y=st.floats(1e-4, 10.0),
)
def test_two_atom_seed_is_the_upper_root(a, gap, pa, n, dilated, x, y):
    mu = MeasureSpec.atomic([(a, pa), (a + gap, 1.0 - pa)])
    if dilated:
        mu = mu.dilate(1.0 / math.sqrt(n))
    desc = mu.descriptor()
    z = complex(x, y)
    w = complex(_kernels._nfold_seed(np.array([z]), *desc, float(n))[0])
    # the true subordination function satisfies Im omega >= Im z
    assert w.imag >= z.imag
    f, _ = _f_df_scalar(*desc, w)
    assert abs(n * w - (n - 1) * f - z) <= 1e-12 * n * (1.0 + abs(w))


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-10.0, 10.0),
    gaps=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=5),
    weights=st.lists(st.floats(1e-3, 1.0), min_size=6, max_size=6),
    n=st.integers(1, 10_000),
    dilated=st.booleans(),
    x=st.floats(-30.0, 30.0),
    y=st.floats(1e-4, 10.0),
)
# undilated, |omega| ~ 1e4: the settle test tol * (1 + |w|) is looser than
# the absolute gate there, so the residual must be the one at the returned w
@example(
    a=-4.5,
    gaps=[2.0, 7.0, 1.0, 3.0, 5.0],
    weights=[0.5, 0.5, 1.0, 1.0, 1.0, 1.0],
    n=1834,
    dilated=False,
    x=1.0,
    y=1.0,
)
# at n = 3 near the axis, Newton from the seed falls into a cycle that only
# the restart leaves
@example(
    a=-1.7236688439479286,
    gaps=[0.7221788530861628, 2.137476898874184, 0.3627319172506036],
    weights=[0.1312503539057954, 0.7028812495682242, 0.01049938799087407,
             0.15536900853510624, 1.0, 1.0],
    n=3,
    dilated=False,
    x=-3.375,
    y=1e-3,
)
def test_seed_is_upper_and_the_solve_settles(a, gaps, weights, n, dilated, x, y):
    # three to six atoms: the seed is a finite point no lower than z, and the
    # loop from it passes the residual gate
    pos = a + np.cumsum([0.0, *gaps])
    pw = np.array(weights[: len(pos)])
    mu = MeasureSpec.atomic(zip(pos, pw / pw.sum()))
    desc = (mu.dilate(1.0 / math.sqrt(n)) if dilated else mu).descriptor()
    z = np.array([complex(x, y)])
    w0 = _kernels._nfold_seed(z, *desc, float(n))
    assert np.all(np.isfinite(w0))
    assert np.all(w0.imag >= z.imag)
    _, iters, res = _kernels.nfold_omega(z, *desc, float(n))
    assert res.max() <= RESIDUAL_ACCEPT
    assert iters.max() < _kernels.MAX_ITER
