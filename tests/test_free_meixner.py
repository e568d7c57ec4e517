"""The free Meixner closed form against the n-fold handle, Kesten-McKay and the
exact stack."""

import math
from fractions import Fraction

import numpy as np
import pytest

import free_meixner as fm
import kesten_mckay as km
from freestein import analytic as an
from freestein import momentalg as ma

# Bernoulli, the skewed law of the rate experiments, and the battery's two-atom law
LAWS = {
    "bernoulli": [(-1.0, 0.5), (1.0, 0.5)],
    "skewed": [(2.0, 0.2), (-0.5, 0.8)],
    "battery": [(1.5, 4 / 13), (-2 / 3, 9 / 13)],
}
NS = [2, 3, 8, 64, 4096, 10**6]


@pytest.mark.parametrize("height, tol", [(1e-3, 1e-12), (1.0, 1e-13)])
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("law", LAWS)
def test_nfold_handle_matches_the_closed_form(law, n, height, tol):
    atoms = LAWS[law]
    a = sum(w * x**3 for x, w in atoms)
    z = np.linspace(-3.0, 3.0, 2001) + 1j * height
    want = fm.cauchy(z, n, a)
    got = an.nfold_convolve(an.MeasureSpec.atomic(atoms), n, 1.0 / math.sqrt(n)).cauchy(z)
    assert (np.abs(got - want) / np.abs(want)).max() <= tol


@pytest.mark.parametrize("height", [1e-3, 1.0])
@pytest.mark.parametrize("n", NS)
def test_zero_skewness_is_kesten_mckay(n, height):
    # at n = 2 each form rounds the arcsine edges +-sqrt(2) its own way, and the
    # inverse square root there turns that into 7e-14 at height 1e-3
    tol = 1e-13 if (n, height) == (2, 1e-3) else 1e-14
    z = np.linspace(-3.0, 3.0, 2001) + 1j * height
    want = km.cauchy(z, n)
    assert (np.abs(fm.cauchy(z, n, 0.0) - want) / np.abs(want)).max() <= tol


def jacobi_moments(alphas, betas, order: int) -> list:
    """m_0..m_order of the law with Jacobi parameters alpha_0, alpha_1, ... and
    beta_1, beta_2, ...: m_k = (J^k)_{00}, J tridiagonal with alpha_j on the
    diagonal, 1 above it and beta_{j+1} below it, exact in the entries' type."""
    v = [Fraction(1)] + [Fraction(0)] * (order // 2 + 1)
    moments = [v[0]]
    for _ in range(order):
        v = [
            alphas[j] * v[j]
            + (v[j + 1] if j + 1 < len(v) else 0)
            + (betas[j - 1] * v[j - 1] if j else 0)
            for j in range(len(v))
        ]
        moments.append(v[0])
    return moments


@pytest.mark.parametrize("root_n", [2, 3, 4])
def test_jacobi_parameters_give_the_free_cumulants_exactly(root_n):
    # kappa_j(nu_n) = n^{1 - j/2} kappa_j(mu) for mu = {(2, 1/5), (-1/2, 4/5)}, whose m_3 is a
    order, n = 12, root_n * root_n
    atoms = [(Fraction(2), Fraction(1, 5)), (Fraction(-1, 2), Fraction(4, 5))]
    mu = [sum(w * x**j for x, w in atoms) for j in range(order + 1)]
    a = mu[3]
    assert a == Fraction(3, 2)
    alphas = [Fraction(0)] + [a / root_n] * order
    betas = [Fraction(1)] + [1 - Fraction(1, n)] * order
    nu = jacobi_moments(alphas, betas, order)
    got = ma.moments_to_cumulants(ma.MomentSequence(nu, validate=False))
    kappa = ma.moments_to_cumulants(ma.MomentSequence(mu, validate=False))
    for j in range(1, order + 1):
        assert got[j] == Fraction(root_n) ** (2 - j) * kappa[j], j


def kappa_3(atoms) -> float:
    return sum(w * x**3 for x, w in atoms)


# with the skewed law reflected, whose atom lies on the positive side
ALL_LAWS = {**LAWS, "mirrored": [(-2.0, 0.2), (0.5, 0.8)]}
ATOM_NS = [2, 3, 4, 5, 8, 64, 4096, 10**6]
WITH_ATOM = [
    pytest.param(atoms, n, id=f"{name}-{n}")
    for name, atoms in ALL_LAWS.items()
    for n in ATOM_NS
    if fm.atom(n, kappa_3(atoms)) is not None
]


@pytest.mark.parametrize("n", ATOM_NS)
@pytest.mark.parametrize("atoms", ALL_LAWS.values(), ids=ALL_LAWS.keys())
def test_density_and_atom_make_the_whole_law(atoms, n):
    # x = c + r cos(theta) turns the continuous part into a smooth periodic
    # integrand in theta, where the midpoint rule converges geometrically
    a = kappa_3(atoms)
    lo, hi = fm.edges(n, a)
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    theta = (np.arange(4096) + 0.5) * math.pi / 4096
    x = c + r * np.cos(theta)
    wts = fm.density(x, n, a) * r * np.sin(theta) * (math.pi / 4096)
    moments = [wts @ x**j for j in range(4)]
    if (found := fm.atom(n, a)) is not None:
        loc, mass = found
        moments = [m + mass * loc**j for j, m in enumerate(moments)]
    assert moments == pytest.approx([1.0, 0.0, 1.0, a / math.sqrt(n)], abs=1e-12)


@pytest.mark.parametrize("law, sign", [("skewed", -1.0), ("mirrored", 1.0)])
def test_atom_mass_falls_by_p_per_summand(law, sign):
    # p = 1/5 and b = -1/2 (+1/2 reflected): the atom of nu_n sits at -+sqrt(n)/2
    # with mass 1 - n/5
    a = kappa_3(ALL_LAWS[law])
    for n, mass in [(2, 0.6), (3, 0.4), (4, 0.2)]:
        loc, got = fm.atom(n, a)
        assert loc == pytest.approx(sign * math.sqrt(n) / 2.0, rel=1e-15)
        assert got == pytest.approx(mass, abs=1e-15)
    assert [fm.atom(n, a) for n in [*range(5, 13), 64, 4096, 10**6]] == [None] * 11


@pytest.mark.parametrize("atoms, n", WITH_ATOM)
def test_atom_mass_is_the_pole_of_g(atoms, n):
    # G(x0 + i eps) = mass / (i eps) + O(1) at the atom x0
    a = kappa_3(atoms)
    loc, mass = fm.atom(n, a)
    assert 1e-9 * abs(fm.cauchy(loc + 1e-9j, n, a).imag) == pytest.approx(mass, abs=1e-9)
    handle = an.nfold_convolve(an.MeasureSpec.atomic(atoms), n, 1.0 / math.sqrt(n))
    assert 1e-6 * abs(handle.cauchy(loc + 1e-6j).imag) == pytest.approx(mass, abs=1e-6)


@pytest.mark.parametrize("n", NS)
def test_zero_skewness_density_is_kesten_mckay(n):
    # within 0.9 of the edge; nearer, each form rounds the edge its own way and
    # the square root there magnifies it (to 5e-13 at n = 2, the arcsine law)
    e = km.edge(n)
    y = np.linspace(-0.9 * e, 0.9 * e, 2001)
    assert np.abs(fm.density(y, n, 0.0) - km.density(y, n)).max() <= 1e-15
    outside = np.array([-3.0, -1.001 * e, 1.001 * e, 3.0])
    assert fm.density(outside, n, 0.0).tolist() == km.density(outside, n).tolist() == [0.0] * 4
    assert fm.edges(n, 0.0) == pytest.approx((-e, e), rel=1e-15)
