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
