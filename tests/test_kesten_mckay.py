"""The Kesten-McKay closed form against the exact stack, the n-fold handle and
the experiment rows."""

import math
from fractions import Fraction

import numpy as np
import pytest

import kesten_mckay as km
from freestein import _kernels
from freestein import analytic as an
from freestein import experiment as ex
from freestein import momentalg as ma

BERN = an.MeasureSpec.atomic([(-1.0, 0.5), (1.0, 0.5)])


def exact_moments(n: int, order: int) -> tuple:
    """Moments of (D_{1/sqrt(n)} B)^{boxplus n} as Fractions: kappa_j n^{1 - j/2},
    with the odd free cumulants of B zero."""
    kappa = ma.moments_to_cumulants(
        ma.MomentSequence([1 - j % 2 for j in range(order + 1)], validate=False)
    )
    scaled = [0 if j % 2 else kappa[j] * Fraction(1, n ** (j // 2 - 1)) for j in range(1, order + 1)]
    return ma.cumulants_to_moments(ma.FreeCumulantSequence(scaled)).values


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 64, 512, 4096])
def test_moments_match_the_exact_stack(n):
    got, want = km.moments(n, 12), exact_moments(n, 12)
    for j, (g, w) in enumerate(zip(got, want)):
        if j % 2:
            assert w == 0 and abs(g) <= 1e-13
        else:
            assert g == pytest.approx(float(w), rel=1e-12)


def test_two_summands_give_the_arcsine_law():
    y = np.linspace(-1.414, 1.414, 1001)
    arcsine = 1.0 / (math.pi * np.sqrt(2.0 - y * y))
    assert np.abs(km.density(y, 2) / arcsine - 1.0).max() < 1e-12
    assert km.edge(2) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert (km.density(np.array([-1.5, 1.5]), 2) == 0.0).all()


@pytest.mark.parametrize("n", [3, 64, 4096])
def test_density_is_the_tree_spectral_measure(n):
    # p_n(y) = sqrt(n) f_n(sqrt(n) y), f_n(x) = n sqrt(4(n-1) - x^2) / (2 pi (n^2 - x^2))
    x = math.sqrt(n) * np.linspace(-km.edge(n), km.edge(n), 501)
    f = n * np.sqrt(np.clip(4.0 * (n - 1) - x * x, 0.0, None)) / (2.0 * math.pi * (n * n - x * x))
    assert np.abs(km.density(x / math.sqrt(n), n) - math.sqrt(n) * f).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 8, 64, 512, 4096, 10**5, an.MAX_N])
def test_nfold_handle_matches_the_closed_form(n):
    # an experiment row's automatic window, at the ladder's smallest epsilon;
    # the two-atom seed is the root, returned as checked, so no Newton step
    # divides by Phi' - 1 ~ 1/n and the error does not grow with n
    half = max(min(math.sqrt(n), 5.5), 2.0) + 0.5
    z = np.linspace(-half, half, 2001) + 1e-3j
    want = km.cauchy(z, n)
    got = an.nfold_convolve(BERN, n, 1.0 / math.sqrt(n)).cauchy(z)
    assert (np.abs(got - want) / np.abs(want)).max() <= 1e-13


def test_a_point_that_fails_the_check_leaves_the_others_exact(monkeypatch):
    # one point of the Bernoulli start moved by 1e-6 at n = 10^6: only that
    # point runs Newton, so the others keep their checked start and take no
    # step of size n epsilon
    n, moved_at = an.MAX_N, 100
    half = max(min(math.sqrt(n), 5.5), 2.0) + 0.5
    z = np.linspace(-half, half, 2001) + 1e-3j
    seed = _kernels._nfold_seed

    def moved(*args):
        w0 = seed(*args)
        w0[moved_at] += 1e-6
        return w0

    monkeypatch.setattr(_kernels, "_nfold_seed", moved)
    handle = an.nfold_convolve(BERN, n, 1.0 / math.sqrt(n))
    _, iters, _ = _kernels.nfold_omega(z, *handle.base.descriptor(), float(n))
    assert iters[moved_at] >= 1 and np.delete(iters, moved_at).max() == 0
    want = km.cauchy(z, n)
    err = np.abs(handle.cauchy(z) - want) / np.abs(want)
    assert np.delete(err, moved_at).max() <= 1e-13


def test_exact_distances_reproduce_the_measured_values():
    # n = 4096, against the semicircle, to every printed digit
    got = km.distances(4096)
    assert [f"{got[m]:.5e}" for m in ("kol", "tv", "w1")] == ["1.94351e-05", "7.77314e-05", "5.00370e-05"]


def test_cdf_is_the_arcsine_cdf_at_two_summands():
    for y in np.linspace(0.0, 1.414, 51):
        assert km.cdf(y, 2) == pytest.approx(0.5 + math.asin(y / math.sqrt(2.0)) / math.pi, abs=1e-14)
    assert km.cdf(km.edge(2), 2) == 1.0


@pytest.mark.parametrize("n", [2, 3, 8, 64, 4096])
def test_density_crossings_are_where_the_densities_meet(n):
    crossings = km.density_crossings(n)
    assert len(crossings) == 2
    inner = crossings if n > 2 else crossings[:1]
    semicircle = np.sqrt(4.0 - np.square(inner)) / (2.0 * math.pi)
    assert np.abs(km.density(np.array(inner), n) / semicircle - 1.0).max() <= 1e-10
    # between and beyond them the gap keeps one sign, which flips at each
    ys = np.linspace(0.0, 2.0, 4001)
    gap = km.density(ys, n) - np.sqrt(4.0 - ys * ys) / (2.0 * math.pi)
    flips = np.flatnonzero(np.diff(np.sign(gap[1:-1])) != 0)
    assert len(flips) == 2


@pytest.mark.parametrize("n", [2**k for k in range(3, 13)])
def test_rows_lie_inside_the_envelope_of_the_exact_distances(n):
    # the grid rows of the rate experiment, within W1 1 %, TV 5 %, Kolmogorov 20 %
    row = ex.compute_row(ex.ExperimentConfig(base_measure=BERN), n).report
    exact = km.distances(n)
    assert abs(row.d_w1 / exact["w1"] - 1.0) <= 0.01
    assert abs(row.d_tv / exact["tv"] - 1.0) <= 0.05
    assert abs(row.d_kol / exact["kol"] - 1.0) <= 0.20
