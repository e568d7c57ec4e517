"""Analytic engine: transforms, subordination, inversion, the OU semigroup."""

import math
import warnings

import numpy as np
import pytest

from freestein import _kernels
from freestein import analytic as an
from freestein import momentalg as ma
from freestein import stein
from freestein.errors import ConvergenceError, MassRecoveryWarning
from freestein.momentalg import FreeCumulantSequence

BERN = an.MeasureSpec.atomic([(-1.0, 0.5), (1.0, 0.5)])
ASYM = an.MeasureSpec.atomic([(2.0, 0.2), (-0.5, 0.8)])
SEMI = an.MeasureSpec.semicircle(0.0, 1.0)


def arcsine_g(z):
    return 1.0 / (np.sqrt(z - 2) * np.sqrt(z + 2))


def unit_grid(g: an.GridDensity) -> an.GridDensity:
    return an.GridDensity(g.lo, g.hi, np.asarray(g.values) / g.mass)


class TestMeasureSpec:
    def test_atomic_validation(self):
        with pytest.raises(ValueError):
            an.MeasureSpec.atomic([(1.0, 0.4), (-1.0, 0.4)])
        with pytest.raises(ValueError):
            an.MeasureSpec.atomic([(1.0, 0.5), (1.0, 0.5)])
        with pytest.raises(ValueError):
            an.MeasureSpec.semicircle(0.0, -1.0)

    def test_moments_atomic(self):
        m = ASYM.moments(3)
        assert float(m[1]) == pytest.approx(0.0, abs=1e-15)
        assert float(m[2]) == pytest.approx(1.0)
        assert float(m[3]) == pytest.approx(1.5)

    def test_moments_semicircle(self):
        m = SEMI.moments(6)
        assert m.values == ma.semicircle_moments(6).values

    def test_moments_grid_quadrature(self):
        grid = unit_grid(an.semicircle_density(-2.2, 2.2, 4001))
        m = an.MeasureSpec.from_grid(grid).moments(4)
        for j, expect in ((1, 0.0), (2, 1.0), (4, 2.0)):
            assert float(m[j]) == pytest.approx(expect, abs=5e-4)

    def test_dilate(self):
        d = ASYM.dilate(-2.0)
        assert d.atoms == ((-4.0, 0.2), (1.0, 0.8))
        s = SEMI.dilate(3.0)
        assert s.variance == pytest.approx(9.0)
        with pytest.raises(ValueError):
            SEMI.dilate(0.0)

    def test_support_radius(self):
        assert ASYM.support_radius == 2.0
        assert SEMI.support_radius == 2.0


class TestCauchyTransform:
    def test_point_mass_at_i(self):
        assert an.cauchy_transform(an.MeasureSpec.point_mass(0.0), 1j) == pytest.approx(-1j)

    def test_semicircle_closed_form_at_2i(self):
        val = an.cauchy_transform(SEMI, 2j)
        assert val == pytest.approx(1j * (1 - math.sqrt(2)), abs=1e-14)
        assert val.imag < 0

    def test_total_mass_at_infinity(self):
        z = 1e6j
        for mu in (BERN, ASYM, SEMI):
            assert abs(z * an.cauchy_transform(mu, z) - 1) < 1e-5

    def test_lower_half_plane_value(self):
        zs = np.array([0.3 + 0.7j, -1.2 + 0.05j, 2.5 + 2j])
        for mu in (BERN, ASYM, SEMI):
            assert np.all(an.cauchy_transform(mu, zs).imag < 0)

    def test_half_plane_guard(self):
        with pytest.raises(ValueError, match="half plane"):
            an.cauchy_transform(SEMI, 1.0 - 1j)

    def test_grid_measure_matches_closed_form(self):
        grid = unit_grid(an.semicircle_density(-2.05, 2.05, 8001))
        mu = an.MeasureSpec.from_grid(grid)
        for z in (1j, 0.5 + 0.3j, -1.4 + 2j):
            assert an.cauchy_transform(mu, z) == pytest.approx(
                an.cauchy_transform(SEMI, z), abs=2e-4
            )


class TestSubordination:
    def test_point_mass_translates(self):
        z = 0.7 + 0.9j
        lhs = an.PairConvolveEvaluator(an.MeasureSpec.point_mass(0.6), BERN).cauchy(z)
        assert lhs == pytest.approx(an.cauchy_transform(BERN, z - 0.6), abs=1e-13)

    def test_semicircle_variances_add(self):
        lhs = an.PairConvolveEvaluator(SEMI, SEMI).cauchy(3j)
        rhs = an.cauchy_transform(an.MeasureSpec.semicircle(0, 2), 3j)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_bernoulli_pair_is_arcsine(self):
        for z in (1j, 0.5 + 0.25j, -1.5 + 0.1j):
            lhs = an.PairConvolveEvaluator(BERN, BERN).cauchy(z)
            assert lhs == pytest.approx(arcsine_g(z), abs=1e-10)

    def test_upper_half_plane_contract(self):
        zs = np.linspace(-3, 3, 41) + 1j * 1e-3
        om1, om2, _, resid = _kernels.pair_omega(zs, *BERN.descriptor(), *ASYM.descriptor())
        assert np.all(om1.imag >= zs.imag - 1e-12)
        assert np.all(om2.imag >= zs.imag - 1e-12)
        assert resid.max() < 1e-9

    def test_omega_consistency(self):
        # F_a(omega1) = F_b(omega2) = F_{a boxplus b}(z)
        zs = np.array([0.4 + 0.2j, -2.0 + 0.5j, 1.1 + 1.0j])
        om1, om2, _, _ = _kernels.pair_omega(zs, *BERN.descriptor(), *SEMI.descriptor())
        fa = 1.0 / an.cauchy_transform(BERN, om1)
        fb = 1.0 / an.cauchy_transform(SEMI, om2)
        assert np.abs(fa - fb).max() < 1e-9


class TestResidualGate:
    """Both subordination handles share one residual gate."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # each kernel call reports the next (iterations, residual) pair
        queue = []

        def report(z):
            iters, resid = queue.pop(0)
            return np.full(len(z), iters), np.full(len(z), resid)

        monkeypatch.setattr(_kernels, "nfold_omega", lambda z, *a: (z, *report(z)))
        monkeypatch.setattr(_kernels, "pair_omega", lambda z, *a: (z, z, *report(z)))
        return queue

    @pytest.mark.parametrize(
        "make",
        [lambda: an.nfold_convolve(BERN, 4, 0.5), lambda: an.PairConvolveEvaluator(BERN, SEMI)],
        ids=["nfold", "pair"],
    )
    def test_rejects_and_keeps_peak(self, solves, make):
        ev = make()
        bad = 2 * an.RESIDUAL_ACCEPT
        solves.extend([(7, bad), (3, 0.0), (9, an.RESIDUAL_ACCEPT), (5, 0.0)])
        with pytest.raises(ConvergenceError) as err:
            ev.cauchy(1j)
        assert err.value.residual == bad
        assert err.value.iterations == 7
        assert ev.peak_iterations == 7
        ev.cauchy(1j)
        assert ev.peak_iterations == 7
        ev.cauchy(np.array([1j, 2j]))  # a residual at the bound is accepted
        assert ev.peak_iterations == 9
        ev.cauchy(1j)
        assert ev.peak_iterations == 9

    @pytest.mark.parametrize(
        "make",
        [lambda: an.nfold_convolve(BERN, 4, 0.5), lambda: an.PairConvolveEvaluator(BERN, SEMI)],
        ids=["nfold", "pair"],
    )
    def test_rejects_nan_residual(self, solves, make):
        solves.append((4, math.nan))
        with pytest.raises(ConvergenceError):
            make().cauchy(np.array([1j, 2j]))


class TestNFold:
    def test_n1_is_identity(self):
        ev = an.nfold_convolve(ASYM, 1, 1.0)
        zs = np.array([1j, 0.2 + 0.4j])
        assert np.abs(ev.cauchy(zs) - an.cauchy_transform(ASYM, zs)).max() < 1e-13

    def test_semicircle_stable_under_standardized_pair(self):
        ev = an.nfold_convolve(SEMI, 2, 1 / math.sqrt(2))
        for z in (1j, 0.3 + 0.2j):
            assert ev.cauchy(z) == pytest.approx(an.cauchy_transform(SEMI, z), abs=1e-12)

    def test_variance_additivity(self):
        ev = an.nfold_convolve(BERN, 4, 0.5)
        m = an.moments_from_evaluator(ev, 4)
        assert float(m[2]) == pytest.approx(1.0, abs=1e-8)

    def test_im_omega_dominates(self):
        ev = an.nfold_convolve(BERN, 16, 0.25)
        zs = np.linspace(-2.5, 2.5, 31) + 1j * 1e-3
        om = ev.omega(zs)
        assert np.all(om.imag >= zs.imag - 1e-12)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            an.nfold_convolve(BERN, 0, 1.0)


class TestStieltjesDensity:
    def test_semicircle_recovery(self):
        ev = an.MeasureEvaluator(SEMI)
        d = an.stieltjes_density(ev, -2.5, 2.5, 2001)
        ref = an.semicircle_density(-2.5, 2.5, 2001)
        assert np.abs(d.values - ref.values).max() < 5e-3

    def test_arcsine_recovery(self):
        d = an.stieltjes_density(an.PairConvolveEvaluator(BERN, BERN), -2.5, 2.5, 2001)
        xs = d.x
        mask = np.abs(xs) <= 1.8
        ref = 1.0 / (math.pi * np.sqrt(np.clip(4 - xs**2, 1e-12, None)))
        assert np.abs(d.values - ref)[mask].max() < 1e-3

    def test_pure_atom_flags_mass_failure(self):
        ev = an.MeasureEvaluator(an.MeasureSpec.point_mass(0.0))
        with pytest.warns(MassRecoveryWarning):
            d = an.stieltjes_density(ev, -1, 1, 201)
        assert not 0.97 <= d.mass <= 1.03

    def test_grid_guardrails(self):
        ev = an.MeasureEvaluator(SEMI)
        with pytest.raises(ValueError):
            an.stieltjes_density(ev, 2.0, -2.0, 201)
        with pytest.raises(ValueError):
            an.stieltjes_density(ev, -2.0, 2.0, 32)


class TestGridDensity:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            an.GridDensity(-1, 1, [0.5, -1e-3, 0.5])

    def test_tiny_negatives_clamped(self):
        g = an.GridDensity(-1, 1, [0.5, -1e-13, 0.5])
        assert g.values[1] == 0.0

    def test_csv_round_trip(self, tmp_path):
        g = an.semicircle_density(-2.1, 2.1, 301)
        path = tmp_path / "density.csv"
        g.to_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == "x,density"
        back = an.GridDensity.from_csv(path)
        assert back.lo == g.lo and back.hi == g.hi
        assert np.array_equal(back.values, g.values)

    @pytest.mark.parametrize(
        "body, match",
        [
            ("", "at least 2 density rows"),
            ("0,0.5\n", "at least 2 density rows"),
            ("0,1\n0.3,1\n1,1\n", "not uniform"),
        ],
        ids=["header-only", "one-row", "non-uniform"],
    )
    def test_csv_rejects_short_or_non_uniform_files(self, tmp_path, body, match):
        path = tmp_path / "density.csv"
        path.write_text("x,density\n" + body)
        with pytest.raises(ValueError, match=match):
            an.GridDensity.from_csv(path)


    def test_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("x,density\n-1,0.5\n\n0,0.5\n1,0.5\n\n")
        g = an.GridDensity.from_csv(path)
        assert (g.lo, g.hi) == (-1.0, 1.0)
        assert g.values.tolist() == [0.5, 0.5, 0.5]


class TestMomentsFromEvaluator:
    def test_semicircle_moments(self):
        m = an.moments_from_evaluator(an.MeasureEvaluator(SEMI), 4)
        expect = (1, 0, 1, 0, 2)
        assert max(abs(float(a) - b) for a, b in zip(m.values, expect)) < 1e-6

    def test_order_cap_is_the_transform_cap(self):
        with pytest.raises(ValueError, match=f"capped at order {ma.MAX_ORDER}"):
            an.moments_from_evaluator(an.MeasureEvaluator(SEMI), ma.MAX_ORDER + 1)

    def test_mass_is_one(self):
        for mu in (BERN, ASYM, SEMI):
            m = an.moments_from_evaluator(an.MeasureEvaluator(mu), 2)
            assert float(m[0]) == 1.0

    def test_arcsine_fourth_moment(self):
        ev = an.nfold_convolve(BERN, 2, 1.0)
        m = an.moments_from_evaluator(ev, 8)
        assert float(m[4]) == pytest.approx(6.0, abs=1e-5)
        assert float(m[8]) == pytest.approx(70.0, abs=1e-4)


class TestEngineAgreement:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize(
        "mu",
        [BERN, ASYM, an.MeasureSpec.atomic([(-1.2, 0.25), (0.1, 0.5), (1.3, 0.25)])],
        ids=["bern", "asym", "threeatom"],
    )
    def test_nfold_moments_match_cumulant_engine(self, mu, n):
        scale = 1.0 / math.sqrt(n)
        analytic_m = an.moments_from_evaluator(an.nfold_convolve(mu, n, scale), 8)
        kappa = ma.moments_to_cumulants(mu.moments(8))
        scaled = FreeCumulantSequence(
            tuple(n * scale**j * kappa[j] for j in range(1, 9))
        )
        cumulant_m = ma.cumulants_to_moments(scaled)
        err = max(
            abs(float(a) - float(b))
            for a, b in zip(analytic_m.values, cumulant_m.values)
        )
        assert err < 1e-5


class TestOuSemigroup:
    def test_theta_zero_is_identity(self):
        ev = an.ou_semigroup(ASYM, 0.0)
        z = 0.5 + 0.8j
        assert ev.cauchy(z) == an.cauchy_transform(ASYM, z)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            an.ou_semigroup(ASYM, -0.1)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_semicircle_fixed_point(self, theta):
        m = an.moments_from_evaluator(an.ou_semigroup(SEMI, theta), 8)
        expect = ma.semicircle_moments(8)
        assert max(
            abs(float(a) - b) for a, b in zip(m.values, expect.values)
        ) < 1e-8

    def test_variance_preserved_for_standardized_input(self):
        for theta in (0.2, 1.5):
            m = an.moments_from_evaluator(an.ou_semigroup(BERN, theta), 2)
            assert float(m[2]) == pytest.approx(1.0, abs=1e-9)

    def test_semigroup_law_cumulant_level(self):
        # kappa_j -> e^{-j theta} kappa_j (j != 2), kappa_2 -> e^{-2theta}k2 + 1 - e^{-2theta}
        kappa = ma.moments_to_cumulants(ASYM.moments(8))
        via_two = stein.evolve_cumulants(stein.evolve_cumulants(kappa, 0.4), 0.9)
        direct = stein.evolve_cumulants(kappa, 1.3)
        assert max(
            abs(a - b) for a, b in zip(via_two.values, direct.values)
        ) < 1e-12

    def test_semigroup_law_moments(self):
        m0 = ASYM.moments(8)
        m_two = stein.evolved_moments(stein.evolved_moments(m0, 0.4), 0.9)
        m_direct = stein.evolved_moments(m0, 1.3)
        assert max(
            abs(float(a) - float(b)) for a, b in zip(m_two.values, m_direct.values)
        ) < 1e-8

    def test_analytic_matches_cumulant_evolution(self):
        theta = 0.6
        analytic_m = an.moments_from_evaluator(an.ou_semigroup(ASYM, theta), 6)
        algebraic_m = stein.evolved_moments(ASYM.moments(6), theta)
        assert max(
            abs(float(a) - float(b))
            for a, b in zip(analytic_m.values, algebraic_m.values)
        ) < 1e-7


class TestSuperconvergence:
    @pytest.mark.parametrize("n", [64, 128])
    def test_mass_confined_to_minus3_3(self, n):
        ev = an.nfold_convolve(BERN, n, 1 / math.sqrt(n))
        d = an.stieltjes_density(ev, -6, 6, 2001)
        outside = np.where(np.abs(d.x) > 3, d.values, 0.0)
        assert float(np.trapezoid(outside, d.x)) < 1e-3


class TestDecayDiagnostic:
    @pytest.mark.parametrize("theta", [1.0, 1.5, 2.0])
    def test_first_coordinate_test_function(self, theta):
        # f(x, y) = x: the pairing reduces to the evolved first moment
        for mu in (BERN, ASYM):
            m = stein.evolved_moments(mu.moments(2), theta)
            assert abs(float(m[1])) <= 6 * math.exp(-theta)

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_coupling_distance_kernel(self, theta):
        # f(x, y) = |x - y| on the window: 2-d trapezoid of the product laws
        xs = np.linspace(-5, 5, 401)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f_nu = an.stieltjes_density(an.ou_semigroup(ASYM, theta), -5, 5, 401).values
        f_s = an.semicircle_density(-5, 5, 401).values
        kernel = np.abs(xs[:, None] - xs[None, :])
        prod_nu = np.outer(f_nu, f_nu)
        prod_s = np.outer(f_s, f_s)
        val = np.trapezoid(np.trapezoid(kernel * (prod_nu - prod_s), xs, axis=1), xs)
        assert abs(val) <= 6 * math.exp(-theta)
