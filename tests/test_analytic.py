"""Analytic engine: transforms, subordination, inversion, the OU semigroup."""

import math
import warnings

import numpy as np
import pytest

from freestein import _kernels
from freestein import analytic as an
from freestein import momentalg as ma
from freestein import stein
from freestein.errors import ConfigError, ConvergenceError, MassRecoveryWarning
from freestein.momentalg import FreeCumulantSequence

BERN = an.MeasureSpec.atomic([(-1.0, 0.5), (1.0, 0.5)])
ASYM = an.MeasureSpec.atomic([(2.0, 0.2), (-0.5, 0.8)])
SEMI = an.MeasureSpec.semicircle(0.0, 1.0)


def arcsine_g(z):
    return 1.0 / (np.sqrt(z - 2) * np.sqrt(z + 2))


@pytest.fixture
def no_solve(monkeypatch):
    """Make any subordination solve fail the test: a refusal must come first."""

    def solve(*args):
        raise AssertionError("a subordination solve ran")

    monkeypatch.setattr(_kernels, "nfold_omega", solve)
    monkeypatch.setattr(_kernels, "pair_omega", solve)


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

    @pytest.mark.parametrize(
        "atoms",
        [
            [(math.nan, 0.5), (1.0, 0.5)],
            [(-1.0, math.nan), (1.0, 0.5)],
            [(math.inf, 0.5), (1.0, 0.5)],
            [(-1.0, math.inf), (1.0, 0.5)],
            [("-1", 0.5), (1.0, 0.5)],
            [(-1.0, True), (1.0, 0.5)],
        ],
        ids=["atom-nan", "weight-nan", "atom-inf", "weight-inf", "atom-string", "weight-bool"],
    )
    def test_non_finite_atoms_rejected(self, atoms):
        with pytest.raises(ValueError, match="finite"):
            an.MeasureSpec.atomic(atoms)

    @pytest.mark.parametrize(
        "mean, variance",
        [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf), ("0", 1.0), (0.0, True)],
        ids=["mean-nan", "mean-inf", "variance-nan", "variance-inf", "mean-string", "variance-bool"],
    )
    def test_non_finite_semicircle_rejected(self, mean, variance):
        with pytest.raises(ValueError, match="finite"):
            an.MeasureSpec.semicircle(mean, variance)

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

    @pytest.mark.parametrize(
        "law, j, value",
        [
            (an.MeasureSpec.atomic([(1e40, 0.5), (-1e40, 0.5)]), 8, "inf"),
            (an.MeasureSpec.atomic([(1e200, 0.5), (-1e200, 0.5)]), 2, "inf"),
            (an.MeasureSpec.semicircle(0.0, 1e100), 8, "inf"),
            (an.MeasureSpec.from_grid(an.GridDensity(-1e30, 1e30, [5e-31] * 5)), 11, "nan"),
        ],
        ids=["atoms-1e40", "atoms-1e200", "semicircle-1e100", "grid-1e30"],
    )
    def test_moments_beyond_float_range_refused(self, law, j, value):
        # the first moment that is not a finite real is named; the grid raises
        # no RuntimeWarning on the way, and the orders below j are kept
        with pytest.raises(ValueError, match=f"moments must be finite reals, got m_{j} = {value}"):
            law.moments(12)
        if j > 2:
            assert all(map(math.isfinite, law.moments(j - 1).values))

    def test_moments_keep_m0_as_computed(self):
        assert type(ASYM.moments(2)[0]) is int
        assert type(SEMI.moments(2)[0]) is int

    @pytest.mark.parametrize(
        "law",
        [
            *stein.MEASURE_BATTERY,
            an.MeasureSpec.from_grid(unit_grid(an.semicircle_density(-2.2, 2.2, 4001))),
            ASYM.dilate(1.0 / math.sqrt(8.0)),
        ],
        ids=["semicircle", "bernoulli", "two-atom", "three-atom", "semicircle-shifted", "grid",
             "dilated"],
    )
    def test_descriptor_carries_mean_and_variance(self, law):
        kind, mean, variance, xs, ys = law.descriptor()
        if kind == 0:
            want = ys @ xs
            assert (mean, variance) == (want, ys @ (xs - want) ** 2)
        else:
            assert (mean, variance) == (law.mean, law.variance)
        m = law.moments(2)
        assert mean == pytest.approx(float(m[1]), abs=1e-15)
        assert variance == pytest.approx(float(m[2]) - float(m[1]) ** 2, abs=1e-15)

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
        point = an.MeasureSpec.atomic([(0.0, 1.0)])
        assert an.MeasureEvaluator(point).cauchy(1j) == pytest.approx(-1j)

    def test_semicircle_closed_form_at_2i(self):
        val = an.MeasureEvaluator(SEMI).cauchy(2j)
        assert val == pytest.approx(1j * (1 - math.sqrt(2)), abs=1e-14)
        assert val.imag < 0

    def test_total_mass_at_infinity(self):
        z = 1e6j
        for mu in (BERN, ASYM, SEMI):
            assert abs(z * an.MeasureEvaluator(mu).cauchy(z) - 1) < 1e-5

    def test_lower_half_plane_value(self):
        zs = np.array([0.3 + 0.7j, -1.2 + 0.05j, 2.5 + 2j])
        for mu in (BERN, ASYM, SEMI):
            assert np.all(an.MeasureEvaluator(mu).cauchy(zs).imag < 0)

    def test_half_plane_guard(self):
        with pytest.raises(ValueError, match="half plane"):
            an.MeasureEvaluator(SEMI).cauchy(1.0 - 1j)

    @pytest.mark.parametrize(
        "bad",
        [complex(math.nan, 1.0), complex(0.0, math.nan), complex(math.inf, 1.0), complex(0.0, math.inf)],
        ids=["real-nan", "imag-nan", "real-inf", "imag-inf"],
    )
    def test_non_finite_points_refused_before_the_solve(self, bad, no_solve):
        # a NaN point that reached the solver would run it to its step cap and
        # end in ConvergenceError (residual nan)
        ev = an.nfold_convolve(BERN, 8, 1 / math.sqrt(8))
        with pytest.raises(ValueError, match="half plane"):
            ev.cauchy(np.array([bad, 0.5 + 0.01j]))

    def test_grid_measure_matches_closed_form(self):
        grid = unit_grid(an.semicircle_density(-2.05, 2.05, 8001))
        mu = an.MeasureSpec.from_grid(grid)
        for z in (1j, 0.5 + 0.3j, -1.4 + 2j):
            assert an.MeasureEvaluator(mu).cauchy(z) == pytest.approx(
                an.MeasureEvaluator(SEMI).cauchy(z), abs=2e-4
            )


class TestSubordination:
    def test_point_mass_translates(self):
        z = 0.7 + 0.9j
        lhs = an.PairConvolveEvaluator(an.MeasureSpec.atomic([(0.6, 1.0)]), BERN).cauchy(z)
        assert lhs == pytest.approx(an.MeasureEvaluator(BERN).cauchy(z - 0.6), abs=1e-13)

    def test_semicircle_variances_add(self):
        lhs = an.PairConvolveEvaluator(SEMI, SEMI).cauchy(3j)
        rhs = an.MeasureEvaluator(an.MeasureSpec.semicircle(0, 2)).cauchy(3j)
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
        fa = 1.0 / an.MeasureEvaluator(BERN).cauchy(om1)
        fb = 1.0 / an.MeasureEvaluator(SEMI).cauchy(om2)
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


class TestOneSolve:
    """A subordination handle reads omega and G from one kernel call."""

    @pytest.mark.parametrize(
        "make, kernel",
        [
            (lambda: an.nfold_convolve(ASYM, 8, 0.5), "nfold_omega"),
            (lambda: an.PairConvolveEvaluator(ASYM, BERN), "pair_omega"),
        ],
        ids=["nfold", "pair"],
    )
    def test_cauchy_is_one_kernel_call(self, monkeypatch, make, kernel):
        calls = []

        def counted(name):
            inner = getattr(_kernels, name)
            return lambda *a: calls.append(name) or inner(*a)

        for name in ("nfold_omega", "pair_omega", "cauchy_vals"):
            monkeypatch.setattr(_kernels, name, counted(name))
        ev = make()
        ev.cauchy(np.linspace(-2, 2, 9) + 0.1j)
        assert calls == [kernel]
        ev.omega(0.5j)
        assert calls == [kernel, kernel]

    @pytest.mark.parametrize(
        "make, builds",
        [
            (lambda: an.nfold_convolve(ASYM, 8, 0.5), 1),
            (lambda: an.PairConvolveEvaluator(ASYM, SEMI), 2),
        ],
        ids=["nfold", "pair"],
    )
    def test_descriptor_built_once_per_operand(self, monkeypatch, make, builds):
        # stieltjes_density solves three times, once per eps of the ladder
        calls = []
        descriptor = an.MeasureSpec.descriptor
        monkeypatch.setattr(
            an.MeasureSpec, "descriptor", lambda mu: calls.append(mu) or descriptor(mu)
        )
        an.stieltjes_density(make(), -5.0, 5.0, 201)
        assert len(calls) == builds

    def test_identity_matches_the_base_at_omega(self):
        # G = (n-1)/(n omega - z) and 1/(omega1 + omega2 - z) are G_base(omega1)
        zs = np.linspace(-3, 3, 61) + 1e-2j
        for ev, base in [
            (an.nfold_convolve(ASYM, 8, 0.5), ASYM.dilate(0.5)),
            (an.PairConvolveEvaluator(ASYM, BERN), ASYM),
        ]:
            want = an.MeasureEvaluator(base).cauchy(ev.omega(zs))
            assert np.abs(ev.cauchy(zs) - want).max() <= 1e-12 * np.abs(want).max()


class TestNFold:
    def test_n1_is_identity(self):
        ev = an.nfold_convolve(ASYM, 1, 1.0)
        zs = np.array([1j, 0.2 + 0.4j])
        assert np.abs(ev.cauchy(zs) - an.MeasureEvaluator(ASYM).cauchy(zs)).max() < 1e-13

    @pytest.mark.parametrize("mu", [ASYM, SEMI], ids=["atoms", "semicircle"])
    def test_n1_is_the_plain_handle_of_the_dilated_law(self, mu):
        ev = an.nfold_convolve(mu, 1, 0.5)
        assert type(ev) is an.MeasureEvaluator
        assert ev.base == mu.dilate(0.5)
        assert ev.support_radius == mu.dilate(0.5).support_radius
        assert ev.cauchy(0.3 + 1e-3j) == an.MeasureEvaluator(mu.dilate(0.5)).cauchy(0.3 + 1e-3j)
        with pytest.raises(ValueError, match="n-fold handle"):  # its identity is 0/0 there
            an.NFoldEvaluator(mu, 1, 0.5)

    def test_semicircle_stable_under_standardized_pair(self):
        ev = an.nfold_convolve(SEMI, 2, 1 / math.sqrt(2))
        for z in (1j, 0.3 + 0.2j):
            assert ev.cauchy(z) == pytest.approx(an.MeasureEvaluator(SEMI).cauchy(z), abs=1e-12)

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

    @pytest.mark.parametrize(
        "n",
        [2.7, True, "4", math.inf, math.nan, 10**6 + 1, 10**400],
        ids=["fraction", "bool", "text", "inf", "nan", "above-max-n", "beyond-float"],
    )
    def test_n_must_be_whole(self, n):
        # int(n) would truncate 2.7 to 2
        with pytest.raises(ValueError, match="positive integer"):
            an.nfold_convolve(BERN, n, 0.5)

    def test_whole_float_n_is_the_integer(self):
        assert an.nfold_convolve(BERN, 4.0, 0.5).n == an.nfold_convolve(BERN, 4, 0.5).n == 4


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
        ev = an.MeasureEvaluator(an.MeasureSpec.atomic([(0.0, 1.0)]))
        with pytest.warns(MassRecoveryWarning):
            d = an.stieltjes_density(ev, -1, 1, 201)
        assert not 0.97 <= d.mass <= 1.03

    def test_grid_guardrails(self):
        ev = an.MeasureEvaluator(SEMI)
        with pytest.raises(ValueError):
            an.stieltjes_density(ev, 2.0, -2.0, 201)
        with pytest.raises(ValueError):
            an.stieltjes_density(ev, -2.0, 2.0, 32)

    @pytest.mark.parametrize(
        "lo, hi",
        [(-1.0, math.inf), (math.nan, 1.0), (-1e308, 1e308), (1.0, 1.0)],
        ids=["hi-inf", "lo-nan", "width-overflows", "empty"],
    )
    def test_bad_window_refused_before_the_solve(self, lo, hi, no_solve):
        # (-1, inf) and an overflowing width would reach the solver and end in
        # ConvergenceError
        ev = an.nfold_convolve(BERN, 8, 1 / math.sqrt(8))
        with pytest.raises(ValueError, match="finite width"):
            an.stieltjes_density(ev, lo, hi, 201)


class TestCheckWindow:
    @pytest.mark.parametrize(
        "lo, hi",
        [(True, 2.0), (-2.0, False), ("-2", 2.0), (-(10**400), 2.0), (-(10**308), 10**308)],
        ids=["lo-bool", "hi-bool", "lo-text", "lo-beyond-float", "int-width-overflows"],
    )
    def test_window_ends_are_finite_reals(self, lo, hi):
        with pytest.raises(ValueError, match="finite width"):
            an.check_window(lo, hi)

    def test_window_point_count_bounds(self):
        assert an.check_window(-2, 2) is None
        assert an.check_window(-2, 2, float(an.MIN_GRID_POINTS)) == an.MIN_GRID_POINTS
        assert an.check_window(-2, 2, an.MAX_GRID_POINTS) == an.MAX_GRID_POINTS
        for bad in (an.MIN_GRID_POINTS - 1, an.MAX_GRID_POINTS + 1, 10**400, 201.5):
            with pytest.raises(ValueError, match="grid point count"):
                an.check_window(-2, 2, bad)


    @pytest.mark.parametrize(
        "lo, hi, n_points",
        [(-2.0, 2.0, 10), (-2.0, 2.0, an.MAX_GRID_POINTS + 1), (-2.0, 2.0, 201.5),
         (2.0, -2.0, 201), (-2.0, math.inf, 201)],
        ids=["10-points", "above-max", "fraction", "reversed", "hi-inf"],
    )
    def test_semicircle_density_obeys_the_window_rule(self, lo, hi, n_points):
        # the reference density is refused where stieltjes_density is
        with pytest.raises(ValueError, match="grid point count|finite width"):
            an.semicircle_density(lo, hi, n_points)

    @pytest.mark.parametrize(
        "mean, variance",
        [(0.0, 0.0), (0.0, -1.0), (math.nan, 1.0), (0.0, math.inf), (True, 1.0)],
        ids=["zero-variance", "negative-variance", "nan-mean", "inf-variance", "bool-mean"],
    )
    def test_semicircle_density_reads_its_law_like_measure_spec(self, mean, variance):
        with pytest.raises(ValueError, match="semicircle needs a finite mean"):
            an.semicircle_density(-2.0, 2.0, 201, mean, variance)


class TestGridDensity:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            an.GridDensity(-1, 1, [0.5, -1e-3, 0.5])

    @pytest.mark.parametrize(
        "lo, hi, values",
        [
            (-1, 1, [0.5, math.nan, 0.5]),
            (-1, 1, [0.5, math.inf, 0.5]),
            (math.nan, 1, [0.5, 0.5, 0.5]),
            (-1, math.inf, [0.5, 0.5, 0.5]),
            (-math.inf, 1, [0.5, 0.5, 0.5]),
        ],
        ids=["value-nan", "value-inf", "lo-nan", "hi-inf", "lo-minus-inf"],
    )
    def test_non_finite_input_rejected(self, lo, hi, values):
        with pytest.raises(ValueError, match="finite"):
            an.GridDensity(lo, hi, values)

    @pytest.mark.parametrize("lo, hi, n", [(-2.0, 2.0, 33), (-3.2, 1.7, 2001), (0.0, 1.0, 2)])
    def test_weights_are_the_trapezoid_rule(self, lo, hi, n):
        g = an.GridDensity(lo, hi, np.ones(n))
        assert g.weights.sum() == pytest.approx(hi - lo, rel=1e-14)
        x = g.x
        # the third integrand has non-zero end values, so the half end weights count
        for f in (np.sqrt(np.clip(4.0 - x**2, 0.0, None)), x**2, np.exp(x)):
            oracle = np.trapezoid(f, x)
            assert g.weights @ f == pytest.approx(oracle, rel=1e-14, abs=1e-300)

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

    @pytest.mark.parametrize("body", ["-1,0.5\nnan,0.5\n1,0.5\n", "-1,0.5\n0,0.5\ninf,0.5\n"])
    def test_csv_rejects_a_non_finite_x_column(self, tmp_path, body):
        path = tmp_path / "density.csv"
        path.write_text("x,density\n" + body)
        with pytest.raises(ValueError, match="finite"):
            an.GridDensity.from_csv(path)


    @pytest.mark.parametrize(
        "text, match",
        [
            ("x,density\n-1,0.5\n0,abc\n1,0.5\n", r"density\.csv, line 3: could not convert"),
            ("x,density\n-1,0.5\n0,nan\n1,0.5\n", r"density\.csv, line 3: density must be"),
            ("x,density\n-1,0.5\n\n0,0.5,1\n", r"density\.csv, line 4: expected 2 cells, got 3"),
            ("x,dens\n-1,0.5\n1,0.5\n", r"density\.csv, line 1: not a density CSV"),
        ],
        ids=["non-numeric", "nan", "three-cells", "header"],
    )
    def test_csv_errors_name_file_and_line(self, tmp_path, text, match):
        path = tmp_path / "density.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            an.GridDensity.from_csv(path)

    def test_to_csv_replaces_the_file_in_one_step(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("old\n")
        (tmp_path / "density.csv.tmp").mkdir()  # the temp file cannot be written
        with pytest.raises(OSError):
            an.semicircle_density(-2.1, 2.1, 101).to_csv(path)
        assert path.read_text() == "old\n"
        (tmp_path / "density.csv.tmp").rmdir()
        an.semicircle_density(-2.1, 2.1, 101).to_csv(path)
        assert an.GridDensity.from_csv(path).n_points == 101
        assert sorted(p.name for p in tmp_path.iterdir()) == ["density.csv"]

    def test_to_csv_writes_through_a_symbolic_link(self, tmp_path):
        (tmp_path / "target.csv").write_text("old\n")
        (tmp_path / "link.csv").symlink_to("target.csv")
        an.semicircle_density(-2.1, 2.1, 101).to_csv(tmp_path / "link.csv")
        assert (tmp_path / "link.csv").is_symlink()
        assert an.GridDensity.from_csv(tmp_path / "target.csv").n_points == 101

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
        # an atomic order of 2_000_000 took 1.5 s before its bound
        cap = rf"the moment order must be a whole number in \[2, {ma.MAX_ORDER}\]"
        for order in (1, ma.MAX_ORDER + 1, 2_000_000, True, 2.5):
            with pytest.raises(ValueError, match=cap):
                an.moments_from_evaluator(an.MeasureEvaluator(SEMI), order)
            for mu in (BERN, SEMI):
                with pytest.raises(ValueError, match=cap):
                    mu.moments(order)

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
        assert ev.cauchy(z) == an.MeasureEvaluator(ASYM).cauchy(z)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            an.ou_semigroup(ASYM, -0.1)

    @pytest.mark.parametrize(
        "theta", [-0.1, math.nan, math.inf, -math.inf, True, "1", None],
        ids=["negative", "nan", "inf", "-inf", "bool", "text", "none"],
    )
    def test_theta_is_a_finite_real_at_least_zero(self, theta):
        for flow in (lambda t: an.ou_semigroup(ASYM, t),
                     lambda t: stein.evolve_cumulants(ma.moments_to_cumulants(ASYM.moments(4)), t)):
            with pytest.raises(ValueError, match="the semigroup time theta must be a finite real >= 0"):
                flow(theta)

    @pytest.mark.parametrize("mu", [ASYM, SEMI, an.MeasureSpec.semicircle(0.4, 0.49)],
                             ids=["atomic", "semicircle", "shifted-semicircle"])
    def test_tiny_theta_is_the_law_itself(self, mu):
        # 1 - e^{-2 theta} by expm1: a semicircle factor of variance 2e-300
        z = np.linspace(-3, 3, 61) + 0.5j
        got = an.ou_semigroup(mu, 1e-300).cauchy(z)
        assert np.abs(got - an.MeasureEvaluator(mu).cauchy(z)).max() <= 1e-12

    @pytest.mark.parametrize("theta", [360.0, 400.0, 745.5, 1e6])
    @pytest.mark.parametrize("mu", [ASYM, SEMI, an.MeasureSpec.semicircle(0.4, 0.49)],
                             ids=["atomic", "semicircle", "shifted-semicircle"])
    def test_long_flow_is_the_standard_semicircle(self, mu, theta):
        ev = an.ou_semigroup(mu, theta)
        assert type(ev) is an.MeasureEvaluator and ev.base == SEMI
        kappa = stein.evolve_cumulants(ma.moments_to_cumulants(mu.moments(6)), theta)
        assert np.abs(np.array(kappa.values) - [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]).max() < 1e-150
        if math.exp(-theta) == 0.0:
            assert kappa.values == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    def test_semicircle_flow_starts_at_its_root(self):
        # both operands are semicircles, so the pair seed is the fixed point
        for theta in (0.3, 1.0, 2.5):
            ev = an.ou_semigroup(an.MeasureSpec.semicircle(0.4, 0.49), theta)
            ev.cauchy(np.linspace(-3, 3, 257) + 1e-3j)
            assert ev.peak_iterations == 0

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
