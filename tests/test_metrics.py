"""Distance layer: metric axioms, closed-form instances, refinement oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from freestein import analytic as an
from freestein import metrics as met


def unit(g: an.GridDensity) -> an.GridDensity:
    return an.GridDensity(g.lo, g.hi, np.asarray(g.values) / g.mass)


def dilated_semicircle(r, lo=-4.0, hi=4.0, n=2001):
    return unit(an.semicircle_density(lo, hi, n, mean=0.0, variance=r * r))


def shifted_semicircle(c, lo=-4.0, hi=4.0, n=2001):
    return unit(an.semicircle_density(lo, hi, n, mean=c, variance=1.0))


def arcsine_cell_averaged(n, lo=-4.0, hi=4.0):
    """Arcsine law on [-2, 2] placed on the grid by exact CDF increments.

    Cell averaging keeps the representation refinement-stable despite the
    inverse-square-root edge singularities.
    """
    xs = np.linspace(lo, hi, n)
    dx = xs[1] - xs[0]

    def cdf(t):
        return np.where(
            t <= -2, 0.0, np.where(t >= 2, 1.0, 0.5 + np.arcsin(np.clip(t, -2, 2) / 2) / math.pi)
        )

    return an.GridDensity(lo, hi, (cdf(xs + dx / 2) - cdf(xs - dx / 2)) / dx)


SEEDED_BATTERY = [
    dilated_semicircle(1.0),
    dilated_semicircle(0.6),
    shifted_semicircle(0.4),
    shifted_semicircle(-0.8),
    dilated_semicircle(1.4),
]

# the field of each distance in a DistanceReport, with the test id it runs under
FIELDS = pytest.mark.parametrize(
    "field", ["d_kol", "d_tv", "d_w1"], ids=["kolmogorov", "total_variation", "wasserstein1"]
)


# E|x| of the variance-1 semicircle, by quadrature of the closed form
ABS_MOMENT = 8.0 / (3.0 * math.pi)


class TestCdf:
    def test_median_of_symmetric_law(self):
        g = dilated_semicircle(1.0)
        cdf = met._cdf_on(g.x, np.asarray(g.values))
        mid = np.argmin(np.abs(g.x))
        assert cdf[mid] == pytest.approx(0.5, abs=1e-4)

    def test_monotone(self):
        g = SEEDED_BATTERY[2]
        cdf = met._cdf_on(g.x, np.asarray(g.values))
        assert np.all(np.diff(cdf) >= 0)

    def test_terminal_value_normalized(self):
        g = SEEDED_BATTERY[1]
        cdf = met._cdf_on(g.x, np.asarray(g.values))
        assert cdf[-1] == 1.0

    def test_deficit_skips_normalization(self):
        half = an.GridDensity(-2, 2, 0.5 * np.asarray(dilated_semicircle(1, -2, 2).values))
        cdf = met._cdf_on(half.x, np.asarray(half.values))
        assert cdf[-1] < 0.9


class TestKolmogorov:
    def test_identity(self):
        g = SEEDED_BATTERY[0]
        assert met.distance_report(g, g).d_kol == 0.0

    def test_symmetry_and_range(self):
        a, b = SEEDED_BATTERY[0], dilated_semicircle(0.5)
        d1, d2 = met.distance_report(a, b).d_kol, met.distance_report(b, a).d_kol
        assert d1 == d2
        assert 0 < d1 < 1

    def test_shift_against_refined_grid(self):
        a = an.semicircle_density(-4, 4, 2001)
        b = shifted_semicircle(0.1)
        coarse = met.distance_report(a, b).d_kol
        fine = met.distance_report(
            an.semicircle_density(-4, 4, 20001), shifted_semicircle(0.1, n=20001)
        ).d_kol
        assert coarse == pytest.approx(fine, abs=1e-3)


class TestOneGrid:
    @pytest.mark.parametrize(
        "other",
        [(-3, 3, 2001), (-4, 4, 1501), (-4, 4.5, 2001)],
        ids=["window", "points", "upper-end"],
    )
    @FIELDS
    def test_mismatched_grids_refused(self, field, other):
        # two densities are compared only on the grid they share
        a = an.semicircle_density(-4, 4, 2001)
        with pytest.raises(ValueError, match="one grid"):
            met.distance_report(a, an.semicircle_density(*other), (field[2:],))

    @pytest.mark.parametrize("metrics", [("kol",), ("tv",), ("w1",)])
    def test_report_refuses_mismatched_grids(self, metrics):
        # a TV-only report must not turn the refusal into d_tv = None
        a = an.semicircle_density(-4, 4, 2001)
        with pytest.raises(ValueError, match="one grid"):
            met.distance_report(a, an.semicircle_density(-3, 3, 2001), metrics)


class TestTotalVariation:
    def test_identity(self):
        g = SEEDED_BATTERY[3]
        assert met.distance_report(g, g).d_tv == 0.0

    def test_disjoint_supports(self):
        xs_mass = an.semicircle_density(-10, 10, 4001, mean=-5.0)
        ys_mass = an.semicircle_density(-10, 10, 4001, mean=5.0)
        assert met.distance_report(xs_mass, ys_mass).d_tv == pytest.approx(1.0, abs=2e-3)

    def test_refinement_oracle_semicircle_vs_arcsine(self):
        coarse = met.distance_report(
            an.semicircle_density(-4, 4, 2001), arcsine_cell_averaged(2001)
        ).d_tv
        fine = met.distance_report(
            an.semicircle_density(-4, 4, 20001), arcsine_cell_averaged(20001)
        ).d_tv
        assert coarse == pytest.approx(fine, abs=1e-3)

    def test_is_the_uniform_trapezoid_sum(self):
        # exact rational arithmetic: dx/2 * (|d_0|/2 + |d_1| + ... + |d_N|/2)
        a, b = SEEDED_BATTERY[0], SEEDED_BATTERY[2]
        d = [Fraction(v) for v in np.abs(a.values - b.values)]
        dx = (Fraction(a.hi) - Fraction(a.lo)) / (a.n_points - 1)
        exact = float(dx / 2 * (sum(d) - (d[0] + d[-1]) / 2))
        assert met.distance_report(a, b).d_tv == pytest.approx(exact, rel=1e-15)


class TestWasserstein1:
    def test_identity(self):
        g = SEEDED_BATTERY[4]
        assert met.distance_report(g, g).d_w1 == 0.0

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.8), (1.2, 0.5)])
    def test_dilated_semicircles_closed_form(self, alpha, beta):
        # monotone coupling of dilations: W1 = |alpha - beta| * E|x|
        a = dilated_semicircle(alpha, n=8001)
        b = dilated_semicircle(beta, n=8001)
        expect = abs(alpha - beta) * ABS_MOMENT
        assert met.distance_report(a, b).d_w1 == pytest.approx(expect, abs=5e-4)

    def test_shift_distance(self):
        # W1 between a law and its shift is the shift size
        a = an.semicircle_density(-4, 4, 8001)
        b = shifted_semicircle(0.25, n=8001)
        assert met.distance_report(a, b).d_w1 == pytest.approx(0.25, abs=5e-4)


class TestMetricAxioms:
    @FIELDS
    def test_triangle_inequality(self, field):
        vals = {}
        for i, a in enumerate(SEEDED_BATTERY):
            for j, b in enumerate(SEEDED_BATTERY):
                vals[i, j] = getattr(met.distance_report(a, b), field)
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert vals[i, j] <= vals[i, k] + vals[k, j] + 1e-6

    def test_kolmogorov_below_tv(self):
        for a in SEEDED_BATTERY:
            for b in SEEDED_BATTERY:
                rep = met.distance_report(a, b)
                assert rep.d_kol <= rep.d_tv + 1e-9


class TestConvolutionContraction:
    def test_semicircle_family_instance(self):
        # D_a s boxplus D_b s = D_sqrt(a^2+b^2) s, so the W1 contraction
        # bound can be checked entirely in closed form
        a, b, c, d = 1.0, 0.5, 0.8, 0.7
        lhs = met.distance_report(
            dilated_semicircle(math.hypot(a, b), n=8001),
            dilated_semicircle(math.hypot(c, d), n=8001),
        ).d_w1
        rhs = (abs(a - c) + abs(b - d)) * ABS_MOMENT
        assert lhs <= rhs + 1e-4


class TestDistanceReport:
    def test_full_report(self):
        rep = met.distance_report(SEEDED_BATTERY[0], SEEDED_BATTERY[1])
        assert rep.d_kol > 0 and rep.d_tv > 0 and rep.d_w1 > 0
        assert rep.mass_deficit < 1e-3

    def test_tv_refusal_marker(self):
        half = an.GridDensity(-4, 4, 0.5 * np.asarray(SEEDED_BATTERY[0].values))
        rep = met.distance_report(SEEDED_BATTERY[0], half)
        assert rep.d_tv is None
        assert rep.mass_deficit > 0.1

    @pytest.mark.parametrize("i", range(len(SEEDED_BATTERY)))
    @pytest.mark.parametrize("j", range(len(SEEDED_BATTERY)))
    def test_single_metric_views_are_its_fields(self, i, j):
        # one implementation: a one-metric report holds the full report's field,
        # bit for bit, and None for the others
        a, b = SEEDED_BATTERY[i], SEEDED_BATTERY[j]
        rep = met.distance_report(a, b)
        for m in met.ALL_METRICS:
            one = met.distance_report(a, b, (m,))
            assert getattr(one, "d_" + m).hex() == getattr(rep, "d_" + m).hex()
            assert [getattr(one, "d_" + o) for o in met.ALL_METRICS if o != m] == [None, None]

    @pytest.mark.parametrize("metrics", [("foo",), ("kol", "ks"), ("KOL",)])
    def test_unknown_metric_refused(self, metrics):
        # a report must not come back without the distance asked for
        g = SEEDED_BATTERY[0]
        with pytest.raises(ValueError, match="metric"):
            met.distance_report(g, g, metrics)
