"""Stein operator, discrepancy, generator identity, dual equation."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from freestein import cli
from freestein import momentalg as ma
from freestein import stein
from freestein.analytic import MeasureSpec
from freestein.momentalg import MomentSequence
from freestein.stein import MEASURE_BATTERY

BERNOULLI = MomentSequence((1, 0, 1, 0, 1))
# frozen from a one-off sweep of |fd - closed| / theta_step over the battery
# (worst observed ratio ~73 for p <= 8); see TestGeneratorConsistency
FD_CONSTANT = 120.0


class TestOperatorEval:
    def test_constant_function(self):
        for x, y in ((0.5, 2.0), (-1.0, 3.0)):
            assert stein.stein_operator_eval(lambda t: 1.0, x, y) == pytest.approx(-x)

    def test_identity_function(self):
        assert stein.stein_operator_eval(lambda t: t, 1.0, 3.0) == pytest.approx(0.0)

    def test_diagonal_uses_derivative(self):
        val = stein.stein_operator_eval(lambda t: t * t, 1.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_near_diagonal_continuity(self):
        g = lambda t: math.sin(t)
        off = stein.stein_operator_eval(g, 0.4, 0.4 + 1e-6)
        on = stein.stein_operator_eval(g, 0.4, 0.4)
        assert off == pytest.approx(on, abs=1e-5)


class TestDiscrepancy:
    def test_semicircle_is_characterized(self):
        d = stein.stein_discrepancy(ma.semicircle_moments(12))
        assert d == (0,) * 12

    def test_first_entry_is_mean(self):
        m = MeasureSpec.atomic([(2.0, 0.3), (-1.0, 0.7)]).moments(4)
        d = stein.stein_discrepancy(m)
        assert d[0] == m[1]

    def test_bernoulli_fourth(self):
        d = stein.stein_discrepancy(BERNOULLI)
        assert d == (0, 0, 0, -1)

    @pytest.mark.parametrize("order", range(3, 11))
    def test_zero_discrepancy_forces_semicircle(self, order):
        # unique solvability: d = 0 rebuilds the moments one order at a time
        m = [1, 0]
        for r in range(1, order):
            m.append(sum(m[k] * m[r - 1 - k] for k in range(r)))
        rebuilt = MomentSequence(m, validate=False)
        assert stein.stein_discrepancy(rebuilt) == (0,) * order
        assert rebuilt.values == ma.semicircle_moments(order).values

    def test_non_semicircle_has_nonzero_discrepancy(self):
        for mu in MEASURE_BATTERY:
            m = mu.moments(8)
            is_semicircle = m.values == ma.semicircle_moments(8).values
            is_zero = max(map(abs, stein.stein_discrepancy(m))) <= 1e-12
            assert is_zero == is_semicircle


class TestPairingQuadratureOracle:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_discrepancy_matches_2d_quadrature(self, r):
        # dual route: <mu (x) mu, L[x^r]> by pointwise operator evaluation
        # on a density grid.  The discrepancy vector is oriented like the
        # moment recursion, so the raw pairing equals -d_r.
        from freestein.analytic import semicircle_density

        for var in (1.0, 1.21):
            grid = semicircle_density(-3.0, 3.0, 201, variance=var)
            xs, f = grid.x, np.asarray(grid.values)
            g = lambda t: t**r
            vals = np.array(
                [[stein.stein_operator_eval(g, x, y) for y in xs] for x in xs]
            )
            quad = np.trapezoid(np.trapezoid(vals * np.outer(f, f), xs, axis=1), xs)
            moments = [float(np.trapezoid(xs**j * f, xs)) for j in range(r + 2)]
            moments[0] = 1.0
            d_r = stein.stein_discrepancy(MomentSequence(moments, validate=False))[r]
            assert quad == pytest.approx(-d_r, abs=5e-3)


class TestGeneratorApply:
    def test_semicircle_annihilated(self):
        s = ma.semicircle_moments(10)
        for p in range(1, 11):
            assert stein.generator_apply(s, p) == 0

    def test_p1_is_minus_mean(self):
        m = MeasureSpec.atomic([(2.0, 0.3), (-1.0, 0.7)]).moments(2)
        assert stein.generator_apply(m, 1) == -m[1]

    def test_bernoulli_p4(self):
        assert stein.generator_apply(BERNOULLI, 4) == 4

    @pytest.mark.parametrize("kind", [lambda v, d: v, Fraction], ids=["int", "Fraction"])
    def test_exact_closed_form_and_discrepancy(self, kind):
        # not a law: the identity is algebraic, and exact inputs stay exact
        raw = (3, -2, 7, 5, -4, 9, 2, -8)
        m = MomentSequence([1] + [kind(v, j + 2) for j, v in enumerate(raw)], validate=False)
        d = stein.stein_discrepancy(m)
        for p in range(1, m.order + 1):
            got = stein.generator_apply(m, p)
            assert type(got) is type(m[1])
            assert got == -p * m[p] + p * sum(m[l] * m[p - 2 - l] for l in range(p - 1))
            assert got == -p * d[p - 1]

    def test_power_bounds(self):
        # BERNOULLI has order 4: the power p and the table order lie in 1..4
        bern = MEASURE_BATTERY[1]
        cases = [
            (lambda v: stein.generator_apply(BERNOULLI, v), (0, 5), "the power p", "1, 4"),
            (lambda v: stein.finite_difference_table(BERNOULLI, v), (0, 5), "the table order", "1, 4"),
            (lambda v: stein.generator_finite_difference(bern, v), (0, 13), "the power p", "1, 12"),
            (lambda v: stein.monomial_pairings(BERNOULLI, v), (-1, 9),
             "the test polynomial degree deg", "0, 8"),
        ]
        for call, ends, what, bounds in cases:
            for v in (*ends, True, 2.5):
                with pytest.raises(ValueError, match=rf"{what} must be a whole number in \[{bounds}\]"):
                    call(v)


class TestGeneratorConsistency:
    @pytest.mark.parametrize("theta_step", [1e-5, 1e-4])
    def test_fd_within_linear_envelope(self, theta_step, monkeypatch):
        monkeypatch.setattr(stein, "FD_THETA_STEP", theta_step)
        for mu in MEASURE_BATTERY:
            m = mu.moments(8)
            for p in range(1, 9):
                fd = stein.generator_finite_difference(mu, p)
                closed = float(stein.generator_apply(m, p))
                assert abs(fd - closed) <= FD_CONSTANT * theta_step, (mu, p)

    def test_semicircle_fixed_point(self):
        fd = stein.generator_finite_difference(MeasureSpec.semicircle(0, 1), 4)
        assert abs(fd) < 1e-6

    def test_bernoulli_p4_value(self):
        fd = stein.generator_finite_difference(MeasureSpec.atomic([(-1.0, 0.5), (1.0, 0.5)]), 4)
        assert fd == pytest.approx(4.0, abs=1e-3)

    def test_variance_preserved(self):
        for mu in (MEASURE_BATTERY[1], MEASURE_BATTERY[2]):
            fd = stein.generator_finite_difference(mu, 2)
            assert abs(fd) < 1e-6

    @pytest.mark.parametrize("p", [0, -1, -3])
    def test_power_below_one_rejected(self, p):
        # negative powers used to index the moment tuple from its end
        with pytest.raises(ValueError, match="power"):
            stein.generator_finite_difference(MEASURE_BATTERY[1], p)


def semicircle_expectation(coeffs):
    s = ma.semicircle_moments(max(len(coeffs) - 1, 2))
    return sum(c * float(s[p]) for p, c in enumerate(coeffs))


def measure_expectation(mu, coeffs):
    m = mu.moments(max(len(coeffs) - 1, 2))
    return sum(c * float(m[p]) for p, c in enumerate(coeffs))


class TestDualSteinPairing:
    def test_cubic_on_centered_measure(self):
        mu = MeasureSpec.atomic([(2.0, 0.2), (-0.5, 0.8)])
        val = stein.dual_stein_pairing(mu, (0, 0, 0, 1))
        assert val == pytest.approx(-1.5, abs=1e-10)

    def test_semicircle_gives_zero(self):
        s = MeasureSpec.semicircle(0, 1)
        for p in range(1, 7):
            assert abs(stein.dual_stein_pairing(s, [0] * p + [1])) < 1e-12

    def test_linear_on_centered_measure(self):
        mu = MeasureSpec.atomic([(-1.0, 0.5), (1.0, 0.5)])
        assert abs(stein.dual_stein_pairing(mu, (0, 1))) < 1e-14

    @pytest.mark.parametrize("p", range(9))
    def test_solves_dual_equation_over_battery(self, p):
        coeffs = [0.0] * p + [1.0]
        for mu in MEASURE_BATTERY:
            lhs = stein.dual_stein_pairing(mu, coeffs)
            rhs = semicircle_expectation(coeffs) - measure_expectation(mu, coeffs)
            assert abs(lhs - rhs) <= 1e-6, mu

    def test_gauss_rule_is_exact_over_battery(self):
        # integrand/u is a polynomial in u = e^{-theta}: any rule with too
        # few nodes misses by far more than rounding
        for p in range(9):
            coeffs = [0.0] * p + [1.0]
            for mu in MEASURE_BATTERY:
                lhs = stein.dual_stein_pairing(mu, coeffs)
                rhs = semicircle_expectation(coeffs) - measure_expectation(mu, coeffs)
                assert abs(lhs - rhs) <= 1e-12, (p, mu)

    @pytest.mark.parametrize("n_nodes", range(1, 9))
    def test_gauss_rule_matches_leggauss(self, n_nodes):
        nodes, weights = stein._gauss_legendre(n_nodes)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n_nodes)
        assert np.abs(np.array(nodes) - want_nodes).max() <= 1e-15
        assert np.abs(np.array(weights) - want_weights).max() <= 2e-15

    @pytest.mark.parametrize("n_nodes", range(1, 9))
    def test_gauss_rule_is_mirror_symmetric(self, n_nodes):
        nodes, weights = stein._gauss_legendre(n_nodes)
        assert len(nodes) == len(weights) == n_nodes
        assert list(nodes) == sorted(nodes)
        assert nodes == tuple(-x for x in reversed(nodes))
        assert weights == weights[::-1]
        if n_nodes % 2:
            assert nodes[n_nodes // 2] == 0.0
        assert abs(sum(weights) - 2.0) <= 1e-15

    @pytest.mark.parametrize(
        "h, bad",
        [([math.nan], "c_0"), ([1.0, math.inf], "c_1"), (["1", 2], "c_0"), ([True, 1], "c_0")],
    )
    def test_coefficients_obey_the_number_rule(self, h, bad):
        # read by float(), nan and inf would pair to nan, and "1" and True to 0.0
        with pytest.raises(ValueError, match=f"coefficient {bad} of h must be a finite real"):
            stein.dual_stein_pairing(MEASURE_BATTERY[1], h)

    def test_empty_h_pairs_to_float_zero(self):
        value = stein.dual_stein_pairing(MEASURE_BATTERY[2], [])
        assert value == 0.0 and type(value) is float

    def test_bilinearity(self):
        rng = np.random.default_rng(77)
        mu = MEASURE_BATTERY[3]
        for _ in range(5):
            h1 = rng.normal(size=7)
            h2 = rng.normal(size=7)
            a, b = rng.normal(size=2)
            combo = [a * c1 + b * c2 for c1, c2 in zip(h1, h2)]
            lhs = stein.dual_stein_pairing(mu, combo)
            rhs = a * stein.dual_stein_pairing(mu, h1) + b * stein.dual_stein_pairing(mu, h2)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("n_coeffs", [10, 14])
    def test_degree_of_h_is_checked_before_any_moment(self, n_coeffs):
        class NoMoments:
            def moments(self, order):
                raise AssertionError(f"moments({order}) computed for a refused h")

        refusal = rf"the degree of h must be a whole number in \[0, 8\], got {n_coeffs - 1}"
        with pytest.raises(ValueError, match=refusal):
            stein.dual_stein_pairing(NoMoments(), [0] * n_coeffs)

    def test_parameter_guards(self):
        mu = MEASURE_BATTERY[0]
        with pytest.raises(ValueError):
            stein.dual_stein_pairing(mu, [0] * 9 + [1])
        # the rule covers the whole flow u = e^{-theta} in [0, 1]: no horizon to set
        with pytest.raises(TypeError):
            stein.dual_stein_pairing(mu, (0, 1), theta_max=40.0)


class TestFlowTables:
    @pytest.mark.parametrize("theta_step", [1e-5, 1e-4])
    def test_fd_table_is_the_per_power_definition(self, theta_step, monkeypatch):
        # oracle: one flow per power p, truncated at max(p, 2)
        monkeypatch.setattr(stein, "FD_THETA_STEP", theta_step)
        for mu in MEASURE_BATTERY:
            table = stein.finite_difference_table(mu.moments(8), 8)
            assert len(table) == 8
            # a longer moment sequence is read as its prefix
            assert stein.finite_difference_table(mu.moments(12), 8) == table
            for p in range(1, 9):
                m0 = mu.moments(max(p, 2))
                m1 = stein.evolved_moments(m0, theta_step)
                assert table[p - 1] == (float(m1[p]) - float(m0[p])) / theta_step, (mu, p)

    def test_fd_table_guards(self):
        m = MEASURE_BATTERY[1].moments(4)
        for order in (0, 5):
            with pytest.raises(ValueError, match="order"):
                stein.finite_difference_table(m, order)

    def test_monomial_pairings_solve_dual_equation(self):
        for mu in MEASURE_BATTERY:
            table = stein.monomial_pairings(mu.moments(8), 8)
            assert len(table) == 9 and table[0] == 0.0
            assert stein.monomial_pairings(mu.moments(12), 8) == table
            for p in range(1, 9):
                coeffs = [0.0] * p + [1.0]
                rhs = semicircle_expectation(coeffs) - measure_expectation(mu, coeffs)
                assert abs(table[p] - rhs) <= 1e-12, (p, mu)

    def test_dual_pairing_is_the_table_combination(self):
        rng = np.random.default_rng(5)
        for mu in MEASURE_BATTERY:
            for deg in range(9):
                h = rng.normal(size=deg + 1).tolist()
                table = stein.monomial_pairings(mu.moments(max(deg, 2)), deg)
                want = sum(c * t for c, t in zip(h, table))
                assert stein.dual_stein_pairing(mu, h) == want

    def test_stein_check_runs_one_flow_per_table(self, monkeypatch, capsys):
        calls = {"cumulants_to_moments": 0, "moments_to_cumulants": 0}

        def counted(name):
            original = getattr(stein, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(stein, name, counted(name))
        bern = json.dumps({"type": "atomic", "atoms": [[-1.0, 0.5], [1.0, 0.5]]})
        assert cli.main(["stein-check", "--measure", bern, "--order", "8"]) == 0
        capsys.readouterr()
        # one evolution for the generator column, one per Gauss node (6//2 + 2)
        # for the dual column, and one cumulant transform per table
        assert calls["cumulants_to_moments"] <= 6
        assert calls["moments_to_cumulants"] <= 2


def measure_json(mu: MeasureSpec) -> str:
    if mu.kind == "semicircle":
        return json.dumps({"type": "semicircle", "mean": mu.mean, "variance": mu.variance})
    return json.dumps({"type": "atomic", "atoms": [list(a) for a in mu.atoms]})


class TestNoLapack:
    """stein-check takes its Gauss-Legendre rule from the Legendre recurrence, not LAPACK."""

    @pytest.mark.parametrize("order", [2, 6, 8, 12])
    @pytest.mark.parametrize("law", range(len(MEASURE_BATTERY)))
    def test_stein_check_runs_without_linalg(self, law, order, monkeypatch, capsys):
        argv = ["stein-check", "--measure", measure_json(MEASURE_BATTERY[law]), "--order", str(order)]
        assert cli.main(argv) == 0
        want = capsys.readouterr().out

        def refused(*args, **kwargs):
            raise AssertionError("stein-check called numpy.linalg")

        for name in ("eigh", "eigvalsh", "svd", "inv"):
            monkeypatch.setattr(np.linalg, name, refused)
        stein._gauss_legendre.cache_clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want


class TestEvolveCumulants:
    def test_fixed_point_of_flow(self):
        kappa = ma.moments_to_cumulants(ma.semicircle_moments(8))
        out = stein.evolve_cumulants(kappa, 1.7)
        assert max(abs(a - b) for a, b in zip(out.values, kappa.values)) < 1e-15

    def test_decay_rates(self):
        kappa = ma.moments_to_cumulants(
            MeasureSpec.atomic([(2.0, 0.2), (-0.5, 0.8)]).moments(6)
        )
        theta = 0.8
        out = stein.evolve_cumulants(kappa, theta)
        u = math.exp(-theta)
        for j in range(1, 7):
            expect = u**j * kappa[j] + (1 - u * u if j == 2 else 0.0)
            assert out[j] == pytest.approx(expect, abs=1e-15)

    def test_negative_theta_rejected(self):
        kappa = ma.moments_to_cumulants(BERNOULLI)
        with pytest.raises(ValueError):
            stein.evolve_cumulants(kappa, -0.5)
