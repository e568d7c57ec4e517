"""Moment/cumulant transforms and mixed moments against explicit non-crossing-sum oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freestein import momentalg as ma
from freestein import ncpart, ncsymb
from freestein.analytic import MeasureSpec
from freestein.momentalg import FreeCumulantSequence, MomentSequence
from test_ncpart import nc_kreweras_size_pairs, nc_type_counts


def atomic_moments(atoms, order):
    vals = [sum(w * p**j for p, w in atoms) for j in range(order + 1)]
    vals[0] = 1
    return MomentSequence(vals, validate=False)


def brute_cumulant(m: MomentSequence, n: int):
    """Oracle: kappa_n = sum over NC(n) of m_sigma * mu(sigma, 1-hat)."""
    top = ncpart.NcPartition.one(n)
    total = 0
    for sigma in ncpart.enumerate_nc(n):
        prod = 1
        for block in sigma.blocks:
            prod *= m[len(block)]
        total += prod * ncpart.mobius(sigma, top)
    return total


def brute_moment(kappa: FreeCumulantSequence, n: int):
    """Oracle: m_n = sum over NC(n) of the cumulant block product."""
    total = 0
    for pi in ncpart.enumerate_nc(n):
        prod = 1
        for block in pi.blocks:
            prod *= kappa[len(block)]
        total += prod
    return total


def type_count_moment(kappa: FreeCumulantSequence, n: int):
    """Oracle: m_n = sum over block types of NC(n) of count * prod kappa_s."""
    total = 0
    for sizes, cnt in nc_type_counts(n).items():
        term = cnt
        for s in sizes:
            term = term * kappa[s]
        total = total + term
    return total


def lattice_mixed_moment(kappa_a: FreeCumulantSequence, m_b: MomentSequence, n: int):
    """Oracle: tau[(ab)^n] = sum over pi in NC(n) of kappa_pi[a] * m_{K(pi)}[b]."""
    total = 0
    for sizes_pi, sizes_k in nc_kreweras_size_pairs(n):
        term = 1
        for s in sizes_pi:
            term = term * kappa_a[s]
        for s in sizes_k:
            term = term * m_b[s]
        total = total + term
    return total


BERNOULLI = MomentSequence((1, 0, 1, 0, 1))


class TestSemicircleMoments:
    def test_recursion_values(self):
        assert ma.semicircle_moments(6).values == (1, 0, 1, 0, 2, 0, 5)

    def test_one_step(self):
        assert ma.semicircle_moments(2).values == (1, 0, 1)

    def test_odd_vanish(self):
        m = ma.semicircle_moments(11)
        assert all(m[j] == 0 for j in range(1, 12, 2))

    def test_even_are_catalan(self):
        m = ma.semicircle_moments(12)
        assert all(m[2 * k] == ncpart.catalan(k) for k in range(7))


class TestMomentSequenceValidation:
    def test_m0_must_be_one(self):
        with pytest.raises(ValueError, match="m_0"):
            MomentSequence((2, 0, 1))

    def test_hankel_rejection(self):
        # m_4 < m_2^2 is impossible for a measure
        with pytest.raises(ValueError, match="Hankel"):
            MomentSequence((1, 0, 1, 0, 0.5))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            MomentSequence((1, 0, float("inf")))

    def test_genuine_measure_accepted(self):
        MomentSequence((1, 0, 1, 0, 2, 0, 5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_cumulant_rejected(self, bad):
        with pytest.raises(ValueError, match="cumulants must be finite"):
            FreeCumulantSequence((0.0, 1.0, bad))

    @pytest.mark.parametrize(
        "kappa, bad", [(["0", "1"], "kappa_1 = '0'"), ([0.0, True], "kappa_2 = True")]
    )
    def test_cumulants_obey_the_number_rule(self, kappa, bad):
        # refused at construction, not later as a TypeError inside cumulants_to_moments
        with pytest.raises(ValueError, match=f"cumulants must be finite reals, got {bad}"):
            FreeCumulantSequence(kappa)

    @pytest.mark.parametrize(
        "moments, bad", [([1, "0", "1", "0"], "m_1 = '0'"), ([1, 0, True], "m_2 = True")]
    )
    def test_validated_moments_obey_the_number_rule(self, moments, bad):
        # refused at construction, not later as a TypeError inside moments_to_cumulants
        with pytest.raises(ValueError, match=f"moments must be finite reals, got {bad}"):
            MomentSequence(moments)

    def test_exact_cumulants_kept_as_given(self):
        kappa = (Fraction(1, 3), 2, np.float64(0.5))
        assert FreeCumulantSequence(kappa).values == kappa

    def test_truncated_is_the_prefix(self):
        m = MomentSequence((1, 0, 1, 0, 2, 0, 5))
        assert m.truncated(4) == MomentSequence((1, 0, 1, 0, 2))
        assert m.truncated(6) == m
        for order in (1, 7, True, 2.5):
            with pytest.raises(ValueError, match=r"truncation order must be a whole number in \[2, 6\]"):
                m.truncated(order)

    @pytest.mark.parametrize(
        "atoms",
        [{0: Fraction(1, 2), 4: Fraction(1, 2)}, {-2: Fraction(1, 3), 0: Fraction(1, 3), 5: Fraction(1, 3)}],
        ids=["two-atom", "three-atom"],
    )
    def test_exact_moments_of_wide_laws_accepted(self, atoms):
        # m_12 is 8e6 and 8e7, so float rounding in the Hankel eigenvalues
        # exceeds an absolute tolerance
        MomentSequence([sum(w * Fraction(p) ** j for p, w in atoms.items()) for j in range(13)])


class TestTransforms:
    def test_semicircle_cumulants_exact(self):
        kappa = ma.moments_to_cumulants(ma.semicircle_moments(10))
        assert kappa.values == (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_bernoulli_free_kurtosis(self):
        kappa = ma.moments_to_cumulants(BERNOULLI)
        assert kappa[2] == 1 and kappa[4] == -1

    def test_point_mass_zero(self):
        kappa = ma.moments_to_cumulants(MomentSequence((1, 0, 0, 0, 0), validate=False))
        assert kappa.values == (0, 0, 0, 0)

    def test_point_mass_moments(self):
        m = ma.cumulants_to_moments(FreeCumulantSequence((3, 0, 0, 0)))
        assert m.values == (1, 3, 9, 27, 81)

    def test_pair_partition_count(self):
        # kappa = (0,1,0,...) -> even moments count NC pair partitions
        m = ma.cumulants_to_moments(FreeCumulantSequence((0, 1, 0, 0, 0, 0, 0, 0)))
        assert m.values == ma.semicircle_moments(8).values

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cumulants_match_mobius_sum_oracle(self, n):
        m = atomic_moments([(2.0, 0.2), (-0.5, 0.8)], 7)
        kappa = ma.moments_to_cumulants(m)
        assert abs(kappa[n] - brute_cumulant(m, n)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 8))
    def test_moments_match_nc_sum_oracle(self, n):
        kappa = FreeCumulantSequence((0.3, 1.1, -0.4, 0.2, 0.05, -0.6, 0.7))
        m = ma.cumulants_to_moments(kappa)
        assert abs(m[n] - brute_moment(kappa, n)) < 1e-12

    @pytest.mark.parametrize("order", range(2, ma.MAX_ORDER + 1))
    def test_exact_against_type_count_oracle(self, order):
        rng = random.Random(order)
        for _ in range(5):
            for kappa in (
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)],
                [rng.randint(-5, 5) for _ in range(order)],
            ):
                k = FreeCumulantSequence(kappa)
                want = tuple(type_count_moment(k, n) for n in range(order + 1))
                m = ma.cumulants_to_moments(k)
                assert m.values == want
                assert ma.moments_to_cumulants(m).values == k.values
                if all(type(v) is int for v in kappa):
                    assert all(type(v) is int for v in m.values)

    def test_rational_round_trip_is_exact(self):
        atoms = [(Fraction(3, 2), Fraction(1, 3)), (Fraction(-3, 4), Fraction(2, 3))]
        m = MomentSequence(
            [sum(w * p**j for p, w in atoms) for j in range(11)], validate=False
        )
        back = ma.cumulants_to_moments(ma.moments_to_cumulants(m))
        assert back.values == m.values

    def test_order_cap(self):
        vals = ma.semicircle_moments(13)
        with pytest.raises(ValueError, match=r"the transform order must be a whole number in \[1, 12\]"):
            ma.moments_to_cumulants(MomentSequence(vals.values, validate=False))
        # the exact semicircle moments reach twice the transform cap; order 20000 took 31 s
        for order in (1, 2 * ma.MAX_ORDER + 1, 20_000, True, 2.5):
            with pytest.raises(ValueError, match=r"the moment order must be a whole number in \[2, 24\]"):
                ma.semicircle_moments(order)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-2, 2), st.floats(0.05, 1.0)),
        min_size=2,
        max_size=4,
        unique_by=lambda t: round(t[0], 3),
    )
)
def test_round_trip_random_atomic(atoms):
    total = sum(w for _, w in atoms)
    atoms = [(p, w / total) for p, w in atoms]
    m = atomic_moments(atoms, 10)
    back = ma.cumulants_to_moments(ma.moments_to_cumulants(m))
    scale = max(abs(v) for v in m.values)
    assert max(abs(a - b) for a, b in zip(m.values, back.values)) <= 1e-12 * max(1.0, scale)


class TestConvolve:
    def test_point_mass_is_identity(self):
        s = ma.semicircle_moments(6)
        delta = MomentSequence((1, 0, 0, 0, 0, 0, 0), validate=False)
        assert ma.free_convolve_cumulants(s, delta).values == s.values

    def test_bernoulli_squared_is_arcsine(self):
        m = ma.free_convolve_cumulants(
            MomentSequence((1, 0, 1, 0, 1, 0, 1)), MomentSequence((1, 0, 1, 0, 1, 0, 1))
        )
        # arcsine on [-2, 2]: m_{2k} = binom(2k, k)
        assert m.values == (1, 0, 2, 0, 6, 0, 20)

    def test_semicircle_variances_add(self):
        s1 = ma.semicircle_moments(8)
        out = ma.free_convolve_cumulants(s1, s1)
        expected = ma.cumulants_to_moments(FreeCumulantSequence((0, 2, 0, 0, 0, 0, 0, 0)))
        assert out.values == expected.values

    def test_cumulant_additivity(self):
        a = atomic_moments([(1.0, 0.5), (-1.0, 0.5)], 8)
        b = atomic_moments([(2.0, 0.2), (-0.5, 0.8)], 8)
        ka = ma.moments_to_cumulants(a)
        kb = ma.moments_to_cumulants(b)
        kc = ma.moments_to_cumulants(ma.free_convolve_cumulants(a, b))
        for j in range(1, 9):
            assert abs(kc[j] - (ka[j] + kb[j])) < 1e-12

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="orders"):
            ma.free_convolve_cumulants(ma.semicircle_moments(4), ma.semicircle_moments(6))


class TestDilate:
    def test_identity(self):
        m = ma.semicircle_moments(6)
        assert ma.dilate_moments(m, 1).values == m.values

    def test_reflection_fixes_symmetric(self):
        m = ma.semicircle_moments(6)
        assert ma.dilate_moments(m, -1).values == m.values

    def test_scaling(self):
        m = ma.dilate_moments(ma.semicircle_moments(4), 1 / math.sqrt(2))
        assert abs(m[2] - 0.5) < 1e-15 and abs(m[4] - 0.5) < 1e-15

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ma.dilate_moments(ma.semicircle_moments(4), 0)

    def test_cumulant_covariance(self):
        m = atomic_moments([(1.5, 4 / 13), (-2 / 3, 9 / 13)], 8)
        r = 0.7
        lhs = ma.moments_to_cumulants(ma.dilate_moments(m, r))
        rhs = ma.moments_to_cumulants(m)
        for j in range(1, 9):
            assert abs(lhs[j] - r**j * rhs[j]) < 1e-12


class TestShift:
    def test_shift_moves_mean(self):
        m = ma.shift_moments(ma.semicircle_moments(6), 0.5)
        assert m[1] == 0.5
        assert abs((m[2] - m[1] ** 2) - 1.0) < 1e-15


class TestPushforwardArguments:
    @pytest.mark.parametrize("v", [float("nan"), float("inf"), -float("inf"), True, "2", None, 10**400])
    def test_non_finite_or_non_real_refused(self, v):
        m = ma.semicircle_moments(4)
        with pytest.raises(ValueError, match="the dilation r must be a finite real"):
            ma.dilate_moments(m, v)
        with pytest.raises(ValueError, match="the shift c must be a finite real"):
            ma.shift_moments(m, v)

    def test_int_and_fraction_stay_exact(self):
        m = ma.semicircle_moments(4)
        assert ma.dilate_moments(m, Fraction(1, 2)).values == (1, 0, Fraction(1, 4), 0, Fraction(1, 8))
        assert ma.shift_moments(m, 2).values == (1, 2, 5, 14, 42)
        assert all(type(v) is int for v in ma.shift_moments(m, 2).values)


class TestMixedMoment:
    def test_n1_factorizes(self):
        a = atomic_moments([(2.0, 0.2), (-0.5, 0.8)], 4)
        b = atomic_moments([(1.0, 0.3), (-0.2, 0.7)], 4)
        ka = ma.moments_to_cumulants(a)
        assert abs(ma.mixed_moment(ka, b, 1) - a[1] * b[1]) < 1e-14

    def test_n2_freeness_identity(self):
        # tau[abab] = m1[a]^2 m2[b] + m2[a] m1[b]^2 - m1[a]^2 m1[b]^2
        a = atomic_moments([(2.0, 0.2), (-0.5, 0.8)], 4)
        b = atomic_moments([(1.0, 0.3), (-0.2, 0.7)], 4)
        ka = ma.moments_to_cumulants(a)
        expected = a[1] ** 2 * b[2] + a[2] * b[1] ** 2 - a[1] ** 2 * b[1] ** 2
        assert abs(ma.mixed_moment(ka, b, 2) - expected) < 1e-14

    def test_centered_pairs_vanish(self):
        # for centered free a, b the alternating word abab has zero trace;
        # frozen from the n = 2 freeness identity with m_1 = 0
        kb = ma.moments_to_cumulants(BERNOULLI)
        assert ma.mixed_moment(kb, BERNOULLI, 2) == 0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_against_lattice_oracle(self, n):
        rng = random.Random(n)
        for _ in range(2):
            ka = FreeCumulantSequence(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            )
            mb = MomentSequence(
                [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(max(n, 2))],
                validate=False,
            )
            assert ma.mixed_moment(ka, mb, n) == lattice_mixed_moment(ka, mb, n)
            ka_int = FreeCumulantSequence([rng.randint(-4, 4) for _ in range(n)])
            mb_int = MomentSequence(
                [1] + [rng.randint(-4, 4) for _ in range(max(n, 2))], validate=False
            )
            got = ma.mixed_moment(ka_int, mb_int, n)
            assert type(got) is int
            assert got == lattice_mixed_moment(ka_int, mb_int, n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_floats_against_lattice_oracle(self, n):
        a = atomic_moments([(1.5, 4 / 13), (-2 / 3, 9 / 13)], max(n, 2))
        b = atomic_moments([(-1.2, 0.25), (0.1, 0.5), (1.7, 0.25)], max(n, 2))
        ka = ma.moments_to_cumulants(a)
        want = lattice_mixed_moment(ka, b, n)
        assert abs(ma.mixed_moment(ka, b, n) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10, 11, 12])
    def test_trace_symmetry(self, n):
        a = atomic_moments([(2.0, 0.2), (-0.5, 0.8)], 12)
        b = atomic_moments([(1.0, 0.5), (-1.0, 0.5)], 12)
        lhs = ma.mixed_moment(ma.moments_to_cumulants(a), b, n)
        rhs = ma.mixed_moment(ma.moments_to_cumulants(b), a, n)
        assert abs(lhs - rhs) < 1e-12

    def test_truncation_error(self):
        ka = ma.moments_to_cumulants(BERNOULLI)
        with pytest.raises(ValueError):
            ma.mixed_moment(ka, BERNOULLI, 6)

    @pytest.mark.parametrize("n", [0, ma.MAX_ORDER + 1, True, 2.5])
    def test_order_bounds(self, n):
        ka = FreeCumulantSequence([1] * 13)
        mb = MomentSequence([1] * 14, validate=False)
        with pytest.raises(ValueError, match=r"the word length n must be a whole number in \[1, 12\]"):
            ma.mixed_moment(ka, mb, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_oracle(self, n):
        # asymptotic-freeness oracle: deterministic diagonal A against a
        # Haar-rotated copy of B approximates free mixed moments to O(1/d^2)
        rng = np.random.default_rng(1234)
        d = 10
        a_diag = np.diag([2.0] * 2 + [-0.5] * 8).astype(complex)
        b_diag = np.diag([1.0] * 5 + [-1.0] * 5).astype(complex)
        word = (ncsymb.NcPolynomial.letter("A") * ncsymb.NcPolynomial.letter("R")) ** n
        acc = 0.0
        samples = 400
        for _ in range(samples):
            gauss = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            u, r = np.linalg.qr(gauss)
            u = u * (np.diag(r) / np.abs(np.diag(r)))
            b_rot = u @ b_diag @ u.conj().T
            acc += np.trace(ncsymb.eval_matrix(word, a_diag, b_rot, 0.0)).real / d
        estimate = acc / samples
        a = atomic_moments([(2.0, 0.2), (-0.5, 0.8)], 8)
        b = atomic_moments([(1.0, 0.5), (-1.0, 0.5)], 8)
        exact = ma.mixed_moment(ma.moments_to_cumulants(a), b, n)
        assert abs(estimate - exact) < 0.05


class TestMatchingRank:
    def test_semicircle_matches_everything(self):
        m = ma.semicircle_moments(10)
        assert ma.matching_rank(m) == 10

    def test_bernoulli_rank_3(self):
        assert ma.matching_rank(BERNOULLI) == 3

    def test_asymmetric_rank_2(self):
        m = atomic_moments([(2.0, 0.2), (-0.5, 0.8)], 6)
        assert m[3] == pytest.approx(1.5)
        assert ma.matching_rank(m) == 2

    def test_rank_at_least_2(self):
        for atoms in ([(1.0, 0.5), (-1.0, 0.5)], [(2.0, 0.2), (-0.5, 0.8)]):
            assert ma.matching_rank(atomic_moments(atoms, 6)) >= 2

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ma.matching_rank(MomentSequence((1, 2, 4, 8), validate=False))


class TestGaussAnalog:
    def test_standardized_gives_standard(self):
        m = atomic_moments([(1.0, 0.5), (-1.0, 0.5)], 8)
        assert ma.gauss_analog(m).values == ma.semicircle_moments(8).values

    def test_variance_4_scaling(self):
        m = MomentSequence((1, 0, 4, 0, 40), validate=False)
        g = ma.gauss_analog(m)
        assert g[2] == 4 and g[4] == 2 * 16

    def test_idempotent(self):
        m = atomic_moments([(2.0, 0.2), (-0.5, 0.8)], 8)
        g = ma.gauss_analog(m)
        assert ma.gauss_analog(g).values == g.values

    def test_mean_variance_match(self):
        mu = MeasureSpec.semicircle(-0.3, 0.49)
        m = mu.moments(6)
        g = ma.gauss_analog(m)
        assert float(g[1]) == pytest.approx(float(m[1]), abs=1e-14)
        assert float(g[2]) == pytest.approx(float(m[2]), abs=1e-14)
