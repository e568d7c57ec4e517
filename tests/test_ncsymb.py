"""Word algebra, expansion bookkeeping, and the matrix oracle."""

import numpy as np
import pytest

from freestein import ncsymb
from freestein.ncsymb import NcPolynomial

A = NcPolynomial.letter("A")
R = NcPolynomial.letter("R")
Z_TEST = 2.5 + 0.5j


def seeded_pairs(count, dim, seed=31):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m1 = ncsymb._disc_matrix(rng, dim) / dim
        m2 = ncsymb._disc_matrix(rng, dim) / dim
        out.append((0.5 * (m1 + m1.conj().T), m2))
    return out


class TestPolynomialAlgebra:
    def test_unit_and_letters(self):
        assert NcPolynomial.unit().n_terms == 1
        assert (A * NcPolynomial.unit()) == A

    def test_word_merge(self):
        prod = A * A * R
        assert list(prod.terms) == [(("A", 2), ("R", 1))]

    def test_addition_cancels(self):
        zero = A - A
        assert zero.n_terms == 0

    def test_scalar_z_commutes(self):
        # z lives in the coefficient ring: (zA)(R) == z(AR)
        za = A.scale((0, 1))
        assert (za * R) == (A * R).scale((0, 1))

    def test_power_guard(self):
        with pytest.raises(ValueError):
            A**-1

    def test_blowup_guard(self):
        dense = NcPolynomial.unit()
        for exp in range(1, 10):
            dense = dense + NcPolynomial.letter("A", exp) + NcPolynomial.letter("R", exp)
        with pytest.raises(RuntimeError, match="terms"):
            ncsymb.expand_power(dense, 6)


class TestDeltaPoly:
    def test_monomial_count(self):
        # z is a scalar, so zR and Rz merge: 2zR - AR - RA - R^2
        assert ncsymb.delta_poly().n_terms == 4

    def test_coefficients(self):
        d = ncsymb.delta_poly()
        assert d.coefficient([("A", 1), ("R", 1)]) == (-1,)
        assert d.coefficient([("R", 1), ("A", 1)]) == (-1,)
        assert d.coefficient([("R", 2)]) == (-1,)
        assert d.coefficient([("R", 1)]) == (0, 2)

    def test_difference_of_squares_identity(self):
        worst = 0.0
        for dim in (2, 4, 6):
            for a, r in seeded_pairs(17, dim, seed=dim):
                eye = np.eye(dim)
                lhs = ncsymb.eval_matrix(ncsymb.delta_poly(), a, r, Z_TEST)
                za = Z_TEST * eye - a
                rhs = za @ za - (za - r) @ (za - r)
                worst = max(worst, np.abs(lhs - rhs).max())
        assert worst < 1e-11

    def test_closed_form_matches_word_evaluation(self):
        worst = 0.0
        for a, r in ncsymb.random_matrix_battery(50, 6):
            lhs = ncsymb.eval_matrix(ncsymb.delta_poly(), a, r, Z_TEST)
            worst = max(worst, np.abs(lhs - ncsymb._delta_matrix(a, r, Z_TEST)).max())
        assert worst < 1e-15

    def test_commuting_diagonal_case(self):
        a = np.diag([0.5, -0.3]).astype(complex)
        r = np.diag([0.2, 0.7]).astype(complex)
        lhs = ncsymb.eval_matrix(ncsymb.delta_poly(), a, r, 0.0)
        rhs = -2 * a @ r - r @ r
        assert np.abs(lhs - rhs).max() < 1e-15


class TestExpandPower:
    def test_power_zero_is_unit(self):
        assert ncsymb.expand_power(ncsymb.a_delta(), 0) == NcPolynomial.unit()

    def test_power_one(self):
        ad = ncsymb.expand_power(ncsymb.a_delta(), 1)
        # 2zAR - A^2R - ARA - AR^2
        assert ad.coefficient([("A", 1), ("R", 1)]) == (0, 2)
        assert ad.coefficient([("A", 2), ("R", 1)]) == (-1,)
        assert ad.coefficient([("A", 1), ("R", 1), ("A", 1)]) == (-1,)
        assert ad.coefficient([("A", 1), ("R", 2)]) == (-1,)
        assert ad.n_terms == 4

    @pytest.mark.parametrize("j", range(1, 7))
    def test_support_condition(self, j):
        # core multi-indices (boundary A-runs stripped) stay shorter than 2j
        expansion = ncsymb.expand_power(ncsymb.a_delta(), j)
        for word in expansion.terms:
            assert len(ncsymb.core_multi_index(word)) < 2 * j

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_expansion_evaluates_consistently(self, j):
        for a, r in seeded_pairs(5, 4, seed=j):
            direct = np.linalg.matrix_power(
                ncsymb.eval_matrix(ncsymb.a_delta(), a, r, Z_TEST), j
            )
            expanded = ncsymb.eval_matrix(
                ncsymb.expand_power(ncsymb.a_delta(), j), a, r, Z_TEST
            )
            assert np.abs(direct - expanded).max() < 1e-11

    def test_power_cap(self):
        with pytest.raises(ValueError):
            ncsymb.expand_power(ncsymb.a_delta(), 7)


class TestEvalMatrix:
    def test_unit_polynomial(self):
        a, r = seeded_pairs(1, 3)[0]
        assert np.array_equal(
            ncsymb.eval_matrix(NcPolynomial.unit(), a, r, 1.0), np.eye(3)
        )

    def test_homomorphism(self):
        p = ncsymb.a_delta()
        q = ncsymb.delta_poly() + A.scale((0.5, -1))
        for a, r in seeded_pairs(5, 4, seed=9):
            lhs = ncsymb.eval_matrix(p * q, a, r, Z_TEST)
            rhs = ncsymb.eval_matrix(p, a, r, Z_TEST) @ ncsymb.eval_matrix(q, a, r, Z_TEST)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_guards(self):
        for a, r in ((np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3)))):
            with pytest.raises(ValueError, match="square matrices of the same dimension"):
                ncsymb.eval_matrix(A, a, r, 0.0)
        with pytest.raises(ValueError):
            ncsymb.eval_matrix(A, np.eye(13), np.eye(13), 0.0)


class TestResolventLemma:
    def test_zero_increment_collapses(self):
        a = seeded_pairs(1, 4)[0][0]
        r = np.zeros((4, 4), dtype=complex)
        assert ncsymb.resolvent_lemma_check(a, r, Z_TEST, 1) < 1e-15

    def test_scalar_arithmetic_case(self):
        # d = 1, A = 0, R = 1, z = 3: 1/4 = (1/4)(5)(1/9) + 1/9
        res = ncsymb.resolvent_lemma_check(
            np.array([[0.0]]), np.array([[1.0]]), 3.0, 1
        )
        assert res < 1e-15

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_seeded_battery(self, q):
        for a, r in ncsymb.random_matrix_battery(50, 6):
            assert ncsymb.resolvent_lemma_check(a, r, Z_TEST, q) < 1e-9

    def test_conditioning_rejected(self):
        a = np.diag([2.5, 0.0]).astype(complex)
        r = 0.1 * np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="conditioned"):
            ncsymb.resolvent_lemma_check(a, r, 2.5 + 1e-9j, 1)

    def test_only_shifted_increment_ill_conditioned(self):
        # z - A is well conditioned; R moves an eigenvalue of A + R onto z
        a = np.diag([0.0, 1.0]).astype(complex)
        r = np.diag([2.5 + 1e-12j, 0.0])
        assert np.linalg.cond(2.5 + 1e-12j - a) < ncsymb.COND_LIMIT
        with pytest.raises(ValueError, match="z - A - R too ill-conditioned"):
            ncsymb.resolvent_lemma_check(a, r, 2.5 + 1e-12j, 1)

    def test_z_minus_a_refused_first(self):
        a = np.diag([2.5, 0.0]).astype(complex)
        r = np.diag([0.0, 2.5]).astype(complex)
        with pytest.raises(ValueError, match=r"resolvent z - A too"):
            ncsymb.resolvent_lemma_check(a, r, 2.5 + 1e-12j, 1)

    @pytest.mark.parametrize(
        "a, r",
        [
            (np.eye(2), np.eye(3)),
            (np.ones((2, 3)), np.ones((2, 3))),
            (np.ones(3), np.ones(3)),
        ],
        ids=["mismatched", "non-square", "vector"],
    )
    def test_bad_shapes_refused(self, a, r):
        with pytest.raises(ValueError, match="square matrices of the same dimension"):
            ncsymb.resolvent_lemma_check(a, r, Z_TEST, 1)

    def test_q_bounds(self):
        a, r = seeded_pairs(1, 4)[0]
        for q in (0, 6):
            with pytest.raises(ValueError):
                ncsymb.resolvent_lemma_check(a, r, Z_TEST, q)


class TestBattery:
    def test_reproducible(self):
        b1 = ncsymb.random_matrix_battery(5, 6)
        b2 = ncsymb.random_matrix_battery(5, 6)
        for (a1, r1), (a2, r2) in zip(b1, b2):
            assert np.array_equal(a1, a2) and np.array_equal(r1, r2)

    def test_hermitian_first_slot(self):
        for a, _ in ncsymb.random_matrix_battery(5, 6):
            assert np.abs(a - a.conj().T).max() < 1e-15
