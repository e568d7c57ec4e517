"""Word algebra, expansion bookkeeping, and the matrix oracle."""

import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from freestein import ncsymb
from freestein.ncsymb import NcPolynomial

A = NcPolynomial.letter("A")
R = NcPolynomial.letter("R")
Z_TEST = 2.5 + 0.5j
# sha256 of the bytes of A, R, A, R, ... of random_matrix_battery(50, 6)
BATTERY_50_6_SHA256 = "8fe83dbef3216400756cf17c5c6bbd75fd3476cb022de0f9adf32d9b6cd181cb"


def oracle_mul(p, q):
    """The product without memoised coefficient products: every pair multiplied afresh."""
    out = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            w = w1 + w2
            prod = ncsymb._zp_mul(c1, c2)
            out[w] = ncsymb._zp_add(out.get(w, ()), prod) if w in out else prod
    return NcPolynomial(out)


def oracle_power(p, j):
    acc = NcPolynomial.unit()
    for _ in range(j):
        acc = oracle_mul(acc, p)
    return acc


def oracle_shifted_conds(a, r, z):
    """z - A and z - A - R stacked, with their condition numbers from one batched SVD."""
    shifted = z * np.eye(a.shape[0], dtype=complex) - np.stack((a, a + r))
    sv = np.linalg.svd(shifted, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return shifted, sv[:, 0] / sv[:, -1]


def oracle_residual(a, r, z, q):
    """The residual computed from scratch for one call, nothing kept between calls."""
    shifted, conds = oracle_shifted_conds(a, r, z)
    for cond, name in zip(conds, ("z - A", "z - A - R")):
        if not cond < ncsymb.COND_LIMIT:
            raise ValueError(f"resolvent {name} too ill-conditioned (cond {cond:.2e})")
    res = np.linalg.inv(shifted)
    g_a, g_ar = res @ res
    dg = (2.0 * z * r - a @ r - r @ a - r @ r) @ g_a
    eye = np.eye(a.shape[0], dtype=complex)
    power, series = eye, np.zeros_like(eye)
    for _ in range(q):
        series += power
        power = power @ dg
    rhs = g_ar @ power + g_a @ series
    return float(np.abs(g_ar - rhs).max())


def oracle_battery(count, dim, seed=20240901):
    """The battery's draws with the acceptance rule written out: both condition numbers below the limit."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m1 = ncsymb._disc_matrix(rng, dim) / dim
        r = ncsymb._disc_matrix(rng, dim) / dim
        a = 0.5 * (m1 + m1.conj().T)
        if (oracle_shifted_conds(a, r, 2.5 + 0.5j)[1] < ncsymb.COND_LIMIT).all():
            out.append((a, r))
    return out


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
        assert list(prod.terms) == ["AAR"]

    def test_written_out_word_equals_the_letter_power(self):
        assert NcPolynomial({"AA": (1,)}) == NcPolynomial.letter("A", 2)
        assert NcPolynomial.letter("A", 0) == NcPolynomial.unit()
        assert NcPolynomial.letter("R", 3).coefficient("RRR") == (1,)
        assert NcPolynomial.letter("R", 2.0) == NcPolynomial({"RR": (1,)})

    @pytest.mark.parametrize("word", ["AB", "a", "A R", ("A", 1), (("A", 2),), 3, None])
    def test_words_outside_a_and_r_are_refused(self, word):
        with pytest.raises(ValueError, match="a word is a string over 'A' and 'R'"):
            NcPolynomial({word: (1,)})

    @pytest.mark.parametrize("exp", [-1, 2.5, True, "2", None, float("nan")])
    def test_letter_exponent_is_a_whole_number(self, exp):
        with pytest.raises(ValueError, match=r"the letter exponent must be a whole number"):
            NcPolynomial.letter("A", exp)

    def test_word_length_is_bounded(self):
        longest = NcPolynomial.letter("A", ncsymb.MAX_WORD)
        assert NcPolynomial({"R" * ncsymb.MAX_WORD: (1,)}).n_terms == 1
        with pytest.raises(ValueError, match=r"the letter exponent must be a whole number in \[0, 256\]"):
            NcPolynomial.letter("A", ncsymb.MAX_WORD + 1)
        with pytest.raises(ValueError, match=r"the word length must be a whole number in \[0, 256\]"):
            NcPolynomial({"A" * (ncsymb.MAX_WORD + 1): (1,)})
        assert (longest * NcPolynomial.scalar((2,))).coefficient("A" * ncsymb.MAX_WORD) == (2,)
        half = NcPolynomial.letter("A", ncsymb.MAX_WORD // 2)
        assert (half * half).coefficient("A" * ncsymb.MAX_WORD) == (1,)
        for left, right in ((longest, R), (R, longest), (longest + R, A + R), (half * half, half)):
            with pytest.raises(ValueError, match="the longest product word length"):
                left * right

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

    @pytest.mark.parametrize(
        "j", [True, 2.5, "2", math.nan, ncsymb.MAX_WORD + 1],
        ids=["bool", "fraction", "text", "nan", "above-max-word"],
    )
    def test_power_is_a_count(self, j):
        with pytest.raises(ValueError, match="the power j"):
            A**j

    def test_whole_float_power(self):
        assert A**2.0 == A**2
        assert A**0 == ncsymb.NcPolynomial.unit()

    @pytest.mark.parametrize("j", range(7))
    def test_power_terms_and_order_match_the_oracle(self, j):
        got = list(ncsymb.expand_power(ncsymb.a_delta(), j).terms.items())
        want = list(oracle_power(ncsymb.a_delta(), j).terms.items())
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "p, q",
        [
            # A^2 gets (-1 - 2z) from A * A and (1 + 2z) from A^2 * 1: the sum cancels
            (A + NcPolynomial.letter("A", 2).scale((0.5, 1.0)),
             A.scale((-1.0, -2.0)) + NcPolynomial.scalar((2.0,))),
            (ncsymb.delta_poly() + A.scale((0.5, -1)), ncsymb.a_delta().scale((0.25, 0, 1.5))),
            (ncsymb.delta_poly() - ncsymb.delta_poly(), ncsymb.a_delta()),
            # the equal coefficients (1,) and (1.0,) have products of different value
            (A + R.scale((1.0,)), NcPolynomial.scalar((2**53 + 1,))),
        ],
        ids=["float-z-cancel", "float-z", "zero-left", "int-and-float"],
    )
    def test_products_match_the_oracle(self, p, q):
        for left, right in ((p, q), (q, p), (p, p)):
            got = list((left * right).terms.items())
            want = list(oracle_mul(left, right).terms.items())
            assert got == want
            assert repr(got) == repr(want)

    def test_cancelled_word_is_dropped(self):
        p = A + NcPolynomial.letter("A", 2).scale((0.5, 1.0))
        q = A.scale((-1.0, -2.0)) + NcPolynomial.scalar((2.0,))
        assert list((p * q).terms) == ["A", "AAA"]

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
        assert d.coefficient("AR") == (-1,)
        assert d.coefficient("RA") == (-1,)
        assert d.coefficient("RR") == (-1,)
        assert d.coefficient("R") == (0, 2)

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
        assert ad.coefficient("AR") == (0, 2)
        assert ad.coefficient("AAR") == (-1,)
        assert ad.coefficient("ARA") == (-1,)
        assert ad.coefficient("ARR") == (-1,)
        assert ad.n_terms == 4

    @pytest.mark.parametrize("j, count", [(1, 4), (2, 15), (3, 56), (4, 209), (5, 780), (6, 2911)])
    def test_term_counts(self, j, count):
        assert ncsymb.expand_power(ncsymb.a_delta(), j).n_terms == count

    @pytest.mark.parametrize("j", range(1, 7))
    def test_support_condition(self, j):
        # core multi-indices (boundary A-runs stripped) stay shorter than 2j
        expansion = ncsymb.expand_power(ncsymb.a_delta(), j)
        for word in expansion.terms:
            assert len(ncsymb.core_multi_index(word)) < 2 * j

    @pytest.mark.parametrize(
        "word, core",
        [("", ()), ("AAA", ()), ("R", (1,)), ("AARARRA", (1, 1, 2)), ("RRAAAR", (2, 3, 1))],
    )
    def test_core_multi_index(self, word, core):
        assert ncsymb.core_multi_index(word) == core

    @pytest.mark.parametrize("j", range(1, 7))
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

    @pytest.mark.parametrize("j", [-1, 7, 2.5, True, "2", None, float("nan")])
    def test_power_is_a_whole_number_in_0_to_6(self, j):
        with pytest.raises(ValueError, match=r"the power j must be a whole number in \[0, 6\]"):
            ncsymb.expand_power(ncsymb.a_delta(), j)

    def test_whole_float_power_reads_as_int(self):
        assert ncsymb.expand_power(ncsymb.a_delta(), 2.0) == ncsymb.expand_power(ncsymb.a_delta(), 2)


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
        for d in (0, 13):
            with pytest.raises(ValueError, match=r"matrix dimension must be a whole number in \[1, 12\]"):
                ncsymb.eval_matrix(A, np.eye(d), np.eye(d), 0.0)


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

    @pytest.mark.parametrize("q", [True, 2.5, "2", None, float("inf")])
    def test_q_is_a_whole_number(self, q):
        a, r = seeded_pairs(1, 4)[0]
        with pytest.raises(ValueError, match=r"q must be a whole number in \[1, 5\]"):
            ncsymb.resolvent_lemma_check(a, r, Z_TEST, q)

    def test_whole_float_q_reads_as_int(self):
        a, r = seeded_pairs(1, 4)[0]
        assert ncsymb.resolvent_lemma_check(a, r, Z_TEST, 2.0) == oracle_residual(a, r, Z_TEST, 2)

    @pytest.mark.parametrize(
        "z",
        [float("nan"), float("inf"), complex(0, float("inf")), complex(2.5, float("nan")),
         "2.5", True, None],
        ids=["nan", "inf", "imag-inf", "imag-nan", "text", "bool", "none"],
    )
    def test_non_finite_z_refused_before_any_svd(self, z, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD computed for a refused z")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        a, r = seeded_pairs(1, 4)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="z must be a finite complex number"):
                ncsymb.resolvent_lemma_check(a, r, z, 1)

    def test_dimension_bounds(self):
        for d in (0, 13):
            with pytest.raises(ValueError, match=r"matrix dimension must be a whole number in \[1, 12\]"):
                ncsymb.resolvent_lemma_check(np.eye(d), np.eye(d), Z_TEST, 1)

    def test_battery_residuals_equal_the_per_call_computation(self):
        for a, r in ncsymb.random_matrix_battery(50, 6):
            for q in range(1, 6):
                assert ncsymb.resolvent_lemma_check(a, r, Z_TEST, q) == oracle_residual(a, r, Z_TEST, q)

    def test_interleaved_pairs_and_points(self):
        (a1, r1), (a2, r2) = ncsymb.random_matrix_battery(2, 4)
        calls = [(a1, r1, Z_TEST), (a2, r2, Z_TEST), (a1, r1, Z_TEST), (a1, r1, 3.0),
                 (a1, r1, 3), (a1, r2, 3.0), (r1, a1, 3.0), (a1, r1, Z_TEST)]
        for a, r, z in calls:
            for q in (5, 1, 3):
                assert ncsymb.resolvent_lemma_check(a, r, z, q) == oracle_residual(a, r, z, q)

    def test_a_refusal_is_not_kept(self):
        good_a, good_r = ncsymb.random_matrix_battery(1, 2)[0]
        bad_a = np.diag([2.5, 0.0]).astype(complex)
        bad_r = 0.1 * np.eye(2, dtype=complex)
        z = 2.5 + 1e-9j
        for _ in range(2):
            with pytest.raises(ValueError, match="resolvent z - A too ill-conditioned"):
                ncsymb.resolvent_lemma_check(bad_a, bad_r, z, 1)
            assert ncsymb.resolvent_lemma_check(good_a, good_r, z, 2) == oracle_residual(good_a, good_r, z, 2)

    def test_pair_changed_in_place_is_computed_afresh(self):
        a, r = (m.copy() for m in ncsymb.random_matrix_battery(1, 3)[0])
        first = ncsymb.resolvent_lemma_check(a, r, Z_TEST, 4)
        assert first == oracle_residual(a, r, Z_TEST, 4)
        r *= 2.0
        assert ncsymb.resolvent_lemma_check(a, r, Z_TEST, 4) == oracle_residual(a, r, Z_TEST, 4)

    def test_non_contiguous_input(self):
        a, r = ncsymb.random_matrix_battery(1, 5)[0]
        got = ncsymb.resolvent_lemma_check(np.asfortranarray(a), r.T.copy().T, Z_TEST, 3)
        assert got == oracle_residual(a, r, Z_TEST, 3)

    def test_battery_pairs_are_checked_without_an_svd(self, monkeypatch):
        battery = ncsymb.random_matrix_battery(50, 6)
        svd_calls = []
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            svd_calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        for a, r in battery:
            for q in range(1, 6):
                assert ncsymb.resolvent_lemma_check(a, r, Z_TEST, q) == oracle_residual(a, r, Z_TEST, q)
        # the oracle conditions each pair once; the check itself never does
        assert len(svd_calls) == 250

    def test_pair_outside_the_battery_replaces_the_kept_factors(self):
        battery = ncsymb.random_matrix_battery(3, 4)
        assert len(ncsymb._KEPT) == 3
        a, r = seeded_pairs(1, 4)[0]
        assert ncsymb.resolvent_lemma_check(a, r, Z_TEST, 2) == oracle_residual(a, r, Z_TEST, 2)
        assert len(ncsymb._KEPT) == 1
        a, r = battery[1]
        assert ncsymb.resolvent_lemma_check(a, r, Z_TEST, 2) == oracle_residual(a, r, Z_TEST, 2)
        assert len(ncsymb._KEPT) == 1

    def test_kept_factors_are_read_only(self):
        battery = ncsymb.random_matrix_battery(4, 3)
        for a, r in battery + seeded_pairs(1, 3):
            for m in ncsymb._factors(a, r, Z_TEST):
                assert not m.flags.writeable


class TestBattery:
    def test_reproducible(self):
        b1 = ncsymb.random_matrix_battery(5, 6)
        b2 = ncsymb.random_matrix_battery(5, 6)
        for (a1, r1), (a2, r2) in zip(b1, b2):
            assert np.array_equal(a1, a2) and np.array_equal(r1, r2)

    def test_hermitian_first_slot(self):
        for a, _ in ncsymb.random_matrix_battery(5, 6):
            assert np.abs(a - a.conj().T).max() < 1e-15

    def test_default_battery_is_pinned(self):
        battery = ncsymb.random_matrix_battery(50, 6)
        assert np.array_equal(np.array(battery), np.array(oracle_battery(50, 6)))
        digest = hashlib.sha256(b"".join(a.tobytes() + r.tobytes() for a, r in battery))
        assert digest.hexdigest() == BATTERY_50_6_SHA256

    @pytest.mark.parametrize("count, dim", [(3, 2), (7, 1), (4, 12)])
    def test_battery_keeps_the_pairs_of_the_condition_rule(self, count, dim):
        got, want = ncsymb.random_matrix_battery(count, dim, 5), oracle_battery(count, dim, 5)
        assert np.array_equal(np.array(got), np.array(want))

    @pytest.mark.parametrize("limit", [1.3, 1.42, 1.55])
    def test_redrawn_battery_keeps_the_pairs_of_the_condition_rule(self, limit, monkeypatch):
        # at the default limit no pair of these sizes is refused; a limit near
        # the condition numbers drawn refuses 10-90 % of the candidates, so
        # the battery takes several rounds of draws
        monkeypatch.setattr(ncsymb, "COND_LIMIT", limit)
        got, want = ncsymb.random_matrix_battery(20, 4, 5), oracle_battery(20, 4, 5)
        assert np.array_equal(np.array(got), np.array(want))
        for a, r in got:
            assert ncsymb.resolvent_lemma_check(a, r, Z_TEST, 3) == oracle_residual(a, r, Z_TEST, 3)

    def test_battery_count_is_bounded(self):
        assert len(ncsymb.random_matrix_battery(ncsymb.MAX_BATTERY, 1)) == ncsymb.MAX_BATTERY
        assert len(ncsymb._KEPT) == ncsymb.MAX_BATTERY
        with pytest.raises(ValueError, match=r"the battery count must be a whole number in \[1, 1000\]"):
            ncsymb.random_matrix_battery(ncsymb.MAX_BATTERY + 1, 1)

    @pytest.mark.parametrize(
        "count, dim, what",
        [(0, 6, "battery count"), (2.5, 6, "battery count"), (True, 6, "battery count"),
         (2, 0, "matrix dimension"), (2, 13, "matrix dimension"), (2, 2.5, "matrix dimension"),
         (2, "6", "matrix dimension")],
    )
    def test_battery_sizes_are_whole_numbers_in_bounds(self, count, dim, what):
        with pytest.raises(ValueError, match=f"the {what} must be a whole number"):
            ncsymb.random_matrix_battery(count, dim)
