"""Symmetric-group elements, leg-permutation operators, Gram pairings."""

import math

import numpy as np
import pytest

from helpers import pairwise_cycle_counts

from equimap.errors import CapacityError, ParameterError
from equimap.linalg import frobenius_norm, haar_unitary, kron_all, matrix_rank
from equimap.perms import (
    MAX_SYM_DEGREE,
    Permutation,
    enumerate_sym,
    gram_matrix,
    sigma_rep,
)


class TestPermutation:
    def test_identity_and_call(self):
        e = Permutation.identity(4)
        assert [e(i) for i in range(4)] == [0, 1, 2, 3]
        assert e.cycle_string() == "()"

    def test_rejects_non_bijection(self):
        with pytest.raises(ParameterError):
            Permutation((0, 0, 1))
        with pytest.raises(ParameterError):
            Permutation((0, 2))

    def test_compose_applies_right_factor_first(self):
        p = Permutation.from_cycles("(1 2)", 3)
        q = Permutation.from_cycles("(2 3)", 3)
        assert p.compose(q) == Permutation.from_cycles("(1 2 3)", 3)
        assert q.compose(p) == Permutation.from_cycles("(1 3 2)", 3)

    def test_inverse(self):
        p = Permutation.from_cycles("(1 2 3)(4 5)", 5)
        assert p.compose(p.inverse()) == Permutation.identity(5)
        assert p.inverse() == Permutation.from_cycles("(1 3 2)(4 5)", 5)

    def test_cycles_and_count(self):
        p = Permutation.from_cycles("(1 2 3)(4 5)", 6)
        assert p.cycles() == [(0, 1, 2), (3, 4), (5,)]
        assert p.cycle_count() == 3
        assert p.cycle_string() == "(1 2 3)(4 5)"

    def test_from_cycles_round_trips_everything_in_s4(self):
        for p in enumerate_sym(4):
            assert Permutation.from_cycles(p.cycle_string(), 4) == p

    @pytest.mark.parametrize(
        "bad",
        ["", "1 2", "(1 2", "(1 2)(2 3)", "(0 1)", "(1 5)", "(1 x)", "(1 2) junk"],
    )
    def test_from_cycles_rejects_malformed_text(self, bad):
        with pytest.raises(ParameterError):
            Permutation.from_cycles(bad, 4)

    def test_from_cycles_ignores_whitespace(self):
        assert Permutation.from_cycles("  (1 2) (3 4) ", 4) == Permutation(
            (1, 0, 3, 2)
        )


class TestEnumerate:
    def test_lexicographic_order_and_size(self):
        perms = enumerate_sym(3)
        assert len(perms) == 6
        assert perms[0] == Permutation.identity(3)
        tuples = [p.images for p in perms]
        assert tuples == sorted(tuples)

    def test_degree_caps(self):
        with pytest.raises(CapacityError):
            enumerate_sym(0)
        with pytest.raises(CapacityError):
            enumerate_sym(MAX_SYM_DEGREE + 1)
        assert len(enumerate_sym(MAX_SYM_DEGREE)) == math.factorial(MAX_SYM_DEGREE)


class TestSigmaRep:
    def test_basis_action(self):
        # sigma(pi) e_{i_1...i_k}: output slot s carries input slot pi^-1(s).
        # (1 2 3) sends |a b c> to |c a b>.
        p = Permutation.from_cycles("(1 2 3)", 3)
        S = sigma_rep(p, 2)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    src = a * 4 + b * 2 + c
                    dst = c * 4 + a * 2 + b
                    assert S[dst, src] == 1.0

    def test_homomorphism_exhaustive_s3(self):
        for n in (2, 3):
            for p in enumerate_sym(3):
                for q in enumerate_sym(3):
                    assert np.array_equal(
                        sigma_rep(p, n) @ sigma_rep(q, n),
                        sigma_rep(p.compose(q), n),
                    )

    def test_adjoint_is_inverse(self):
        for p in enumerate_sym(4):
            S = sigma_rep(p, 2)
            assert np.array_equal(S.T, sigma_rep(p.inverse(), 2))

    def test_trace_counts_cycles(self):
        for n in (2, 3):
            for p in enumerate_sym(4):
                assert np.trace(sigma_rep(p, n)) == float(n) ** p.cycle_count()

    def test_commutes_with_tensor_power_unitaries(self):
        for n, k in ((2, 3), (3, 3), (2, 4)):
            for t in range(3):
                U = haar_unitary(n, 1000 + t)
                W = kron_all([U] * k)
                for p in enumerate_sym(k):
                    S = sigma_rep(p, n)
                    assert frobenius_norm(S @ W - W @ S) < 1e-11

    def test_capacity(self):
        with pytest.raises(CapacityError):
            sigma_rep(Permutation.identity(6), 4)  # 4^6 = 4096 > 1024
        with pytest.raises(ParameterError):
            sigma_rep(Permutation.identity(2), 1)


class TestGram:
    def test_s2_values(self):
        G = gram_matrix(2, 2)
        assert np.array_equal(G.mat, [[4.0, 2.0], [2.0, 4.0]])
        assert (G.degree, G.dim) == (2, 2)

    def test_matches_explicit_trace_pairings(self):
        for n in (2, 3):
            perms = enumerate_sym(3)
            G = gram_matrix(3, n).mat
            for i, p in enumerate(perms):
                for j, q in enumerate(perms):
                    expected = np.trace(sigma_rep(p, n).T @ sigma_rep(q, n))
                    assert G[i, j] == expected

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_matches_pairwise_composition(self, degree):
        counts = pairwise_cycle_counts(degree)
        for n in (2, 3, 4):
            assert np.array_equal(gram_matrix(degree, n).mat, float(n) ** counts)

    @pytest.mark.parametrize(
        "degree,n,rank",
        [
            (2, 2, 2),
            (3, 3, 6),
            (3, 2, 5),
            (4, 2, 14),
            (4, 3, 23),
            (4, 4, 24),
        ],
    )
    def test_rank_matches_operator_span(self, degree, n, rank):
        assert matrix_rank(gram_matrix(degree, n).mat) == rank
