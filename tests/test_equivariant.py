"""The permutation basis, coefficient round trips, and the commutator
and rank checks for (a, b)-equivariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_paired_coeffs, raw_choi

from equimap.choi import MapRep, bell_matrix
from equimap.equivariant import (
    EquivariantSpec,
    attest_ab_equivariance,
    basis_elements,
    build_equivariant,
    check_ab_equivariance,
    choi_basis_element,
    decompose_equivariant,
    find_equivariance_violation,
    index_map,
)
from equimap.diagram import matrix_from_wiring, wiring
from equimap.errors import CapacityError, ContractViolation, ParameterError, ShapeError
from equimap.linalg import check_hermitian, complex_gaussian, frobenius_norm, rng_from_seed
from equimap.perms import Permutation, enumerate_sym


def _perm(text, k):
    return Permutation.from_cycles(text, k)


class TestBasisTables:
    """Each basis element, evaluated as a map on matrix units, must
    reproduce the closed formula claimed for it."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_signature_0_1(self, n):
        table = {
            "()": lambda A: np.trace(A) * np.eye(n),
            "(1 2)": lambda A: A,
        }
        for text, fn in table.items():
            elem = choi_basis_element(n, 0, 1, _perm(text, 2))
            assert np.array_equal(raw_choi(fn, n, n), elem)

    @pytest.mark.parametrize("n", [2, 3])
    def test_signature_1_0(self, n):
        table = {
            "()": lambda A: np.trace(A) * np.eye(n),
            "(1 2)": lambda A: A.T,
        }
        for text, fn in table.items():
            elem = choi_basis_element(n, 1, 0, _perm(text, 2))
            assert np.array_equal(raw_choi(fn, n, n), elem)

    @pytest.mark.parametrize("n", [2, 3])
    def test_signature_1_1(self, n):
        B = bell_matrix(n)
        I = np.eye(n)
        table = {
            "()": lambda A: np.trace(A) * np.eye(n * n),
            "(1 2)": lambda A: np.kron(A.T, I),
            "(1 3)": lambda A: np.kron(I, A),
            "(2 3)": lambda A: np.trace(A) * B,
            "(1 2 3)": lambda A: B @ np.kron(I, A),
            "(1 3 2)": lambda A: np.kron(I, A) @ B,
        }
        for text, fn in table.items():
            elem = choi_basis_element(n, 1, 1, _perm(text, 3))
            assert np.array_equal(raw_choi(fn, n, n * n), elem)

    def test_elements_are_zero_one_matrices(self):
        for e in basis_elements(3, 1, 1):
            assert set(np.unique(e)) <= {0.0, 1.0}

    def test_adjoint_pairs_with_inverse(self):
        for p in enumerate_sym(3):
            E = choi_basis_element(3, 1, 1, p)
            F = choi_basis_element(3, 1, 1, p.inverse())
            assert np.array_equal(E.conj().T, F)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            choi_basis_element(3, 1, 1, Permutation.identity(2))

    def test_mutating_a_returned_element_changes_no_later_result(self):
        coeffs = {Permutation.identity(2): 1.0, _perm("(1 2)", 2): 0.5}
        before = build_equivariant(EquivariantSpec(n=2, a=0, b=1, coeffs=coeffs)).choi
        e = basis_elements(2, 0, 1)[0]
        e[0, 0] = 5.0
        e[1, 2] = -3.0
        assert np.array_equal(basis_elements(2, 0, 1)[0], np.eye(4))
        after = build_equivariant(EquivariantSpec(n=2, a=0, b=1, coeffs=coeffs)).choi
        assert np.array_equal(after, before)


class TestIndexMap:
    """The index map of each basis element against the two dense oracles:
    sigma_rep + partial_transpose and the wiring-diagram rebuild."""

    SIGNATURES = [(a, k1 - 1 - a) for k1 in (1, 2, 3, 4) for a in range(k1)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("a,b", SIGNATURES)
    def test_equals_dense_oracles(self, n, a, b):
        dim = n ** (a + b + 1)
        for p in enumerate_sym(a + b + 1):
            rows, cols = index_map(n, a, b, p)
            assert rows.shape == cols.shape == (dim,)
            assert np.unique(rows * dim + cols).size == dim  # no repeated (row, col)
            dense = np.zeros((dim, dim))
            dense[rows, cols] = 1.0
            assert np.array_equal(dense, choi_basis_element(n, a, b, p))
            assert np.array_equal(dense, matrix_from_wiring(wiring(p, a, b), n))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            index_map(3, 1, 1, Permutation.identity(2))


class TestSpec:
    def test_pairing_enforced(self):
        good = EquivariantSpec(
            n=3, a=1, b=1,
            coeffs={
                _perm("(1 2 3)", 3): 1 + 2j,
                _perm("(1 3 2)", 3): 1 - 2j,
            },
        )
        assert good.k == 2
        with pytest.raises(ContractViolation):
            EquivariantSpec(n=3, a=1, b=1, coeffs={_perm("(1 2 3)", 3): 1.0})
        with pytest.raises(ContractViolation):
            EquivariantSpec(n=3, a=1, b=1, coeffs={_perm("(1 2)", 3): 1j})

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), complex(0.0, float("nan"))]
    )
    def test_non_finite_coefficients_refused(self, bad):
        # The pairing check compares with ">", which is False for NaN.
        with pytest.raises(ParameterError, match="not finite"):
            EquivariantSpec(n=3, a=0, b=1, coeffs={_perm("()", 2): bad})

    @settings(max_examples=60)
    @given(data=st.data())
    def test_accepted_exactly_when_the_built_choi_is_hermitian(self, data):
        # n >= a+b+1 keeps the basis independent; for smaller n an
        # unpaired table can still sum to a Hermitian matrix.
        k1 = data.draw(st.integers(1, 3), label="a+b+1")
        a = data.draw(st.integers(0, k1 - 1), label="a")
        b = k1 - 1 - a
        n = data.draw(st.integers(max(2, k1), 4), label="n")
        rng = rng_from_seed(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        coeffs = random_paired_coeffs(k1, rng)
        perturbed = data.draw(st.booleans(), label="perturbed")
        if perturbed:
            p = data.draw(st.sampled_from(enumerate_sym(k1)), label="pi")
            size = data.draw(st.floats(1e-6, 1.0), label="size")
            angle = data.draw(st.floats(0.0, 2 * np.pi), label="angle")
            # A real shift leaves an involution's real coefficient paired.
            coeffs[p] += 1j * size if p == p.inverse() else size * np.exp(1j * angle)
        dense = sum(c * choi_basis_element(n, a, b, p) for p, c in coeffs.items())
        try:
            check_hermitian(dense)
            hermitian = True
        except ContractViolation:
            hermitian = False
        try:
            EquivariantSpec(n=n, a=a, b=b, coeffs=coeffs)
            accepted = True
        except ContractViolation:
            accepted = False
        assert accepted == hermitian
        assert accepted != perturbed

    def test_degree_mismatch(self):
        with pytest.raises(ParameterError):
            EquivariantSpec(n=3, a=0, b=1, coeffs={Permutation.identity(3): 1.0})

    def test_signature_validation(self):
        with pytest.raises(ParameterError):
            EquivariantSpec(n=1, a=0, b=1, coeffs={})
        with pytest.raises(ParameterError):
            EquivariantSpec(n=3, a=-1, b=2, coeffs={})
        with pytest.raises(CapacityError):
            EquivariantSpec(n=4, a=2, b=3, coeffs={})  # 4^6 > 1024


class TestBuildDecompose:
    @pytest.mark.parametrize(
        "n,a,b",
        [(2, 0, 1), (3, 0, 1), (3, 1, 0), (3, 1, 1), (4, 1, 1), (3, 2, 0), (4, 1, 2)],
    )
    def test_round_trip_when_basis_is_independent(self, n, a, b):
        # n >= a+b+1 makes the basis linearly independent, so the
        # coefficients themselves come back.
        rng = rng_from_seed(100 * n + 10 * a + b)
        coeffs = random_paired_coeffs(a + b + 1, rng)
        rep = build_equivariant(EquivariantSpec(n=n, a=a, b=b, coeffs=coeffs))
        assert rep.N == n ** (a + b)
        assert rep.equivariance.kind == "ab"
        assert (rep.equivariance.a, rep.equivariance.b) == (a, b)
        out, residual = decompose_equivariant(rep.choi, n, a, b)
        assert residual < 1e-10
        for p, c in coeffs.items():
            assert abs(out[p] - c) < 1e-8

    @settings(max_examples=40)
    @given(data=st.data())
    def test_decompose_inverts_build_property(self, data):
        k1 = data.draw(st.integers(1, 4), label="a+b+1")
        a = data.draw(st.integers(0, k1 - 1), label="a")
        n = data.draw(st.integers(max(2, k1), 4), label="n")
        rng = rng_from_seed(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        coeffs = random_paired_coeffs(k1, rng)
        rep = build_equivariant(EquivariantSpec(n=n, a=a, b=k1 - 1 - a, coeffs=coeffs))
        out, residual = decompose_equivariant(rep.choi, n, a, k1 - 1 - a)
        assert residual < 1e-10
        for p, c in coeffs.items():
            assert abs(out[p] - c) < 1e-8

    def test_dependent_basis_still_reproduces_the_matrix(self):
        # n < a+b+1: coefficients are not unique, but the rebuilt matrix is.
        rng = rng_from_seed(9)
        coeffs = random_paired_coeffs(3, rng)
        rep = build_equivariant(EquivariantSpec(n=2, a=1, b=1, coeffs=coeffs))
        out, residual = decompose_equivariant(rep.choi, 2, 1, 1)
        assert residual < 1e-10
        rebuilt = build_equivariant(EquivariantSpec(n=2, a=1, b=1, coeffs=out))
        assert frobenius_norm(rebuilt.choi - rep.choi) < 1e-10

    def test_residual_flags_outside_span(self):
        rng = rng_from_seed(10)
        Z = complex_gaussian(rng, (8, 8))
        H = Z + Z.conj().T
        _, residual = decompose_equivariant(H, 2, 1, 1)
        assert residual > 1.0

    def test_single_element_gives_indicator_coefficients(self):
        perms = enumerate_sym(3)
        for target in perms:
            E = choi_basis_element(3, 1, 1, target)
            out, residual = decompose_equivariant(E, 3, 1, 1)
            assert residual < 1e-10
            for p in perms:
                assert abs(out[p] - (1.0 if p == target else 0.0)) < 1e-8

    def test_decomposition_is_linear(self):
        rng = rng_from_seed(11)
        c1 = random_paired_coeffs(3, rng)
        rep = build_equivariant(EquivariantSpec(n=3, a=1, b=1, coeffs=c1))
        out_scaled, _ = decompose_equivariant(2.5 * rep.choi, 3, 1, 1)
        out, _ = decompose_equivariant(rep.choi, 3, 1, 1)
        for p in enumerate_sym(3):
            assert abs(out_scaled[p] - 2.5 * out[p]) < 1e-8

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            decompose_equivariant(np.eye(8), 3, 1, 1)


class TestCommutatorCheck:
    def test_equivariant_matrix_passes(self):
        rng = rng_from_seed(12)
        coeffs = random_paired_coeffs(3, rng)
        rep = build_equivariant(EquivariantSpec(n=3, a=1, b=1, coeffs=coeffs))
        report = check_ab_equivariance(rep.choi, 3, 1, 1, trials=10, seed=4)
        assert report.passed
        assert report.max_rel_commutator_norm < 1e-12
        assert report.trials == 10

    def test_generic_matrix_fails(self):
        rng = rng_from_seed(13)
        Z = complex_gaussian(rng, (27, 27))
        report = check_ab_equivariance(Z + Z.conj().T, 3, 1, 1, trials=5, seed=4)
        assert not report.passed
        assert report.max_rel_commutator_norm > 1e-2

    def test_attest_round_trip(self):
        rep = MapRep(n=2, N=2, choi=bell_matrix(2), label="untagged")
        tagged = attest_ab_equivariance(rep, 0, 1)
        assert tagged.equivariance.kind == "ab"
        assert tagged.label == "untagged"
        assert rep.equivariance is None  # original untouched

    def test_attest_rejections(self):
        rng = rng_from_seed(14)
        Z = complex_gaussian(rng, (4, 4))
        rep = MapRep(n=2, N=2, choi=Z + Z.conj().T)
        with pytest.raises(ContractViolation):
            attest_ab_equivariance(rep, 0, 1)
        with pytest.raises(ShapeError):
            attest_ab_equivariance(rep, 1, 1)  # N should be 4

    def test_trial_count_validated(self):
        with pytest.raises(ParameterError):
            check_ab_equivariance(np.eye(9), 3, 0, 1, trials=0)

    def test_negative_tolerance_refused(self):
        with pytest.raises(ParameterError, match="tolerance must be nonnegative"):
            check_ab_equivariance(bell_matrix(2), 2, 0, 1, tol=-1.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerance_refused(self, tol):
        with pytest.raises(ParameterError, match="tolerance must be nonnegative and finite"):
            check_ab_equivariance(bell_matrix(2), 2, 0, 1, tol=tol)


class TestRankWitness:
    # The symmetrization A -> A + A^t sends a rotated projector to an
    # invertible matrix while the unrotated one stays rank one; the
    # rank jump certifies that no invertible intertwiner can exist.
    U_CONJ = np.array(
        [[1 / np.sqrt(2), 1 / np.sqrt(2)], [-1j / np.sqrt(2), 1j / np.sqrt(2)]]
    )

    def test_candidate_pair_is_found(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        hit = find_equivariance_violation(
            lambda A: A + A.T, 2, candidates=[(self.U_CONJ, e11)], trials=0
        )
        assert hit is not None
        assert hit.source == "candidate"
        assert hit.index == 0
        assert (hit.rank_conjugated, hit.rank_plain) == (2, 1)

    def test_antisymmetrizer_with_trace_restored(self):
        X = np.diag([-1j, 1j])
        hit = find_equivariance_violation(
            lambda A: A - A.T + np.trace(A) * np.eye(2),
            2,
            candidates=[(self.U_CONJ, X)],
            trials=0,
        )
        assert hit is not None
        assert (hit.rank_conjugated, hit.rank_plain) == (2, 0)

    def test_identity_map_survives_the_sweep(self):
        assert find_equivariance_violation(lambda A: A, 2, trials=100, seed=0) is None

    def test_transpose_survives_the_sweep(self):
        # Transpose is equivariant in the wider sense (intertwiner
        # conj(U)); ranks never move.
        assert find_equivariance_violation(lambda A: A.T, 3, trials=50, seed=1) is None

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rank_tolerance_must_be_finite_and_positive(self, tol):
        # Accepted, rank_tol = nan would make every rank 0, so no probe
        # could ever find a witness; the refusal comes before any probe.
        def never(A):
            raise AssertionError("probed")

        with pytest.raises(ParameterError, match="rank tolerance"):
            find_equivariance_violation(never, 2, rank_tol=tol)

    def test_trials_zero_means_candidates_only(self):
        assert find_equivariance_violation(lambda A: A + A.T, 2, trials=0) is None


class TestCapacity:
    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            choi_basis_element(4, 2, 3, Permutation.identity(6))

    def test_degree_cap_via_enumeration(self):
        with pytest.raises(CapacityError):
            decompose_equivariant(np.eye(2**7), 2, 3, 3)
