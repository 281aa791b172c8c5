"""Tensor-leg bookkeeping, partial transposition, the Hermitian
eigensolver, and seeded sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equimap import linalg
from equimap.choi import block_matrix
from equimap.errors import ContractViolation, ParameterError, ShapeError
from equimap.linalg import (
    BLOCK_MIN_SIDE,
    TensorShape,
    as_matrix,
    check_hermitian,
    check_seed,
    complex_gaussian,
    frobenius_norm,
    haar_from_rng,
    haar_unitary,
    hermitian_eig,
    kron,
    kron_all,
    matrix_rank,
    partial_transpose,
    psd_eig,
    rng_from_seed,
    subseed,
)
from equimap.zoo import (
    bhat_map,
    choi_map,
    collins3_map,
    collins_map,
    identity_map,
    tomiyama_map,
    transpose_map,
)


def _rng(seed=0):
    return rng_from_seed(seed)


class TestTensorShape:
    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ParameterError):
            TensorShape(legs=0, dim=2)
        with pytest.raises(ParameterError):
            TensorShape(legs=1, dim=0)


def test_kron_left_factor_is_most_significant():
    # kron(A, B)[i1*3 + i2, j1*3 + j2] = A[i1,j1] B[i2,j2]: big-endian legs
    rng = _rng(11)
    A = complex_gaussian(rng, (2, 2))
    B = complex_gaussian(rng, (3, 3))
    K = kron(A, B)
    for i1 in range(2):
        for i2 in range(3):
            for j1 in range(2):
                for j2 in range(3):
                    # last-ulp slack: vectorized multiply may fuse
                    assert abs(
                        K[i1 * 3 + i2, j1 * 3 + j2] - A[i1, j1] * B[i2, j2]
                    ) < 1e-15


def test_kron_all_matches_repeated_kron():
    rng = _rng(12)
    mats = [complex_gaussian(rng, (2, 2)) for _ in range(3)]
    expected = kron(kron(mats[0], mats[1]), mats[2])
    assert np.array_equal(kron_all(mats), expected)
    assert np.array_equal(kron_all([]), np.eye(1))


class TestPartialTranspose:
    def test_single_leg_on_product(self):
        rng = _rng(21)
        A = complex_gaussian(rng, (3, 3))
        B = complex_gaussian(rng, (3, 3))
        M = np.kron(A, B)
        shape = TensorShape(legs=2, dim=3)
        assert np.allclose(partial_transpose(M, shape, [1]), np.kron(A.T, B))
        assert np.allclose(partial_transpose(M, shape, [2]), np.kron(A, B.T))

    def test_all_legs_is_full_transpose(self):
        rng = _rng(22)
        shape = TensorShape(legs=3, dim=2)
        M = complex_gaussian(rng, (8, 8))
        assert np.array_equal(partial_transpose(M, shape, [1, 2, 3]), M.T)

    def test_involution_and_commutation(self):
        rng = _rng(23)
        shape = TensorShape(legs=2, dim=3)
        M = complex_gaussian(rng, (9, 9))
        once = partial_transpose(M, shape, [1])
        assert np.array_equal(partial_transpose(once, shape, [1]), M)
        ab = partial_transpose(partial_transpose(M, shape, [1]), shape, [2])
        ba = partial_transpose(partial_transpose(M, shape, [2]), shape, [1])
        assert np.array_equal(ab, ba)

    def test_entry_oracle(self):
        # PT on leg 2 of a 2-leg matrix swaps the second row/column digits.
        shape = TensorShape(legs=2, dim=2)
        M = np.arange(16.0).reshape(4, 4)
        T = partial_transpose(M, shape, [2])
        for i1 in range(2):
            for i2 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        assert (
                            T[i1 * 2 + i2, j1 * 2 + j2]
                            == M[i1 * 2 + j2, j1 * 2 + i2]
                        )

    def test_bad_inputs(self):
        shape = TensorShape(legs=2, dim=2)
        with pytest.raises(ShapeError):
            partial_transpose(np.eye(3), shape, [1])
        with pytest.raises(ParameterError):
            partial_transpose(np.eye(4), shape, [3])


class TestHermitianEig:
    def test_reconstruction_and_order(self):
        rng = _rng(31)
        Z = complex_gaussian(rng, (6, 6))
        H = Z + Z.conj().T
        vals, vecs = hermitian_eig(H)
        assert np.all(np.diff(vals) >= 0)
        recon = (vecs * vals) @ vecs.conj().T
        assert frobenius_norm(recon - H) <= 1e-12 * max(1.0, frobenius_norm(H))

    def test_values_only_match_the_full_solve(self):
        # A different LAPACK path: equal to the full solve up to roundoff.
        rng = _rng(32)
        for dim in (1, 6, 40):
            Z = complex_gaussian(rng, (dim, dim))
            H = Z + Z.conj().T
            vals, vecs = hermitian_eig(H, vectors=False)
            assert vecs is None
            full, _ = hermitian_eig(H)
            assert np.max(np.abs(vals - full)) <= 1e-12 * max(1.0, frobenius_norm(H))

    def test_rejects_non_hermitian(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ContractViolation):
            hermitian_eig(M)

    def test_tolerates_roundoff_asymmetry(self):
        H = np.diag([1.0, 2.0]).astype(complex)
        H[0, 1] = 1e-14
        vals, _ = hermitian_eig(H)
        assert np.allclose(vals, [1.0, 2.0])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            hermitian_eig(np.zeros((2, 3)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_entries(self, bad):
        # A gate written as "asym > bound" is False for NaN and lets it in.
        H = np.eye(2, dtype=complex)
        H[0, 0] = bad
        with pytest.raises(ContractViolation):
            hermitian_eig(H)


def _block_diagonal(rng, sides, real=False, zero_share=0.0):
    """Hermitian matrix with diagonal blocks of the given sides, entries
    of one block zeroed in symmetric pairs with probability zero_share,
    and the block number of each index."""
    side = sum(sides)
    M = np.zeros((side, side), dtype=float if real else complex)
    owner = np.repeat(np.arange(len(sides)), sides)
    start = 0
    for s in sides:
        Z = rng.standard_normal((s, s)) if real else complex_gaussian(rng, (s, s))
        H = Z + Z.conj().T
        zeros = rng.random((s, s)) < zero_share
        H[zeros | zeros.T] = 0.0
        M[start : start + s, start : start + s] = H
        start += s
    return M, owner


def _sides(rng, total):
    """Block sides from 1 to 20 that add up to total."""
    sides = []
    while sum(sides) < total:
        sides.append(min(int(rng.integers(1, 21)), total - sum(sides)))
    return sides


def _above_crossover(rng):
    """Blocks of sides 5, 6, 5, 6, ... up to a side of BLOCK_MIN_SIDE or more."""
    return _block_diagonal(rng, [5, 6] * (BLOCK_MIN_SIDE // 11 + 1))[0]


def _refusal(fn, M):
    with pytest.raises(ContractViolation) as info:
        fn(M)
    return str(info.value)


def _eigvals(M):
    """hermitian_eig without eigenvectors: the block-solved path."""
    return hermitian_eig(M, vectors=False)[0]


class TestBlockSolver:
    """Above BLOCK_MIN_SIDE, hermitian_eig without eigenvectors, and so
    psd_eig, solves the connected components of the nonzero pattern apart;
    dense eigvalsh and check_hermitian on the whole matrix are its
    oracles."""

    @settings(max_examples=80)
    @given(
        side=st.one_of(st.integers(1, BLOCK_MIN_SIDE - 1), st.integers(BLOCK_MIN_SIDE, 300)),
        real=st.booleans(),
        zero_share=st.sampled_from([0.0, 0.2, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hidden_blocks_match_the_dense_solve(self, side, real, zero_share, seed):
        rng = rng_from_seed(seed)
        M, owner = _block_diagonal(rng, _sides(rng, side), real, zero_share)
        p = rng.permutation(side)
        M, owner = M[np.ix_(p, p)], owner[p]
        tol = 1e-12 * max(1.0, frobenius_norm(M))
        want = np.linalg.eigvalsh(M)
        vals, vecs = hermitian_eig(M)
        only, _ = hermitian_eig(M, vectors=False)
        assert np.abs(vals - want).max() <= tol
        assert np.abs(only - want).max() <= tol
        assert frobenius_norm(M @ vecs - vecs * vals) <= tol
        assert frobenius_norm(vecs.conj().T @ vecs - np.eye(side)) <= 1e-12
        if side >= BLOCK_MIN_SIDE:
            # No component found spans two of the hidden blocks.
            label = linalg._components(as_matrix(M))
            assert all(len(set(owner[label == c])) == 1 for c in set(label))

    def test_tridiagonal_is_one_component(self):
        # A path is the longest chain for label propagation; in a random
        # order it takes the most rounds.
        d = 1024
        T = np.diag(np.linspace(-1.0, 1.0, d))
        T += np.diag(np.full(d - 1, 0.5), 1) + np.diag(np.full(d - 1, 0.5), -1)
        p = rng_from_seed(41).permutation(d)
        for M in (T, T[np.ix_(p, p)]):
            assert not linalg._components(as_matrix(M)).any()
        vals, _ = hermitian_eig(M, vectors=False)
        assert np.abs(vals - np.linalg.eigvalsh(M)).max() <= 1e-12 * frobenius_norm(M)

    @pytest.mark.parametrize("make", [
        identity_map,
        transpose_map,
        choi_map,
        lambda n: tomiyama_map(n, 0.7),
        lambda n: bhat_map(n, 0.4, -1.3),
        lambda n: collins_map(n, 1.5, -0.5, allow_small_n=True),
        lambda n: collins3_map(n, 1.5, -0.5, 0.25, allow_small_n=True),
    ], ids=["identity", "transpose", "choi", "tomiyama", "bhat", "collins", "collins3"])
    def test_every_zoo_corner_matches_the_dense_solve(self, make):
        for n in range(2, 9):
            rep = make(n)
            for k in range(1, n + 1):
                B = block_matrix(rep, k)
                tol = 1e-12 * max(1.0, frobenius_norm(B))
                want = np.linalg.eigvalsh(B)
                for vectors in (False, True):
                    vals, _ = hermitian_eig(B, vectors)
                    assert np.abs(vals - want).max() <= tol, (rep.label, k, vectors)

    @pytest.mark.parametrize("i,j", [(0, 5), (5, 0)])
    def test_one_sided_link_between_blocks_is_refused(self, i, j):
        # Indices 0 and 5 open the first two blocks; the entry links them
        # in one direction only.
        M = _above_crossover(rng_from_seed(42))
        M[i, j] = 1.0
        assert _refusal(_eigvals, M) == _refusal(check_hermitian, M)
        assert _refusal(psd_eig, M) == _refusal(check_hermitian, M)

    @pytest.mark.parametrize("i,j", [(0, 5), (5, 0)])
    def test_accepted_one_sided_link_still_couples_its_blocks(self, i, j):
        # 1e-12 is within 1e-12 * (1 + 1): accepted, and it splits the
        # two unit eigenvalues by 1e-12 in the symmetrised matrix.
        M = np.eye(2 * BLOCK_MIN_SIDE, dtype=complex)
        M[i, j] = 1e-12
        check_hermitian(M)
        vals = _eigvals(M)
        want = np.linalg.eigvalsh((M + M.conj().T) / 2)
        assert np.abs(vals - want).max() <= 1e-15

    def test_roundoff_asymmetry_inside_a_block_is_accepted(self):
        M = _above_crossover(rng_from_seed(43))
        M[0, 1] += 1e-14
        check_hermitian(M)
        vals = _eigvals(M)
        want = np.linalg.eigvalsh((M + M.conj().T) / 2)
        assert np.abs(vals - want).max() <= 1e-12 * frobenius_norm(M)

    def test_scale_is_the_whole_matrix_max_entry(self):
        # 1e-11 exceeds 1e-12 * (1 + max|entry| of its own block), but not
        # 1e-12 * (1 + 1e3), and 1e3 sits in another block of another side.
        M = _above_crossover(rng_from_seed(44))
        M[0, 0] = 1e3
        M[5, 6] += 1e-11
        check_hermitian(M)
        vals = _eigvals(M)
        want = np.linalg.eigvalsh((M + M.conj().T) / 2)
        assert np.abs(vals - want).max() <= 1e-12 * frobenius_norm(M)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry_inside_a_block_is_refused(self, bad):
        M = _above_crossover(rng_from_seed(45))
        M[6, 6] = bad
        assert _refusal(_eigvals, M) == _refusal(check_hermitian, M)
        assert _refusal(psd_eig, M) == _refusal(check_hermitian, M)


class TestPsdEig:
    def test_basic_verdicts(self):
        ok, eig = psd_eig(np.diag([0.0, 1.0, 2.0]))
        assert ok and abs(eig) < 1e-14
        ok, eig = psd_eig(np.diag([-1.0, 1.0]))
        assert not ok and abs(eig + 1.0) < 1e-14

    def test_tolerance_is_relative_to_scale(self):
        M = np.diag([1e6, -1e-5])
        ok, _ = psd_eig(M, tol=1e-9)
        assert ok  # -1e-5 is tiny against a norm of 1e6
        ok, _ = psd_eig(np.diag([1.0, -1e-5]), tol=1e-9)
        assert not ok

    def test_threshold_survives_an_overflowing_norm(self):
        # ||M||_F overflows to inf; the bound must stay finite, or every
        # matrix passes.
        ok, eig = psd_eig(np.diag([-1e300, 1e300, 1e300]))
        assert not ok and eig == pytest.approx(-1e300, rel=1e-12)
        assert psd_eig(np.diag([0.0, 1e300, 1e300]))[0]

    def test_empty_matrix_is_refused(self):
        # It has no minimum eigenvalue to judge.
        with pytest.raises(ShapeError, match="nonempty"):
            psd_eig(np.zeros((0, 0)))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1e-12])
def test_psd_eig_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # Accepted, tol = nan would make every verdict "not PSD" and inf "PSD".
    with pytest.raises(ParameterError, match="tolerance must be nonnegative and finite"):
        psd_eig(np.eye(2), tol)


def test_matrix_rank_counts_relative_singular_values():
    U = haar_unitary(4, 5)
    M = U @ np.diag([1.0, 0.5, 1e-13, 0.0]) @ U.conj().T
    assert matrix_rank(M) == 2
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(3), tol=1e-10) == 3
    with pytest.raises(ParameterError):
        matrix_rank(np.eye(2), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_matrix_rank_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # Accepted, tol = nan would count no singular value: rank 0.
    with pytest.raises(ParameterError, match="rank tolerance must be positive and finite"):
        matrix_rank(np.eye(3), tol=tol)


def test_as_matrix_requires_two_dims():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == complex


class TestSeeds:
    def test_check_seed_range(self):
        assert check_seed(0) == 0
        assert check_seed(2**64 - 1) == 2**64 - 1
        with pytest.raises(ParameterError):
            check_seed(-1)
        with pytest.raises(ParameterError):
            check_seed(2**64)

    def test_rng_determinism(self):
        a = rng_from_seed(42).standard_normal(5)
        b = rng_from_seed(42).standard_normal(5)
        assert np.array_equal(a, b)

    def test_subseed_separates_trials(self):
        seeds = {subseed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert subseed(7, 3) == subseed(7, 3)
        assert subseed(7, 3) != subseed(8, 3)


class TestHaar:
    def test_unitarity(self):
        for n in (2, 3, 5):
            U = haar_unitary(n, 123)
            assert frobenius_norm(U @ U.conj().T - np.eye(n)) < 1e-12

    def test_determinism(self):
        assert np.array_equal(haar_unitary(3, 9), haar_unitary(3, 9))
        assert not np.array_equal(haar_unitary(3, 9), haar_unitary(3, 10))

    def test_second_moment(self):
        # E |U_00|^2 = 1/n; 2000 samples put the empirical mean well
        # inside 0.03 of that for n = 2.
        rng = _rng(77)
        acc = 0.0
        trials = 2000
        for _ in range(trials):
            U = haar_from_rng(rng, 2)
            acc += abs(U[0, 0]) ** 2
        assert abs(acc / trials - 0.5) < 0.03

    def test_phase_invariance_of_first_column_mean(self):
        # Haar columns have mean zero; a plain QR without the phase fix
        # leaves a real-positive bias on the diagonal.
        rng = _rng(78)
        acc = np.zeros((), dtype=complex)
        trials = 2000
        for _ in range(trials):
            acc += haar_from_rng(rng, 2)[0, 0]
        assert abs(acc) / trials < 0.05

    def test_bad_dimension(self):
        with pytest.raises(ParameterError):
            haar_unitary(0, 1)
