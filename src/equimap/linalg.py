"""Dense complex matrix primitives used by every other module.

Matrices on (C^n)^{x k} use big-endian flattening: the multi-index
(i_1, ..., i_k) maps to sum_j i_j * n^(k-j), so leg 1 is the most
significant digit.  This is numpy's C order, and numpy is its one
encoding: legs are split by reshape((n,) * k) and joined by reshape or
ravel_multi_index, and kron(A, B) means "A on leg 1, B on leg 2" with
no index shuffling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParameterError, ShapeError

HERMITICITY_RTOL = 1e-12
DEFAULT_TOL = 1e-9
MAX_SEED = 2**64
# Side from which hermitian_eig solves blocks apart.  Finding and solving
# the blocks of a zoo corner took 0.2-0.35 ms: about even with a dense
# eigvalsh at side 48, 1.5-2x faster at side 64 (one BLAS thread).
BLOCK_MIN_SIDE = 48


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TensorShape:
    """Leg structure of (C^dim)^{x legs}."""

    legs: int
    dim: int

    def __post_init__(self):
        if self.legs < 1:
            raise ParameterError(f"leg count must be positive, got {self.legs}")
        if self.dim < 1:
            raise ParameterError(f"leg dimension must be positive, got {self.dim}")

    @property
    def total(self) -> int:
        return self.dim**self.legs


def kron(a, b) -> np.ndarray:
    """Kronecker product: a on the leading (most significant) leg."""
    return np.kron(as_matrix(a), as_matrix(b))


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence, left factor most significant."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, as_matrix(m))
    return out


def partial_transpose(M, shape: TensorShape, legs) -> np.ndarray:
    """Transpose row and column indices of the given legs (1-based)."""
    M = np.asarray(M)
    if M.shape != (shape.total, shape.total):
        raise ShapeError(
            f"matrix shape {M.shape} does not match {shape.legs} legs of dim {shape.dim}"
        )
    legset = sorted({int(l) for l in legs})
    for l in legset:
        if not 1 <= l <= shape.legs:
            raise ParameterError(f"leg {l} outside 1..{shape.legs}")
    k, n = shape.legs, shape.dim
    axes = list(range(2 * k))
    for l in legset:
        axes[l - 1], axes[k + l - 1] = axes[k + l - 1], axes[l - 1]
    T = M.reshape((n,) * (2 * k)).transpose(axes)
    return np.ascontiguousarray(T).reshape(shape.total, shape.total)


def _refuse_asymmetry(asym: float, top: float, what: str) -> None:
    """The Hermiticity rule, given max|M - M*| and max|entry|."""
    if not asym <= HERMITICITY_RTOL * (1.0 + top):
        raise ContractViolation(
            f"{what} is not Hermitian: max|M - M*| = {asym:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * (1 + max|entry|)"
        )


def check_hermitian(M: np.ndarray, what: str = "matrix") -> None:
    """Raise ContractViolation unless max|M - M*| <= 1e-12 * (1 + max|entry|);
    a NaN or infinite entry fails."""
    if M.size:
        _refuse_asymmetry(
            float(np.abs(M - M.conj().T).max()), float(np.abs(M).max()), what
        )


def _components(M: np.ndarray) -> np.ndarray:
    """Label each index of square M by the smallest index of its connected
    component in the symmetrised nonzero pattern (M != 0) or (M^T != 0).

    Label propagation with pointer jumping: each round hooks the larger
    label of every nonzero position to the smaller one, keeping the
    smallest, then follows pointers until each index points at a root.
    A path of side 4096 takes 1 round in index order and took 8 in three
    random orders.
    """
    side = M.shape[0]
    if (M[0] != 0).all():
        # Row 0 links every index to index 0; this spares a dense matrix
        # the search, which cost it about a third of its solve time.
        return np.zeros(side, dtype=int)
    rows, cols = np.divmod(np.flatnonzero(M != 0), side)
    label = np.arange(side)
    while True:
        a, b = label[rows], label[cols]
        hooked = label.copy()
        np.minimum.at(hooked, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = hooked[hooked]
            if (jumped == hooked).all():
                break
            hooked = jumped
        if not hooked.any() or (hooked == label).all():
            return hooked
        label = hooked


def _block_eigvalsh(M: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of M solved per component of label:
    equal-sized blocks are checked, symmetrised and solved in one stacked
    call."""
    counts = np.bincount(label)
    sizes = counts[counts > 0]
    order = np.argsort(label, kind="stable")
    first = np.cumsum(sizes) - sizes
    blocks = []  # one stack of blocks per block side
    for side in np.unique(sizes):
        idx = order[first[sizes == side][:, None] + np.arange(side)]
        blocks.append(M[idx[:, :, None], idx[:, None, :]])
    adjoints = [B.conj().swapaxes(1, 2) for B in blocks]
    # check_hermitian(M) read on the blocks: every entry outside them is
    # zero in M and in M*, so the verdict and message are its own.  The
    # scale stays the whole matrix's max|entry|, not each block's; np.max,
    # unlike max(), keeps a NaN, which the rule then refuses.
    _refuse_asymmetry(
        float(np.max([np.abs(B - BH).max() for B, BH in zip(blocks, adjoints)])),
        float(np.max([np.abs(B).max() for B in blocks])),
        "matrix",
    )
    return np.sort(np.concatenate([
        np.linalg.eigvalsh((B + BH) / 2.0).ravel() for B, BH in zip(blocks, adjoints)
    ]))


def hermitian_eig(M, vectors: bool = True):
    """Eigendecomposition of a Hermitian matrix.

    The input must pass check_hermitian; it is symmetrized before the
    solve so downstream results are exactly real.
    Returns (eigenvalues ascending, eigenvector columns) from one dense
    eigh, or (eigenvalues ascending, None) when vectors is False.

    Eigenvalues alone are solved block by block from side BLOCK_MIN_SIDE
    up: the connected components of the symmetrised nonzero pattern
    (M != 0 or M^T != 0) are, after a permutation, the diagonal blocks of
    M, and equal-sized blocks are solved in one stacked call.  Hermiticity
    is judged on the blocks against the whole matrix's max|entry|, so
    verdicts and messages are check_hermitian's, and the eigenvalues equal
    the dense solve's up to rounding.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ShapeError(f"eigendecomposition needs a square matrix, got {M.shape}")
    if not vectors and M.shape[0] >= BLOCK_MIN_SIDE:
        label = _components(M)
        if label.any():
            return _block_eigvalsh(M, label), None
    check_hermitian(M)
    H = (M + M.conj().T) / 2.0
    if not vectors:
        return np.linalg.eigvalsh(H), None
    return np.linalg.eigh(H)


def check_tol(tol: float) -> float:
    """Return tol, or raise ParameterError unless it is a finite
    nonnegative number; the one tolerance rule of every verdict."""
    if not 0.0 <= tol < math.inf:
        raise ParameterError(f"tolerance must be nonnegative and finite, got {tol}")
    return tol


def psd_eig(M, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """The one positivity verdict of the package: (passed, minEig) of
    Hermitian M, where passed means minEig >= -tol * max(1, ||M||_F).
    Only eigenvalues are solved; a caller that reports a witness asks
    hermitian_eig for the bottom eigenvector once the verdict fails."""
    check_tol(tol)
    vals, _ = hermitian_eig(M, vectors=False)
    if not vals.size:
        raise ShapeError("a positivity verdict needs a nonempty matrix")
    with np.errstate(over="ignore"):
        bound = tol * max(1.0, frobenius_norm(M))
    if not math.isfinite(bound):  # ||M||_F overflowed: (tol ||M/top||_F) top
        top = float(np.abs(M).max())
        bound = tol * frobenius_norm(as_matrix(M) / top) * top
    min_eig = float(vals[0])
    return min_eig >= -bound, min_eig


def frobenius_norm(M) -> float:
    return float(np.linalg.norm(np.asarray(M)))


def check_rank_tol(tol: float) -> None:
    """Raise ParameterError unless the rank cutoff tol is finite and positive."""
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"rank tolerance must be positive and finite, got {tol}")


def matrix_rank(M, tol: float = 1e-10) -> int:
    """Number of singular values above tol times the largest one."""
    check_rank_tol(tol)
    s = np.linalg.svd(as_matrix(M), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def check_seed(seed) -> int:
    s = int(seed)
    if not 0 <= s < MAX_SEED:
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return s


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(check_seed(seed)))


def subseed(seed, index) -> int:
    """Derived 64-bit seed for trial `index`.

    Hash-based (SeedSequence spawn keys), so batched loops may evaluate
    trials in any order and still see identical per-trial streams.
    """
    ss = np.random.SeedSequence(check_seed(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normal samples (unit total variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_from_rng(rng: np.random.Generator, n: int) -> np.ndarray:
    # QR of a Ginibre matrix; the phase fix makes the distribution Haar
    # rather than merely unitary.
    z = complex_gaussian(rng, (n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary; same seed gives bitwise-identical output."""
    if n < 1:
        raise ParameterError(f"unitary dimension must be positive, got {n}")
    return haar_from_rng(rng_from_seed(seed), n)
