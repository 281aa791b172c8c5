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


def check_hermitian(M: np.ndarray, what: str = "matrix") -> None:
    """Raise ContractViolation unless max|M - M*| <= 1e-12 * (1 + max|entry|);
    a NaN or infinite entry fails."""
    scale = 1.0 + float(np.abs(M).max()) if M.size else 1.0
    asym = float(np.abs(M - M.conj().T).max()) if M.size else 0.0
    if not asym <= HERMITICITY_RTOL * scale:
        raise ContractViolation(
            f"{what} is not Hermitian: max|M - M*| = {asym:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * (1 + max|entry|)"
        )


def hermitian_eig(M, vectors: bool = True):
    """Eigendecomposition of a Hermitian matrix.

    The input must pass check_hermitian; it is symmetrized before the
    solve so downstream results are exactly real.
    Returns (eigenvalues ascending, eigenvector columns); the columns are
    None when vectors is False, which skips computing them.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ShapeError(f"eigendecomposition needs a square matrix, got {M.shape}")
    check_hermitian(M)
    H = (M + M.conj().T) / 2.0
    if not vectors:
        return np.linalg.eigvalsh(H), None
    vals, vecs = np.linalg.eigh(H)
    return vals, vecs


def check_tol(tol: float) -> float:
    """Return tol, or raise ParameterError unless it is a finite
    nonnegative number; the one tolerance rule of every verdict."""
    if not 0.0 <= tol < math.inf:
        raise ParameterError(f"tolerance must be nonnegative and finite, got {tol}")
    return tol


def psd_eig(M, tol: float = DEFAULT_TOL, vectors: bool = True):
    """The one positivity verdict of the package: (passed, eigenvalues
    ascending, eigenvector columns) of Hermitian M, where passed means
    minEig >= -tol * max(1, ||M||_F).  The columns are None when vectors
    is False."""
    check_tol(tol)
    vals, vecs = hermitian_eig(M, vectors)
    return float(vals[0]) >= -tol * max(1.0, frobenius_norm(M)), vals, vecs


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
