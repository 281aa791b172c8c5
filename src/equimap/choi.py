"""Choi-matrix calculus.

A linear map Phi: M_n -> M_N is stored as its Choi matrix
C = sum_ij e_ij x Phi(e_ij) on C^n x C^N with the input leg first, so
the (i, j) block of C is Phi(e_ij) and compressing the leg-1 index to
its first k values yields the block matrix [Phi(e_ij)]_{i,j<k}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParameterError, ShapeError
from .linalg import (
    as_matrix,
    check_hermitian,
    complex_gaussian,
    frobenius_norm,
    rng_from_seed,
)
from .perms import check_budget

_LINEARITY_SEED = 0x1D3A7
_LINEARITY_PAIRS = 10
_LINEARITY_TOL = 1e-10

@dataclass(frozen=True)
class Equivariance:
    """Declared symmetry of a map; any declaration makes the block
    criterion for k-positivity sound.

    kind "ab" means Phi(U X U*) = (conj(U)^{x a} x U^{x b}) Phi(X) (...)*,
    as build_equivariant produces; "equivariant" means
    Phi(U X U*) = V(U) Phi(X) V(U)* for some invertible V(U), as
    conjugation by an invertible matrix produces.
    """

    kind: str
    a: int | None = None
    b: int | None = None

    def __post_init__(self):
        if self.kind not in ("ab", "equivariant"):
            raise ParameterError(
                f"equivariance kind {self.kind!r} is neither 'ab' nor 'equivariant'"
            )
        if self.kind == "ab":
            if self.a is None or self.b is None or self.a < 0 or self.b < 0:
                raise ParameterError("kind 'ab' needs nonnegative a and b")
        elif self.a is not None or self.b is not None:
            raise ParameterError(f"kind {self.kind!r} takes no (a, b)")


@dataclass(frozen=True, eq=False)
class MapRep:
    """A self-adjoint linear map M_n -> M_N held as its Choi matrix."""

    n: int
    N: int
    choi: np.ndarray
    label: str = ""
    equivariance: Equivariance | None = None

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ParameterError(f"dimensions must be positive, got n={self.n} N={self.N}")
        arr = as_matrix(self.choi)
        d = self.n * self.N
        if arr.shape != (d, d):
            raise ShapeError(
                f"Choi matrix shape {arr.shape} does not match n*N = {d}"
            )
        eq = self.equivariance
        if eq is not None and eq.kind == "ab" and self.N != self.n ** (eq.a + eq.b):
            raise ShapeError(f"an (a, b) = ({eq.a}, {eq.b}) map needs N = n^(a+b), got {self.N}")
        # Only self-adjoint maps are representable.
        check_hermitian(arr, "Choi matrix")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "choi", arr)


def bell_vector(n: int) -> np.ndarray:
    """Unnormalized maximally entangled vector sum_i e_i x e_i on C^n x C^n."""
    if n < 2:
        raise ParameterError(f"dimension must be at least 2, got {n}")
    v = np.zeros(n * n, dtype=complex)
    v[np.arange(n) * n + np.arange(n)] = 1.0
    return v


def bell_matrix(n: int) -> np.ndarray:
    """Rank-one projector-like matrix B = b b* with trace n; B^2 = n B."""
    b = bell_vector(n)
    return np.outer(b, b.conj())


def _check_linear(apply_fn, n: int, N: int) -> None:
    rng = rng_from_seed(_LINEARITY_SEED)
    for _ in range(_LINEARITY_PAIRS):
        X = complex_gaussian(rng, (n, n))
        Y = complex_gaussian(rng, (n, n))
        alpha = complex(*rng.standard_normal(2))
        fX = as_matrix(apply_fn(X))
        fY = as_matrix(apply_fn(Y))
        if fX.shape != (N, N) or fY.shape != (N, N):
            raise ShapeError(
                f"callable returned shape {fX.shape}, expected ({N}, {N})"
            )
        resid = frobenius_norm(apply_fn(alpha * X + Y) - alpha * fX - fY)
        scale = 1.0 + frobenius_norm(fX) + frobenius_norm(fY)
        if resid > _LINEARITY_TOL * scale:
            raise ContractViolation(
                f"callable failed the linearity probe (residual {resid:.3e})"
            )


def choi_of_map(apply_fn, n: int, N: int, label: str = "") -> MapRep:
    """Choi matrix of a callable acting on n x n matrices.

    The callable is always probed for linearity on seeded random pairs
    first, then evaluated on every matrix unit.
    """
    if n < 1 or N < 1:
        raise ParameterError(f"dimensions must be positive, got n={n} N={N}")
    check_budget(n * N, "the Choi matrix")
    _check_linear(apply_fn, n, N)
    C = np.zeros((n * N, n * N), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit[i, j] = 1.0
            block = as_matrix(apply_fn(unit))
            if block.shape != (N, N):
                raise ShapeError(
                    f"callable returned shape {block.shape}, expected ({N}, {N})"
                )
            C[i * N : (i + 1) * N, j * N : (j + 1) * N] = block
            unit[i, j] = 0.0
    return MapRep(n=n, N=N, choi=C, label=label)


def apply_map(rep: MapRep, X) -> np.ndarray:
    """Evaluate the map on X: the partial trace of (X^t x 1) C over leg 1."""
    X = as_matrix(X)
    if X.shape != (rep.n, rep.n):
        raise ShapeError(f"input shape {X.shape} does not match n = {rep.n}")
    T = rep.choi.reshape(rep.n, rep.N, rep.n, rep.N)
    return np.einsum("ij,ipjq->pq", X, T)


def block_matrix(rep: MapRep, k: int) -> np.ndarray:
    """Compression [Phi(e_ij)]_{i,j=1..k}: the leading kN x kN corner of the Choi."""
    if not 1 <= k <= rep.n:
        raise ParameterError(f"k = {k} outside 1..{rep.n}")
    d = k * rep.N
    return rep.choi[:d, :d].copy()


def extend_map(rep: MapRep, m: int) -> MapRep:
    """The ampliation id_m x Phi as a map M_{mn} -> M_{mN}."""
    if m < 1:
        raise ParameterError(f"extension factor must be positive, got {m}")
    if m == 1:
        return rep
    T = rep.choi.reshape(rep.n, rep.N, rep.n, rep.N)
    eye = np.eye(m)
    big = np.einsum("ac,bd,ipjq->aicpbjdq", eye, eye, T)
    d = m * rep.n * m * rep.N
    return MapRep(
        n=m * rep.n,
        N=m * rep.N,
        choi=big.reshape(d, d),
        label=f"extend(m={m},{rep.label or 'map'})",
    )
