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


class MapRep:
    """A self-adjoint linear map M_n -> M_N held as its Choi matrix.

    Given choi, the matrix is checked and stored at once.  Given the
    EquivariantSpec of a built map instead, the map holds its
    coefficients and scatters the matrix on first read of rep.choi;
    block_matrix scatters corners from the spec without it.  Either way
    the stored matrix has passed check_hermitian and is read-only.
    """

    __slots__ = ("n", "N", "label", "equivariance", "spec", "_choi")

    def __init__(self, n: int, N: int, choi=None, label: str = "",
                 equivariance: Equivariance | None = None, spec=None):
        if n < 1 or N < 1:
            raise ParameterError(f"dimensions must be positive, got n={n} N={N}")
        eq = equivariance
        if eq is not None and eq.kind == "ab" and N != n ** (eq.a + eq.b):
            raise ShapeError(f"an (a, b) = ({eq.a}, {eq.b}) map needs N = n^(a+b), got {N}")
        if (choi is None) == (spec is None):
            raise ParameterError("a map is given by exactly one of choi and spec")
        for name, value in zip(self.__slots__, (n, N, label, eq, spec, None)):
            object.__setattr__(self, name, value)
        if choi is not None:
            self._store(as_matrix(choi).copy())

    def __setattr__(self, name, value):
        raise AttributeError(f"MapRep is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"MapRep(n={self.n}, N={self.N}, label={self.label!r})"

    def _store(self, arr: np.ndarray) -> np.ndarray:
        """Check arr, which the map then owns, and keep it read-only."""
        d = self.n * self.N
        if arr.shape != (d, d):
            raise ShapeError(
                f"Choi matrix shape {arr.shape} does not match n*N = {d}"
            )
        # Only self-adjoint maps are representable.
        check_hermitian(arr, "Choi matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "_choi", arr)
        return arr

    @property
    def choi(self) -> np.ndarray:
        """The dense Choi matrix, scattered from the spec on first read."""
        if self._choi is None:
            return self._store(self.spec.corner(self.n * self.N))
        return self._choi


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
    """Compression [Phi(e_ij)]_{i,j=1..k}: the leading kN x kN corner of the
    Choi, scattered from the spec of a built map, so its dense Choi is
    never read.  Verdicts on built maps of a+b+1 <= 4 read no corner (see
    algebra); this is their dense oracle."""
    if not 1 <= k <= rep.n:
        raise ParameterError(f"k = {k} outside 1..{rep.n}")
    d = k * rep.N
    if rep.spec is not None:
        return rep.spec.corner(d)
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
