"""Maps whose Choi matrix commutes with conj(U)^{x a+1} x U^{x b} for
every unitary U.

Such maps are exactly the span of the basis elements obtained by
partially transposing the leg-permutation operators of S_{a+b+1} on
their first a+1 legs.  For signature (a, b) = (0, 1) the two elements
realize, as maps,

    ()     A -> Tr(A) 1
    (1 2)  A -> A            (Choi = unnormalized Bell matrix B)

and for (a, b) = (1, 1) the six elements realize

    ()       A -> Tr(A) 1
    (1 2)    A -> A^t x 1
    (1 3)    A -> 1 x A
    (2 3)    A -> Tr(A) B
    (1 2 3)  A -> B (1 x A)
    (1 3 2)  A -> (1 x A) B

which pins the coefficient conventions used by the parametric families
in the zoo; tests verify the table by brute force on matrix units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .choi import Equivariance, MapRep
from .errors import ContractViolation, ParameterError, ShapeError
from .linalg import (
    TensorShape,
    as_matrix,
    check_rank_tol,
    check_tol,
    complex_gaussian,
    frobenius_norm,
    haar_from_rng,
    kron_all,
    matrix_rank,
    partial_transpose,
    rng_from_seed,
    subseed,
)
from .perms import Permutation, check_budget, enumerate_sym, gram_matrix, sigma_rep

_PAIRING_RTOL = 1e-12
PINV_RCOND = 1e-10
# Default bound on the relative commutator norm of the sampled check.
COMMUTATOR_TOL = 1e-8


def check_signature(n: int, a: int, b: int) -> int:
    """Side n^(a+b+1) of the (a, b) operators on C^n, after checking the
    signature and the size budget."""
    if a < 0 or b < 0:
        raise ParameterError(f"signature entries must be nonnegative, got ({a}, {b})")
    if n < 2:
        raise ParameterError(f"dimension must be at least 2, got {n}")
    return check_budget(n ** (a + b + 1), f"signature (n, a, b) = ({n}, {a}, {b})")


def choi_basis_element(n: int, a: int, b: int, perm: Permutation) -> np.ndarray:
    """Leg-permutation operator of S_{a+b+1}, partially transposed on
    legs 1..a+1.  These 0/1 matrices span the Choi matrices of all maps
    with (a, b)-equivariant commutation symmetry."""
    check_signature(n, a, b)
    k1 = a + b + 1
    if perm.degree != k1:
        raise ParameterError(
            f"permutation degree {perm.degree} does not match a+b+1 = {k1}"
        )
    shape = TensorShape(legs=k1, dim=n)
    return partial_transpose(sigma_rep(perm, n), shape, range(1, a + 2))


@lru_cache(maxsize=256)
def index_map(n: int, a: int, b: int, perm: Permutation):
    """Positions (rows, cols) of the n^(a+b+1) ones of the basis element
    of perm, row-major in the row digits, as read-only arrays kept for the
    most recent 256 calls.

    A column carries the row digits permuted by perm, then the row and
    column digits trade places on the transposed legs 1..a+1.
    """
    k1 = a + b + 1
    if perm.degree != k1:
        raise ParameterError(
            f"permutation degree {perm.degree} does not match a+b+1 = {k1}"
        )
    shape = (n,) * k1
    digits = np.indices(shape).reshape(k1, -1)
    permuted = digits[list(perm.images)]
    rows = np.concatenate([permuted[: a + 1], digits[a + 1 :]])
    cols = np.concatenate([digits[: a + 1], permuted[a + 1 :]])
    maps = np.ravel_multi_index(rows, shape), np.ravel_multi_index(cols, shape)
    for m in maps:
        m.setflags(write=False)
    return maps


def basis_elements(n: int, a: int, b: int) -> tuple[np.ndarray, ...]:
    """All (a+b+1)! dense basis elements in enumerate_sym order, freshly
    built on every call."""
    check_signature(n, a, b)
    return tuple(choi_basis_element(n, a, b, p) for p in enumerate_sym(a + b + 1))


def check_coefficients(coeffs: Mapping[Permutation, object], k1: int) -> None:
    """Refuse a coefficient table unless its permutations have degree k1,
    its sum of moduli sum |c|, which bounds every Choi entry, is finite,
    and it meets the self-adjointness pairing f(pi^-1) = conj(f(pi)).
    Values may be arrays over grid points: each point is judged."""
    perms = list(coeffs)
    for p in perms:
        if p.degree != k1:
            raise ParameterError(f"permutation {p} has degree {p.degree}, expected {k1}")
    if not perms:
        return
    values = np.array([coeffs[p] for p in perms])
    with np.errstate(over="ignore"):  # abs overflows to inf, which is refused
        moduli = np.abs(values)
        total = moduli.sum(axis=0).max()
    if not np.isfinite(total):
        raise ParameterError(f"sum |c| of the coefficients is not finite: {total}")
    zero = np.zeros(values.shape[1:])
    mates = np.array([coeffs.get(p.inverse(), zero) for p in perms])
    broken = np.abs(mates - values.conj()) > _PAIRING_RTOL * (1.0 + moduli)
    if broken.any():
        i = int(np.argmax(broken.reshape(len(perms), -1).any(axis=1)))
        raise ContractViolation(
            f"coefficients break the self-adjointness pairing at {perms[i]}: "
            f"f(pi^-1) = {mates[i]} vs conj(f(pi)) = {values[i].conjugate()}"
        )


def scatter(terms, side: int) -> np.ndarray:
    """Leading side x side corner of sum_pi f(pi) * basis element of pi.

    Only the index-map positions inside the corner are added, in the
    order of terms, so every entry equals the whole matrix's bit for bit;
    real coefficients give a real corner.
    """
    C = np.zeros((side, side), np.result_type(float, *[c for c, _, _ in terms]))
    for c, rows, cols in terms:
        keep = (rows < side) & (cols < side)
        C[rows[keep], cols[keep]] += c
    return C


@dataclass(frozen=True, eq=False)
class EquivariantSpec:
    """Coefficient data for a map with signature (a, b) on M_n.

    Coefficients are complex but must satisfy the self-adjointness
    pairing coeffs[pi^(-1)] = conj(coeffs[pi]); omitted permutations
    count as zero.
    """

    n: int
    a: int
    b: int
    coeffs: Mapping[Permutation, complex]

    def __post_init__(self):
        check_signature(self.n, self.a, self.b)
        coeffs = {p: complex(c) for p, c in self.coeffs.items()}
        object.__setattr__(self, "coeffs", coeffs)
        check_coefficients(coeffs, self.a + self.b + 1)

    @property
    def k(self) -> int:
        return self.a + self.b

    @cached_property
    def terms(self) -> list:
        """(f(pi), rows, cols) for every pi in enumerate_sym order whose
        coefficient is not zero, found once."""
        return [(self.coeffs[p], *index_map(self.n, self.a, self.b, p))
                for p in enumerate_sym(self.k + 1) if self.coeffs.get(p, 0)]

    def corner(self, side: int) -> np.ndarray:
        """Leading side x side corner of the Choi matrix; side n^(k+1) is
        the whole of it."""
        return scatter(self.terms, side).astype(complex, copy=False)


def build_equivariant(spec: EquivariantSpec, label: str = "") -> MapRep:
    """The map sum_pi f(pi) * basis element of pi, held as its spec: the
    dense Choi matrix is scattered on first read."""
    return MapRep(
        n=spec.n,
        N=spec.n**spec.k,
        spec=spec,
        label=label or f"equivariant(n={spec.n},a={spec.a},b={spec.b})",
        equivariance=Equivariance("ab", spec.a, spec.b),
    )


def decompose_equivariant(C, n: int, a: int, b: int):
    """Least-squares coefficients of C against the (a, b) basis.

    Solves the normal equations through the Gram matrix of trace
    pairings (entries n^cycles, closed form; partial transposition on
    matched legs preserves the pairing).  Singular Gram matrices (which
    occur when n < a+b+1) are handled by pseudo-inverse with relative
    cutoff 1e-10.

    Returns (coeffs dict in enumerate_sym order, residual Frobenius norm).
    """
    dim = check_signature(n, a, b)
    C = as_matrix(C)
    k1 = a + b + 1
    if C.shape != (dim, dim):
        raise ShapeError(f"matrix shape {C.shape} does not match n^(a+b+1) = {dim}")
    perms = enumerate_sym(k1)
    maps = [index_map(n, a, b, p) for p in perms]
    G = gram_matrix(k1, n).mat
    t = np.array([C[m].sum() for m in maps])
    f = np.linalg.pinv(G, rcond=PINV_RCOND) @ t
    recon = scatter([(c, *m) for c, m in zip(f, maps)], dim)
    residual = frobenius_norm(C - recon)
    return {p: complex(c) for p, c in zip(perms, f)}, float(residual)


@dataclass(frozen=True)
class EquivarianceReport:
    """Result of the sampled commutator check."""

    trials: int
    max_rel_commutator_norm: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_commutator_norm <= self.tolerance


def check_ab_equivariance(
    C, n: int, a: int, b: int, trials: int = 20, seed=0, tol: float = COMMUTATOR_TOL
) -> EquivarianceReport:
    """Sample Haar unitaries U and measure the worst relative norm of
    [C, conj(U)^{x a+1} x U^{x b}]."""
    dim = check_signature(n, a, b)
    C = as_matrix(C)
    if C.shape != (dim, dim):
        raise ShapeError(f"matrix shape {C.shape} does not match n^(a+b+1) = {dim}")
    if trials < 1:
        raise ParameterError(f"trial count must be positive, got {trials}")
    check_tol(tol)
    base = max(1.0, frobenius_norm(C))
    worst = 0.0
    for t in range(trials):
        U = haar_from_rng(rng_from_seed(subseed(seed, t)), n)
        W = kron_all([U.conj()] * (a + 1) + [U] * b)
        worst = max(worst, frobenius_norm(C @ W - W @ C) / base)
    return EquivarianceReport(trials=trials, max_rel_commutator_norm=worst, tolerance=tol)


def attest_ab_equivariance(
    rep: MapRep, a: int, b: int, trials: int = 20, seed=0, tol: float = COMMUTATOR_TOL
) -> MapRep:
    """Return a copy of rep carrying the (a, b) declaration, after the
    commutator check passes; raise ContractViolation otherwise."""
    if rep.N != rep.n ** (a + b):
        raise ShapeError(
            f"output dimension {rep.N} does not match n^(a+b) = {rep.n ** (a + b)}"
        )
    report = check_ab_equivariance(rep.choi, rep.n, a, b, trials=trials, seed=seed, tol=tol)
    if not report.passed:
        raise ContractViolation(
            f"commutator check failed: max relative norm "
            f"{report.max_rel_commutator_norm:.3e} > {tol:.0e}"
        )
    return MapRep(rep.n, rep.N, choi=rep.choi, label=rep.label,
                  equivariance=Equivariance("ab", a, b))


@dataclass(frozen=True, eq=False)
class RankWitness:
    """A pair (U, X) with rank Phi(U X U*) != rank Phi(X), certifying
    that Phi is not equivariant."""

    unitary: np.ndarray
    state: np.ndarray
    rank_conjugated: int
    rank_plain: int
    source: str
    index: int


def find_equivariance_violation(
    apply_fn,
    n: int,
    candidates=(),
    trials: int = 100,
    seed=0,
    rank_tol: float = 1e-8,
) -> RankWitness | None:
    """Search for a rank witness against equivariance.

    Invertibility of the intertwiner forces rank Phi(U X U*) =
    rank Phi(X) for every U and X, so a single mismatch disproves
    equivariance.  Supplied candidate pairs are examined first, then
    seeded random Haar/Gaussian pairs.  Returns None if nothing is found
    (which is evidence, not proof, of equivariance).
    """
    if n < 1:
        raise ParameterError(f"dimension must be positive, got {n}")
    check_rank_tol(rank_tol)

    def probe(U, X, source, index):
        U = as_matrix(U)
        X = as_matrix(X)
        r_conj = matrix_rank(as_matrix(apply_fn(U @ X @ U.conj().T)), rank_tol)
        r_plain = matrix_rank(as_matrix(apply_fn(X)), rank_tol)
        if r_conj != r_plain:
            return RankWitness(
                unitary=U,
                state=X,
                rank_conjugated=r_conj,
                rank_plain=r_plain,
                source=source,
                index=index,
            )
        return None

    for idx, (U, X) in enumerate(candidates):
        hit = probe(U, X, "candidate", idx)
        if hit is not None:
            return hit
    for t in range(trials):
        rng = rng_from_seed(subseed(seed, t))
        U = haar_from_rng(rng, n)
        X = complex_gaussian(rng, (n, n))
        hit = probe(U, X, "random", t)
        if hit is not None:
            return hit
    return None
