"""k-positivity certification.

For equivariant maps, k-positivity is equivalent to positive
semidefiniteness of the block matrix [Phi(e_ij)]_{i,j=1..k}, i.e. the
leading corner of the Choi matrix.  That equivalence is false for
general maps, so the fast path is gated on an equivariance declaration;
the definition-based falsifier below works for any map and provides the
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import MapRep, apply_map, block_matrix, extend_map
from .errors import ContractViolation, ParameterError
from .linalg import frobenius_norm, hermitian_eig, rng_from_seed, subseed, complex_gaussian

DEFAULT_TOL = 1e-9
FALSIFY_EIG_CUTOFF = -1e-10


def psd_eig(M, tol: float = DEFAULT_TOL, vectors: bool = True):
    """The one positivity verdict of the package: (passed, eigenvalues
    ascending, eigenvector columns) of Hermitian M, where passed means
    minEig >= -tol * max(1, ||M||_F).  The columns are None when vectors
    is False."""
    if tol < 0:
        raise ParameterError(f"tolerance must be nonnegative, got {tol}")
    vals, vecs = hermitian_eig(M, vectors)
    return float(vals[0]) >= -tol * max(1.0, frobenius_norm(M)), vals, vecs


def is_psd(M, tol: float = DEFAULT_TOL):
    """(flag, min eigenvalue) under the psd_eig rule; no eigenvectors
    are computed, which makes the solve several times cheaper."""
    flag, vals, _ = psd_eig(M, tol, vectors=False)
    return flag, float(vals[0])


def _require_block_criterion(rep: MapRep) -> None:
    eq = rep.equivariance
    if eq is None or not eq.supports_block_criterion:
        raise ContractViolation(
            "the block compression criterion is only sound for equivariant maps; "
            "this map carries no equivariance declaration "
            "(build it through the zoo / build_equivariant, or attest it first)"
        )


def k_positivity(rep: MapRep, k: int, tol: float = DEFAULT_TOL):
    """(flag, min eigenvalue) of the order-k block compression.

    Requires an equivariance declaration on rep; raises ContractViolation
    otherwise rather than silently applying an unsound criterion.
    """
    _require_block_criterion(rep)
    return is_psd(block_matrix(rep, k), tol)


@dataclass(frozen=True)
class KPositivityPoint:
    k: int
    min_eig: float
    passed: bool


@dataclass(frozen=True)
class PositivityProfile:
    label: str
    per_k: tuple[KPositivityPoint, ...]
    max_k: int
    completely_positive: bool


def positivity_profile(rep: MapRep, tol: float = DEFAULT_TOL) -> PositivityProfile:
    """Verdicts for every k from 1 to min(n, N).

    max_k is the largest passing k (0 if even k=1 fails); the map is
    completely positive exactly when the final k passes.
    """
    _require_block_criterion(rep)
    kmax = min(rep.n, rep.N)
    points = []
    best = 0
    for k in range(1, kmax + 1):
        flag, min_eig = is_psd(block_matrix(rep, k), tol)
        points.append(KPositivityPoint(k=k, min_eig=min_eig, passed=flag))
        if flag:
            best = k
    return PositivityProfile(
        label=rep.label,
        per_k=tuple(points),
        max_k=best,
        completely_positive=best == kmax,
    )


@dataclass(frozen=True, eq=False)
class FalsificationWitness:
    """A random input state together with an output direction of
    negative expectation, disproving k-positivity by definition."""

    trial: int
    state: np.ndarray
    witness: np.ndarray
    value: float


def k_positivity_falsify(
    rep: MapRep, k: int, trials: int = 500, seed=0
) -> FalsificationWitness | None:
    """Definition-based search for a k-positivity violation.

    Samples uniform random pure states psi on C^k x C^n, applies
    id_k x Phi to the projector, and reports the bottom eigenvector if
    its eigenvalue drops below -1e-10.  Needs no equivariance assumption,
    so it cross-checks the block criterion on an independent route.  k
    ranges over 1..n: n-positivity is already complete positivity.
    """
    if not 1 <= k <= rep.n:
        raise ParameterError(f"k = {k} outside 1..{rep.n}")
    if trials < 1:
        raise ParameterError(f"trial count must be positive, got {trials}")
    ext = extend_map(rep, k)
    for t in range(trials):
        rng = rng_from_seed(subseed(seed, t))
        psi = complex_gaussian(rng, k * rep.n)
        psi = psi / np.linalg.norm(psi)
        out = apply_map(ext, np.outer(psi, psi.conj()))
        vals, vecs = hermitian_eig(out)
        if vals[0] < FALSIFY_EIG_CUTOFF:
            return FalsificationWitness(
                trial=t,
                state=psi,
                witness=vecs[:, 0].copy(),
                value=float(vals[0]),
            )
    return None
