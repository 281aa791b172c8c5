"""k-positivity certification, read from the Choi matrix alone.

For equivariant maps, k-positivity is equivalent to positive
semidefiniteness of the block matrix [Phi(e_ij)]_{i,j=1..k}, i.e. the
leading corner of the Choi matrix.  That equivalence is false for
general maps, so the fast path is gated on an equivariance declaration.
A built map's corner verdict is solved in the coloured walled Brauer
algebra (algebra.corner_verdicts), on a matrix of side at most 120
whatever n and k; a map held as a dense Choi matrix, or built with
a+b+1 >= 5, decides psd_eig on its corner (corner_verdict).  The
definition-based falsifier works for any map and provides the
independent cross-check; it reads each output off the Choi matrix by
congruence (choi_congruence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import corner_verdicts, routes
from .choi import MapRep, block_matrix
from .errors import ContractViolation, ParameterError
from .linalg import (
    DEFAULT_TOL, complex_gaussian, hermitian_eig, psd_eig, rng_from_seed, subseed,
)
from .perms import check_work


def _require_block_criterion(rep: MapRep) -> None:
    if rep.equivariance is None:
        raise ContractViolation(
            "the block compression criterion is only sound for equivariant maps; "
            "this map carries no equivariance declaration "
            "(build it through the zoo / build_equivariant, or attest it first)"
        )


def corner_verdict(rep: MapRep, k: int, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """psd_eig's verdict on the order-k corner: from the algebra for a
    built map whose signature it routes, from the dense block_matrix
    otherwise."""
    spec = rep.spec
    if spec is not None and routes(spec.a, spec.b):
        return corner_verdicts(spec.n, spec.a, spec.b, spec.coeffs, k, tol)[0]
    return psd_eig(block_matrix(rep, k), tol)


def k_positivity(rep: MapRep, k: int, tol: float = DEFAULT_TOL):
    """(flag, min eigenvalue) of the order-k block compression.

    Requires an equivariance declaration on rep; raises ContractViolation
    otherwise rather than silently applying an unsound criterion.
    """
    _require_block_criterion(rep)
    return corner_verdict(rep, k, tol)


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
        flag, min_eig = corner_verdict(rep, k, tol)
        points.append(KPositivityPoint(k=k, min_eig=min_eig, passed=flag))
        if flag:
            best = k
    return PositivityProfile(
        label=rep.label,
        per_k=tuple(points),
        max_k=best,
        completely_positive=best == kmax,
    )


def choi_congruence(rep: MapRep, Psi) -> np.ndarray:
    """(id_k x Phi)(psi psi*) for the pure state psi whose k x n reshaping
    is Psi: the congruence (Psi x 1_N) C (Psi x 1_N)* of the Choi matrix."""
    k, n, N = Psi.shape[0], rep.n, rep.N
    half = (Psi @ rep.choi.reshape(n, N * n * N)).reshape(k * N, n, N)
    return (Psi.conj() @ half).reshape(k * N, k * N)


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

    Samples uniform random pure states psi on C^k x C^n, which are
    generally entangled, takes the output (id_k x Phi)(psi psi*) by
    choi_congruence, and reports the bottom eigenvector of the first
    output that fails psd_eig, solved only for that output.  Needs no
    equivariance assumption, so it cross-checks the block criterion on an
    independent route.  k ranges over 1..n: n-positivity is already
    complete positivity.
    """
    if not 1 <= k <= rep.n:
        raise ParameterError(f"k = {k} outside 1..{rep.n}")
    if trials < 1:
        raise ParameterError(f"trial count must be positive, got {trials}")
    check_work(trials, "falsifier trials")
    for t in range(trials):
        psi = complex_gaussian(rng_from_seed(subseed(seed, t)), k * rep.n)
        psi = psi / np.linalg.norm(psi)
        out = choi_congruence(rep, psi.reshape(k, rep.n))
        passed, min_eig = psd_eig(out)
        if not passed:
            witness = hermitian_eig(out)[1][:, 0].copy()
            return FalsificationWitness(trial=t, state=psi, witness=witness, value=min_eig)
    return None
