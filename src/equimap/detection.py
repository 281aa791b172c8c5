"""Entanglement detection through positive maps.

A state rho on C^m x C^n is moved through id_m x Phi; a negative output
eigenvalue certifies that rho cannot be written with Schmidt number at
most t whenever Phi is t-positive.  Combined with the block criterion
for t-positivity this yields computable Schmidt-number lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .choi import MapRep, apply_map, bell_matrix, extend_map
from .errors import ContractViolation, ParameterError, ShapeError
from .grammar import grammar_text, parse_spec
from .linalg import (
    as_matrix,
    check_rank_tol,
    check_tol,
    haar_from_rng,
    hermitian_eig,
    kron,
    rng_from_seed,
    subseed,
)
from .perms import check_budget
from .positivity import DEFAULT_TOL, k_positivity, psd_eig

# Bound on |tr - 1| and the psd_eig tolerance of the density gate; any
# matrix the gate accepts has ||rho||_F <= 1, so the floor is -1e-10.
_DENSITY_TOL = 1e-10


def _check_density(mat: np.ndarray, what: str = "matrix") -> None:
    passed, min_eig = psd_eig(mat, _DENSITY_TOL)  # enforces Hermiticity
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > _DENSITY_TOL:
        raise ContractViolation(f"{what} has trace {tr!r}, expected 1")
    if not passed:
        raise ContractViolation(f"{what} has negative eigenvalue {min_eig:.3e}")


def _check_unit_norm(psi: np.ndarray) -> None:
    """Refuse a norm off 1 by more than 1e-10, or NaN, or overflowing."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= 1e-10:
        raise ContractViolation(f"vector norm {norm!r} is not 1")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Bipartite state on C^dim_a x C^dim_b; validated at construction."""

    dim_a: int
    dim_b: int
    mat: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ParameterError(
                f"dimensions must be positive, got ({self.dim_a}, {self.dim_b})"
            )
        d = check_budget(self.dim_a * self.dim_b, "the state")
        arr = as_matrix(self.mat)
        if arr.shape != (d, d):
            raise ShapeError(f"state shape {arr.shape} does not match {d} x {d}")
        _check_density(arr, "density matrix")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @classmethod
    def from_pure(cls, psi, m: int, n: int) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        check_budget(psi.size, "the pure state")
        _check_unit_norm(psi)
        return cls(dim_a=m, dim_b=n, mat=np.outer(psi, psi.conj()))


def schmidt_rank(psi, m: int, n: int, tol: float = 1e-9) -> int:
    """Number of singular values of the m x n matricization above tol."""
    check_rank_tol(tol)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != m * n:
        raise ShapeError(f"vector length {psi.size} does not match m*n = {m * n}")
    _check_unit_norm(psi)
    s = np.linalg.svd(psi.reshape(m, n), compute_uv=False)
    return int(np.count_nonzero(s > tol))


def isotropic_state(n: int, p: float) -> DensityMatrix:
    """Mixture p * B/n + (1-p) * 1/n^2 of the normalized Bell state with
    white noise; partial transposition detects it exactly for p > 1/(n+1)."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"mixing parameter must lie in [0, 1], got {p}")
    check_budget(n * n, "the isotropic state")
    mat = p * bell_matrix(n) / n + (1.0 - p) * np.eye(n * n) / (n * n)
    return DensityMatrix(dim_a=n, dim_b=n, mat=mat)


def bell_state(n: int) -> DensityMatrix:
    return isotropic_state(n, 1.0)


def product_state(rho_a, rho_b) -> DensityMatrix:
    """Tensor product of two (validated) single-system states."""
    rho_a = as_matrix(rho_a)
    rho_b = as_matrix(rho_b)
    check_budget(rho_a.shape[0] * rho_b.shape[0], "the product state")
    for mat, name in ((rho_a, "left factor"), (rho_b, "right factor")):
        if mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"{name} is not square: {mat.shape}")
        _check_density(mat, name)
    return DensityMatrix(
        dim_a=rho_a.shape[0], dim_b=rho_b.shape[0], mat=kron(rho_a, rho_b)
    )


def random_pure(m: int, n: int, r: int, seed) -> np.ndarray:
    """Seeded pure state on C^m x C^n with Schmidt rank exactly r.

    Schmidt coefficients are drawn away from zero, then rotated by
    independent Haar unitaries on each factor.
    """
    if not 1 <= r <= min(m, n):
        raise ParameterError(f"Schmidt rank {r} outside 1..{min(m, n)}")
    check_budget(m * n, "the pure state")
    rng = rng_from_seed(seed)
    lam = rng.uniform(0.5, 1.5, size=r)
    lam = lam / np.linalg.norm(lam)
    U = haar_from_rng(rng, m)
    V = haar_from_rng(rng, n)
    psi = np.zeros(m * n, dtype=complex)
    for i in range(r):
        psi += lam[i] * np.kron(U[:, i], V[:, i])
    return psi


@dataclass(frozen=True, eq=False)
class DetectionVerdict:
    map_label: str
    min_eigenvalue: float
    detected: bool
    witness: np.ndarray | None


def _verdicts(rho: DensityMatrix, rep: MapRep, mats, label: str, tol: float):
    """Verdicts of id_m x Phi on each matrix of mats, which live on the
    spaces of rho.  Shapes and the tolerance are checked before the
    ampliation is built, and it is built once; a witness is solved only
    for an output that fails psd_eig."""
    if rep.n != rho.dim_b:
        raise ShapeError(
            f"map acts on M_{rep.n} but the state's second factor is C^{rho.dim_b}"
        )
    check_tol(tol)
    ext = extend_map(rep, rho.dim_a)
    verdicts = []
    for mat in mats:
        out = apply_map(ext, mat)
        passed, min_eig = psd_eig(out, tol)
        verdicts.append(DetectionVerdict(
            map_label=label,
            min_eigenvalue=min_eig,
            detected=not passed,
            witness=None if passed else hermitian_eig(out)[1][:, 0].copy(),
        ))
    return verdicts


def detect(rho: DensityMatrix, rep: MapRep, tol: float = DEFAULT_TOL) -> DetectionVerdict:
    """Verdict of the map on the state: apply id_m x Phi and look for a
    negative eigenvalue below the psd_eig tolerance."""
    return _verdicts(rho, rep, [rho.mat], rep.label, tol)[0]


@dataclass(frozen=True)
class SchmidtNumberCertificate:
    """Outcome of a Schmidt-number lower-bound attempt."""

    certified: bool
    t: int
    map_label: str
    t_positive: bool
    kpos_min_eig: float
    detect_min_eig: float | None
    claim: str | None
    reason: str


def sn_certificate(
    rho: DensityMatrix, rep: MapRep, t: int, tol: float = DEFAULT_TOL
) -> SchmidtNumberCertificate:
    """Certify Schmidt number >= t+1 when a t-positive map detects rho.

    First certifies t-positivity of the map through the block criterion
    (refusing, with a reason, if that fails), then runs detection.  Both
    margins are reported.
    """
    if not 1 <= t <= rep.n:
        raise ParameterError(f"t = {t} outside 1..{rep.n}")
    t_pos, kpos_eig = k_positivity(rep, t, tol)
    verdict = detect(rho, rep, tol) if t_pos else None
    claim = None
    if verdict is None:
        reason = (f"map is not {t}-positive (block min eigenvalue {kpos_eig:.3e}); "
                  "no conclusion about the state")
    elif not verdict.detected:
        reason = "map did not detect the state; Schmidt number may still be small"
    else:
        claim = f"schmidt number >= {t + 1}"
        reason = f"{t}-positive map produced eigenvalue {verdict.min_eigenvalue:.3e} < 0"
    return SchmidtNumberCertificate(
        certified=claim is not None, t=t, map_label=rep.label, t_positive=t_pos,
        kpos_min_eig=kpos_eig,
        detect_min_eig=None if verdict is None else verdict.min_eigenvalue,
        claim=claim, reason=reason,
    )


@dataclass(frozen=True, eq=False)
class DetectorFamily:
    """Base map together with Haar unitaries for the sampled detector.

    Unitaries derive from (seed, index), so the family for a samples is
    a prefix of the family for a+1 with the same seed and the detected
    set can only shrink as a grows.
    """

    base: MapRep
    unitaries: tuple[np.ndarray, ...]
    seed: int


def sampled_detector(rep: MapRep, a: int, seed) -> DetectorFamily:
    if a < 1:
        raise ParameterError(f"family size must be positive, got {a}")
    unitaries = tuple(
        haar_from_rng(rng_from_seed(subseed(seed, i)), rep.n) for i in range(a)
    )
    return DetectorFamily(base=rep, unitaries=unitaries, seed=int(seed))


def _rotate_witness(w: np.ndarray, U: np.ndarray, a: int, b: int) -> np.ndarray:
    """(1 x conj(U)^{x a} x U^{x b}) w, leg by leg on w as (m, n, ..., n)."""
    n = U.shape[0]
    t = w.reshape((-1,) + (n,) * (a + b))
    for leg, A in enumerate([U.conj()] * a + [U] * b, start=1):
        t = np.moveaxis(np.tensordot(A, t, axes=(1, leg)), 0, leg)
    return t.reshape(-1)


def family_verdicts(
    rho: DensityMatrix, family: DetectorFamily, tol: float = DEFAULT_TOL
) -> list[DetectionVerdict]:
    """Per-unitary verdicts of id_m x phi on (1 x U_i) rho (1 x U_i)*.

    An (a, b)-declared base only conjugates detect's output by the unitary
    1 x V(U_i), V(U) = conj(U)^{x a} x U^{x b}: every member gets detect's
    verdict, and a failed one the witness (1 x V(U_i)) w.  Any other base
    is solved per member, with U_i multiplying the n-blocks of rho's rows,
    then of its columns: 2 m^2 n^3 per member."""
    m, n = rho.dim_a, rho.dim_b
    label = f"family({family.base.label},a={len(family.unitaries)})"
    eq = family.base.equivariance
    if eq is not None and eq.kind == "ab":
        [v] = _verdicts(rho, family.base, [rho.mat], label, tol)
        return [v if v.witness is None
                else replace(v, witness=_rotate_witness(v.witness, U, eq.a, eq.b))
                for U in family.unitaries]
    rotated = (((U @ rho.mat.reshape(m, n, -1)).reshape(-1, m, n) @ U.conj().T)
               .reshape(m * n, -1) for U in family.unitaries)
    return _verdicts(rho, family.base, rotated, label, tol)


def family_block_minima(rho: DensityMatrix, family: DetectorFamily) -> np.ndarray:
    """Per-unitary minimum output eigenvalues min eig of
    (id_m x phi)((1 x U_i) rho (1 x U_i)*)."""
    return np.array([v.min_eigenvalue for v in family_verdicts(rho, family)])


def detect_with_family(
    rho: DensityMatrix, family: DetectorFamily, tol: float = DEFAULT_TOL
) -> DetectionVerdict:
    """Min-over-family verdict; monotone in the family size by the
    prefix property of sampled_detector."""
    return min(family_verdicts(rho, family, tol), key=lambda v: v.min_eigenvalue)


def _product_from_files(file_a: str, file_b: str) -> DensityMatrix:
    from . import serialize  # deferred; serialize needs DensityMatrix

    return product_state(serialize.load_matrix(file_a), serialize.load_matrix(file_b))


def _state_from_file(path: str) -> DensityMatrix:
    from . import serialize

    return serialize.load_state(path)


# The state grammar: {name: (typed keys, constructor, help line)}; None
# keys take the rest of the spec as one positional path.
STATE_SPECS = {
    "isotropic": (
        {"n": int, "p": float},
        lambda n, p: isotropic_state(n, float(p)),
        "isotropic:n=3,p=0.9",
    ),
    "bell": ({"n": int}, bell_state, "bell:n=3"),
    "pure": (
        {"m": int, "n": int, "r": int, "seed": int},
        lambda m, n, r, seed: DensityMatrix.from_pure(random_pure(m, n, r, seed), m, n),
        "pure:m=3,n=3,r=2,seed=7",
    ),
    "product": (
        {"fileA": str, "fileB": str},
        _product_from_files,
        "product:fileA=a.json,fileB=b.json",
    ),
    "file": (None, _state_from_file, 'file:rho.json  ({"m":..,"n":..,"mat":<matrix>})'),
}
STATE_GRAMMAR = grammar_text(STATE_SPECS, "state")


def parse_state_spec(text: str) -> DensityMatrix:
    """Parse the state mini-grammar shared with the command line tool."""
    return parse_spec(text, STATE_SPECS, "state")[2]
