"""Named constructors for the concrete maps used throughout the package.

Every map of signature (a, b) is one coefficient table over the
permutation basis, keyed by cycle strings such as "(1 2 3)" as in
coefficient files, and built by build_equivariant, so it carries its
(a, b) declaration by construction; the tests run each constructor
through check_ab_equivariance.  Parameters must be real numbers.

All formulas act on A in M_n; B denotes the unnormalized Bell matrix.

    identity_map     A -> A
    transpose_map    A -> A^t
    bhat_map         A -> alpha A + beta Tr(A) 1       (the whole (0,1) space)
    choi_map         A -> (n-1) Tr(A) 1 - A            (= bhat(-1, n-1))
    tomiyama_map     A -> (lam/n) Tr(A) 1 + (1-lam) A  (= bhat(1-lam, lam/n))
    collins_map      A -> A^t x 1 + 1 x A + Tr(A)(alpha 1 + beta B)
    collins3_map     collins_map + gamma (B (1 x A) + (1 x A) B)
    conjugation_map  A -> M A M*
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import corner_verdicts
from .choi import Equivariance, MapRep
from .errors import ParameterError
from .equivariant import (
    EquivariantSpec, build_equivariant, check_coefficients, check_signature,
)
from .grammar import grammar_text, parse_spec
from .linalg import as_matrix, matrix_rank, psd_eig  # noqa: F401 (psd_eig is re-exported)
from .perms import check_budget, check_work, enumerate_sym
from .positivity import DEFAULT_TOL

# Cycle string -> permutation, per degree a+b+1 of the zoo's signatures.
_PERMS = {k: {p.cycle_string(): p for p in enumerate_sym(k)} for k in (2, 3)}


def _fmt(x: float) -> str:
    return f"{x:g}"


def _check_n(n: int) -> None:
    if n < 2:
        raise ParameterError(f"dimension must be at least 2, got {n}")


def _reals(**params) -> list:
    """The parameters as floats, or float arrays for grids; a
    complex-typed value is refused."""
    for name, value in params.items():
        if np.iscomplexobj(value):
            raise ParameterError(f"{name} must be real, got {value}")
    return [float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
            for v in params.values()]


def _ab_map(n: int, a: int, b: int, table: dict, label: str) -> MapRep:
    """build_equivariant of a coefficient table keyed by cycle strings."""
    coeffs = {_PERMS[a + b + 1][s]: c for s, c in table.items()}
    return build_equivariant(EquivariantSpec(n=n, a=a, b=b, coeffs=coeffs), label=label)


def identity_map(n: int) -> MapRep:
    """A -> A; Choi is the unnormalized Bell matrix."""
    return _ab_map(n, 0, 1, {"(1 2)": 1.0}, f"identity(n={n})")


def transpose_map(n: int) -> MapRep:
    """A -> A^t; Choi is the swap operator."""
    return _ab_map(n, 1, 0, {"(1 2)": 1.0}, f"transpose(n={n})")


def bhat_map(n: int, alpha: float, beta: float) -> MapRep:
    """A -> alpha A + beta Tr(A) 1; spans all maps of signature (0, 1)."""
    alpha, beta = _reals(alpha=alpha, beta=beta)
    label = f"bhat(n={n},alpha={_fmt(alpha)},beta={_fmt(beta)})"
    return _ab_map(n, 0, 1, {"()": beta, "(1 2)": alpha}, label)


def choi_map(n: int) -> MapRep:
    """A -> (n-1) Tr(A) 1 - A; the classic positive-not-CP example.

    Equal to bhat_map(n, -1, n-1); (n-1)-positive but not n-positive.
    """
    return _ab_map(n, 0, 1, {"()": float(n - 1), "(1 2)": -1.0}, f"choi(n={n})")


def tomiyama_map(n: int, lam: float) -> MapRep:
    """A -> (lam/n) Tr(A) 1 + (1-lam) A.

    k-positive exactly for 0 <= lam <= 1 + 1/(n k - 1), which makes the
    family sweep out every positivity degree as lam grows.
    """
    (lam,) = _reals(lam=lam)
    _check_n(n)  # before lam / n, which n = 0 would turn into ZeroDivisionError
    label = f"tomiyama(n={n},lambda={_fmt(lam)})"
    return _ab_map(n, 0, 1, {"()": lam / n, "(1 2)": 1.0 - lam}, label)


def _collins_table(n, alpha, beta, gamma, allow_small_n=False) -> dict:
    """Coefficients of collins3 (collins at gamma = 0); grid arrays give
    one table per grid point."""
    if n < 3 and not allow_small_n:
        raise ParameterError(
            f"this family is stated for n >= 3 (got n={n}); "
            "pass allow_small_n=True to explore anyway"
        )
    return {"()": alpha, "(1 2)": 1.0, "(1 3)": 1.0, "(2 3)": beta,
            "(1 2 3)": gamma, "(1 3 2)": gamma}


def _collins(name, params, n, alpha, beta, gamma, allow_small_n) -> MapRep:
    table = _collins_table(n, alpha, beta, gamma, allow_small_n)
    suffix = ",unvalidated-n" if n < 3 else ""
    return _ab_map(n, 1, 1, table, f"{name}({params}{suffix})")


def collins_map(n: int, alpha: float, beta: float, allow_small_n: bool = False) -> MapRep:
    """A -> A^t x 1 + 1 x A + Tr(A)(alpha 1 + beta B) on M_n -> M_{n^2}.

    Built as the signature (1, 1) combination with coefficients 1 and 1
    on the transpositions (1 2) and (1 3), alpha on the identity and
    beta on (2 3).  Stated for n >= 3; pass allow_small_n=True to
    explore n = 2 (labelled unvalidated).
    """
    alpha, beta = _reals(alpha=alpha, beta=beta)
    params = f"n={n},alpha={_fmt(alpha)},beta={_fmt(beta)}"
    return _collins("collins", params, n, alpha, beta, 0.0, allow_small_n)


def collins3_map(
    n: int, alpha: float, beta: float, gamma: float, allow_small_n: bool = False
) -> MapRep:
    """Three-parameter extension of collins_map: adds
    gamma (B (1 x A) + (1 x A) B), i.e. gamma on both 3-cycles."""
    alpha, beta, gamma = _reals(alpha=alpha, beta=beta, gamma=gamma)
    params = f"n={n},alpha={_fmt(alpha)},beta={_fmt(beta)},gamma={_fmt(gamma)}"
    return _collins("collins3", params, n, alpha, beta, gamma, allow_small_n)


def conjugation_map(M) -> MapRep:
    """A -> M A M*.

    Always completely positive.  For invertible M the map is declared
    "equivariant": conjugating the argument by U conjugates the output
    by M U M^-1.  Singular M gets no declaration.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ParameterError(f"conjugation needs a square matrix, got {M.shape}")
    n = M.shape[0]
    _check_n(n)
    check_budget(n * n, "the Choi matrix")
    # Every entry of v v* is at most max|M|^2 in modulus.
    with np.errstate(over="ignore"):
        top = float(np.abs(M).max())
    if not math.isfinite(top * top):
        raise ParameterError(
            f"conjugation matrix entries must be finite numbers whose squares "
            f"are finite, got max|M| = {top:.3e}"
        )
    # C = v v* with v = sum_i e_i x M e_i, so entry (i, p) of v is M[p, i].
    v = M.T.reshape(-1)
    choi = np.outer(v, v.conj())
    eq = Equivariance("equivariant") if matrix_rank(M, 1e-10) == n else None
    return MapRep(n=n, N=n, choi=choi, label=f"conj({n}x{n})", equivariance=eq)


@dataclass(frozen=True, eq=False)
class ZooEntry:
    """A constructed map together with the grammar name and parameters
    that produced it."""

    name: str
    params: dict
    rep: MapRep


def _conj_from_file(path: str) -> MapRep:
    from . import serialize  # deferred; serialize needs MapRep

    return conjugation_map(serialize.load_matrix(path))


# The map grammar: {name: (typed keys, constructor, help line)}.  The
# lambdas look constructors up when called, so a module-level wrapper
# (such as perfbench's span recorder) sees spec-built maps too.
MAP_SPECS = {
    "identity": ({"n": int}, lambda n: identity_map(n), "identity:n=3"),
    "transpose": ({"n": int}, lambda n: transpose_map(n), "transpose:n=3"),
    "choi": ({"n": int}, lambda n: choi_map(n), "choi:n=3"),
    "tomiyama": (
        {"n": int, "lambda": float},
        lambda n, lam: tomiyama_map(n, lam),
        "tomiyama:n=3,lambda=1.2",
    ),
    "bhat": (
        {"n": int, "alpha": float, "beta": float},
        lambda n, alpha, beta: bhat_map(n, alpha, beta),
        "bhat:n=3,alpha=1,beta=0",
    ),
    "collins": (
        {"n": int, "alpha": float, "beta": float},
        lambda n, alpha, beta: collins_map(n, alpha, beta),
        "collins:n=3,alpha=2,beta=-1",
    ),
    "collins3": (
        {"n": int, "alpha": float, "beta": float, "gamma": float},
        lambda n, alpha, beta, gamma: collins3_map(n, alpha, beta, gamma),
        "collins3:n=3,alpha=2,beta=-1,gamma=0.5",
    ),
    "conj": ({"file": str}, _conj_from_file, "conj:file=A.json  (matrix JSON file)"),
}
MAP_GRAMMAR = grammar_text(MAP_SPECS, "map")


def parse_map_spec(text: str) -> ZooEntry:
    """Parse the NAME:KEY=VALUE,... grammar into a constructed map."""
    return ZooEntry(*parse_spec(text, MAP_SPECS, "map"))


def positivity_scan(
    n: int,
    alphas,
    betas,
    gamma: float | None = None,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """Grid scan of the two-parameter family (three-parameter when gamma
    is given): per point, the block verdicts at k=1 (positivity) and
    k=n (complete positivity).

    The grid is one real coefficient array per permutation, validated per
    point, and each column is one stacked solve in the coloured algebra
    (algebra.corner_verdicts), with no map, Choi matrix or corner built
    per point."""
    points = check_work(len(alphas) * len(betas), "scan grid points")
    if not points:
        return []
    alphas, betas, g = _reals(alpha=alphas, beta=betas, gamma=0.0 if gamma is None else gamma)
    grid = _collins_table(n, np.repeat(alphas, betas.size), np.tile(betas, alphas.size), g)
    check_signature(n, 1, 1)
    coeffs = {_PERMS[3][s]: np.broadcast_to(c, (points,)) for s, c in grid.items()}
    check_coefficients(coeffs, 3)
    verdicts = zip(corner_verdicts(n, 1, 1, coeffs, 1, tol),
                   corner_verdicts(n, 1, 1, coeffs, n, tol))
    rows = []
    for alpha, beta, ((pos, e1), (cp, en)) in zip(grid["()"], grid["(2 3)"], verdicts):
        row = {
            "alpha": float(alpha),
            "beta": float(beta),
            "k1MinEig": e1,
            "knMinEig": en,
            "positive": pos,
            "cp": cp,
            "positiveNotCp": pos and not cp,
        }
        if gamma is not None:
            row["gamma"] = float(gamma)
        rows.append(row)
    return rows
