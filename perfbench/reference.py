"""Reference answers the benchmark owns: closed forms from the paper and
direct numpy constructions that share no code with equimap."""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def tomiyama_bound(n: int, k: int) -> float:
    """Tomiyama's map is k-positive iff 0 <= lambda <= 1 + 1/(nk - 1)."""
    return 1.0 + 1.0 / (n * k - 1)


def tomiyama_max_k(n: int, lam: float) -> int:
    return max((k for k in range(1, n + 1) if lam <= tomiyama_bound(n, k)), default=0)


def bhat_block_min(alpha: float, beta: float, k: int) -> float:
    """The order-k block of alpha B + beta 1 has eigenvalues beta + alpha k
    (once) and beta."""
    return min(beta, beta + alpha * k)


def isotropic_pt_min(n: int, p: float) -> float:
    """Least eigenvalue of the partial transpose of the isotropic state:
    negative exactly when p > 1/(n+1)."""
    return -p / n + (1.0 - p) / n**2


def choi_on_bell_min(n: int) -> float:
    return -1.0 / n


def _bell(n: int) -> np.ndarray:
    b = np.eye(n).reshape(-1)
    return np.outer(b, b)


def collins_choi(n: int, alpha: float, beta: float, gamma: float = 0.0) -> np.ndarray:
    """Choi matrix of A -> A^t x 1 + 1 x A + Tr(A)(alpha 1 + beta B)
    + gamma (B (1 x A) + (1 x A) B), evaluated on every matrix unit."""
    N = n * n
    eye, B = np.eye(n), _bell(n)
    C = np.zeros((n * N, n * N))
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n))
            unit[i, j] = 1.0
            one_a = np.kron(eye, unit)
            out = np.kron(unit.T, eye) + one_a + gamma * (B @ one_a + one_a @ B)
            if i == j:
                out += alpha * np.eye(N) + beta * B
            C[i * N:(i + 1) * N, j * N:(j + 1) * N] = out
    return C


def block_min(C: np.ndarray, n: int, k: int) -> float:
    d = k * (C.shape[0] // n)
    return float(np.linalg.eigvalsh(C[:d, :d])[0])


def partial_transpose_second(psi: np.ndarray, k: int, n: int) -> np.ndarray:
    """(id_k x transpose)(psi psi*) for psi on C^k x C^n."""
    rho = np.outer(psi, psi.conj()).reshape(k, n, k, n)
    return rho.transpose(0, 3, 2, 1).reshape(k * n, k * n)


def close(x: float, y: float, tol: float = TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))
