"""Symmetric-group elements, their leg-permutation operators, and the
Gram matrix of trace pairings between those operators."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import count
from itertools import permutations as _all_permutations

import numpy as np

from .errors import CapacityError, ParameterError

# The one size budget on the side of every dense operator a request sizes
# (an (a, b) operator, a state, a Choi matrix, S_k), and on the count of
# work items; read only below and by the coloured algebra (its route and
# its stack chunks).  The ampliation id_m x Phi is still outside it: the
# one MemoryError source.
MAX_REP_DIM = 1024


def check_budget(side: int, what: str) -> int:
    """Return side, or raise CapacityError when a dense operator of this
    side would exceed the budget; call before allocating it."""
    if side > MAX_REP_DIM:
        raise CapacityError(
            f"{what} needs a dense side of {side}, over the size cap MAX_REP_DIM = {MAX_REP_DIM}"
        )
    return side


def check_work(count: int, what: str) -> int:
    """Return count, or raise CapacityError when a request asks for more
    than one dense operator's worth, MAX_REP_DIM^2, of work items (scan
    grid points, falsifier trials, family unitary entries); call before
    any work starts."""
    if count > MAX_REP_DIM**2:
        raise CapacityError(
            f"{what} number {count}, over the work cap MAX_REP_DIM^2 = {MAX_REP_DIM**2}"
        )
    return count


# S_k is k! elements with a k!-side Gram matrix, so the budget admits 6.
MAX_SYM_DEGREE = next(k for k in count(1) if math.factorial(k + 1) > MAX_REP_DIM)

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class Permutation:
    """Element of S_k, stored 0-based: images[i] = pi(i)."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ParameterError(f"not a bijection on 0..{len(images) - 1}: {images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        if k < 1:
            raise ParameterError(f"degree must be positive, got {k}")
        return cls(tuple(range(k)))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if other.degree != self.degree:
            raise ParameterError(
                f"cannot compose degrees {self.degree} and {other.degree}"
            )
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, 0-based, fixed points included; each cycle
        starts at its smallest member and cycles are sorted by that member."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_count(self) -> int:
        return len(self.cycles())

    def cycle_string(self) -> str:
        """1-based cycle notation; fixed points omitted; identity is '()'."""
        parts = [
            "(" + " ".join(str(i + 1) for i in cyc) + ")"
            for cyc in self.cycles()
            if len(cyc) > 1
        ]
        return "".join(parts) if parts else "()"

    def __str__(self) -> str:
        return self.cycle_string()

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        """Parse 1-based cycle notation like "(1 2 3)(4 5)" or "()"."""
        if degree < 1:
            raise ParameterError(f"degree must be positive, got {degree}")
        stripped = text.strip()
        groups = _CYCLE_RE.findall(stripped)
        leftover = _CYCLE_RE.sub("", stripped).strip()
        if leftover or not groups:
            raise ParameterError(
                f"cannot parse cycle notation {text!r}; expected groups like '(1 2 3)(4 5)' or '()'"
            )
        images = list(range(degree))
        seen: set[int] = set()
        for grp in groups:
            toks = grp.split()
            if not toks:
                continue
            try:
                pts = [int(t) for t in toks]
            except ValueError:
                raise ParameterError(f"non-integer entry in cycle {grp!r}") from None
            for p in pts:
                if not 1 <= p <= degree:
                    raise ParameterError(f"point {p} outside 1..{degree} in {text!r}")
                if p - 1 in seen:
                    raise ParameterError(f"point {p} repeated in {text!r}")
                seen.add(p - 1)
            for i, p in enumerate(pts):
                images[p - 1] = pts[(i + 1) % len(pts)] - 1
        return cls(tuple(images))


def enumerate_sym(k: int) -> list[Permutation]:
    """All of S_k in lexicographic order of image tuples; identity first."""
    if k < 1:
        raise CapacityError(f"degree must be positive, got {k}")
    check_budget(math.factorial(k), f"S_{k}")
    return [Permutation(p) for p in _all_permutations(range(k))]


def sigma_rep(perm: Permutation, n: int) -> np.ndarray:
    """Leg-permutation operator on (C^n)^{x k}.

    Sends e_{i_1} x ... x e_{i_k} to the tuple whose slot s carries
    input slot pi^(-1)(s); returns a dense 0/1 matrix.
    """
    if n < 2:
        raise ParameterError(f"leg dimension must be at least 2, got {n}")
    k = perm.degree
    dim = check_budget(n**k, f"a leg permutation on (C^{n})^{{x {k}}}")
    src = np.arange(dim).reshape((n,) * k)
    cols = np.transpose(src, axes=perm.inverse().images).reshape(-1)
    M = np.zeros((dim, dim))
    M[np.arange(dim), cols] = 1.0
    return M


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Trace pairings G[pi][tau] = n^(cycles of pi^(-1) tau) over S_degree,
    rows and columns in enumerate_sym order."""

    degree: int
    dim: int
    mat: np.ndarray


def gram_matrix(k: int, n: int) -> GramMatrix:
    if n < 2:
        raise ParameterError(f"leg dimension must be at least 2, got {n}")
    images = np.array([p.images for p in enumerate_sym(k)])
    comp = np.argsort(images, axis=1)[:, images]  # comp[i, j] = pi_i^(-1) o pi_j
    # A point starts a cycle when no point of its orbit (closed within
    # k - 1 steps) is smaller.
    starts = np.ones(comp.shape, dtype=bool)
    orbit = comp
    for _ in range(k - 1):
        starts &= orbit >= np.arange(k)
        orbit = np.take_along_axis(comp, orbit, axis=2)
    return GramMatrix(degree=k, dim=n, mat=float(n) ** starts.sum(axis=2))
