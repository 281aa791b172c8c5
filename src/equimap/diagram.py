"""Wiring diagrams for the permutation-operator Choi basis.

A basis element of signature (a, b) is drawn as two columns of a+b+1
nodes.  Left nodes are matrix column indices (inputs), right nodes are
row indices (outputs); rows 1..a+1 are black on the left and white on
the right, the remaining b rows the other way around.  The underlying
permutation contributes an edge from left j to right pi(j); partially
transposing legs 1..a+1 then flips the side of every edge endpoint in
those rows.  The resulting perfect matching always pairs a black node
with a white one, and rebuilding a 0/1 matrix from the matching (each
edge is a Kronecker delta between its endpoint indices) recovers the
basis element exactly, which is what verify_wiring checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivariant import choi_basis_element
from .errors import ParameterError
from .perms import Permutation, check_budget

LEFT = "L"
RIGHT = "R"

Endpoint = tuple[str, int]
Edge = tuple[Endpoint, Endpoint]


def _end_key(end: Endpoint):
    side, idx = end
    return (0 if side == LEFT else 1, idx)


def _canonical_edge(e1: Endpoint, e2: Endpoint) -> Edge:
    return (e1, e2) if _end_key(e1) <= _end_key(e2) else (e2, e1)


@dataclass(frozen=True)
class WiringDiagram:
    """Perfect matching between 2(a+b+1) nodes in two columns of rows
    0..a+b (0-based)."""

    a: int
    b: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ParameterError(f"signature entries must be nonnegative: ({self.a}, {self.b})")
        k1 = self.leg_count
        expected = {(side, j) for side in (LEFT, RIGHT) for j in range(k1)}
        touched: list[Endpoint] = [end for edge in self.edges for end in edge]
        if sorted(touched, key=_end_key) != sorted(expected, key=_end_key):
            raise ParameterError("edges do not form a perfect matching on the nodes")
        for e1, e2 in self.edges:
            if self.color(*e1) == self.color(*e2):
                raise ParameterError(f"edge {e1}-{e2} joins two {self.color(*e1)} nodes")

    @property
    def leg_count(self) -> int:
        return self.a + self.b + 1

    def color(self, side: str, row: int) -> str:
        """'black' or 'white'; left rows 0..a are black, right rows 0..a white."""
        first_block = row <= self.a
        if side == LEFT:
            return "black" if first_block else "white"
        return "white" if first_block else "black"


def wiring(perm: Permutation, a: int, b: int) -> WiringDiagram:
    """Diagram of the basis element for perm with signature (a, b)."""
    k1 = a + b + 1
    if perm.degree != k1:
        raise ParameterError(
            f"permutation degree {perm.degree} does not match a+b+1 = {k1}"
        )

    def flip(end: Endpoint) -> Endpoint:
        side, j = end
        if j <= a:
            return (RIGHT if side == LEFT else LEFT, j)
        return end

    edges = []
    for j in range(k1):
        e1 = flip((LEFT, j))
        e2 = flip((RIGHT, perm(j)))
        edges.append(_canonical_edge(e1, e2))
    edges.sort(key=lambda e: (_end_key(e[0]), _end_key(e[1])))
    return WiringDiagram(a=a, b=b, edges=tuple(edges))


def matrix_from_wiring(d: WiringDiagram, n: int) -> np.ndarray:
    """Rebuild the 0/1 matrix encoded by the matching: left endpoints
    index columns, right endpoints rows, one Kronecker delta per edge."""
    if n < 2:
        raise ParameterError(f"leg dimension must be at least 2, got {n}")
    k1 = d.leg_count
    dim = check_budget(n**k1, f"the wiring rebuild on (C^{n})^{{x {k1}}}")

    def axis(end: Endpoint) -> int:
        side, j = end
        return j if side == RIGHT else k1 + j

    T = np.ones((n,) * (2 * k1))
    for e1, e2 in d.edges:
        a1, a2 = sorted((axis(e1), axis(e2)))
        shape = [1] * (2 * k1)
        shape[a1] = n
        shape[a2] = n
        T = T * np.eye(n).reshape(shape)
    return T.reshape(dim, dim)


def verify_wiring(d: WiringDiagram, perm: Permutation, n: int = 2) -> bool:
    """Exact equality between the rebuilt matrix and the basis element."""
    return bool(
        np.array_equal(matrix_from_wiring(d, n), choi_basis_element(n, d.a, d.b, perm))
    )


_MARK = {"black": "*", "white": "o"}


def render_text(d: WiringDiagram, title: str = "") -> str:
    """Fixed-width rendering, one row per leg, edge ids at both endpoints."""
    edge_id = {}
    for i, edge in enumerate(d.edges):
        for end in edge:
            edge_id[end] = f"e{i + 1}"
    lines = [f"wiring a={d.a} b={d.b}" + (f" {title}" if title else "")]
    for j in range(d.leg_count):
        lmark = _MARK[d.color(LEFT, j)]
        rmark = _MARK[d.color(RIGHT, j)]
        lines.append(
            f"  leg {j + 1}: L[{lmark}]-{edge_id[(LEFT, j)]:<3} R[{rmark}]-{edge_id[(RIGHT, j)]:<3}".rstrip()
        )
    return "\n".join(lines)


def _dot_cluster(d: WiringDiagram, label: str, tag: str, lines: list[str]) -> None:
    lines.append(f'  subgraph cluster_{tag} {{')
    lines.append(f'    label="{label}";')
    for j in range(d.leg_count):
        for side, prefix in ((LEFT, "L"), (RIGHT, "R")):
            color = d.color(side, j)
            lines.append(
                f'    {tag}_{prefix}{j} [fillcolor={color}, pos="{0 if side == LEFT else 2},{-j}!"];'
            )
    for (s1, j1), (s2, j2) in d.edges:
        p1 = "L" if s1 == LEFT else "R"
        p2 = "L" if s2 == LEFT else "R"
        lines.append(f"    {tag}_{p1}{j1} -- {tag}_{p2}{j2};")
    lines.append("  }")


def render_dot(diagram_or_terms, graph_name: str = "wiring") -> str:
    """DOT source for one diagram or for a labelled sum of diagrams.

    Accepts a WiringDiagram or an iterable of (label, WiringDiagram)
    pairs; each term becomes one cluster, labels carry coefficients.
    """
    if isinstance(diagram_or_terms, WiringDiagram):
        terms = [("", diagram_or_terms)]
    else:
        terms = list(diagram_or_terms)
    lines = [f"graph {graph_name} {{"]
    lines.append("  node [shape=circle, style=filled, label=\"\", width=0.2];")
    for i, (label, d) in enumerate(terms):
        _dot_cluster(d, str(label), f"t{i}", lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
