"""Corner verdicts of built maps in the coloured walled Brauer algebra.

The (a, b) basis elements are the walled Brauer diagrams on m = a+b+1
legs (Koike, Adv. Math. 74 (1989); Benkart et al., J. Algebra 166
(1994)).  A diagram is m strands, each a Kronecker delta between two of
its 2m nodes: node j < m is the row index of leg j and node m + j its
column index, the matching that diagram.wiring draws.  The order-k corner
C_k of a Choi matrix keeps the input leg's two indices below k.  Splitting
every other strand's delta into its part on indices < k (colour k) and on
indices >= k (colour r) writes C_k as f(pi) on every colouring of pi's
free strands; the strands at the input leg's two nodes are always k.
That gives 1, 3, 16 or 120 coloured diagrams for m = 1..4.

Coloured diagrams multiply by stacking: a path or loop whose strands
disagree in colour gives 0, and each closed loop a factor k or n - k by
its colour.  They span a *-algebra of operators whose unit is the
projection onto the corner, so the eigenvalues of C_k are, as a set,
those of left multiplication L by C_k on that algebra.  The trace form
G[i, j] = Tr(e_i* e_j), two diagrams overlaid and their loops closed,
makes L self-adjoint, and the linear relations among coloured diagrams
are exactly its kernel.  So on the range of G (relative cutoff 1e-10) the
Hermitian matrix G^1/2 L G^-1/2 has the eigenvalues of C_k for every n
and k, with no faithfulness condition on n, and ||C_k||_F^2 = f* G f.
At k = n, G is the Gram matrix of S_m, whose pseudo-inverse is the
Weingarten matrix (Collins & Sniady, Comm. Math. Phys. 264 (2006)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping

import numpy as np

from .diagram import LEFT, wiring
from .equivariant import PINV_RCOND
from .errors import ParameterError
from .linalg import DEFAULT_TOL, check_tol, psd_passes
from .perms import MAX_REP_DIM, Permutation, enumerate_sym


def coloured_count(m: int) -> int:
    """Number of coloured diagrams on m legs: each of the (m-1)! diagrams
    whose input leg's two nodes share a strand colours its other m - 1
    strands freely, and each of the other m! - (m-1)! its other m - 2."""
    return math.factorial(m - 1) * 2 ** (m - 1) * (m + 1) // 2


def routes(a: int, b: int) -> bool:
    """Whether the algebra answers signature (a, b): its coloured diagrams,
    1152 from a+b+1 = 5 on, must fit one dense side of MAX_REP_DIM."""
    return coloured_count(a + b + 1) <= MAX_REP_DIM


def _gather(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """rows[g][index[g]] for every g, index of any shape after the first axis."""
    flat = index.reshape(len(index), -1) + rows.shape[1] * np.arange(len(index))[:, None]
    return rows.reshape(-1)[flat].reshape(index.shape)


def _components(links: np.ndarray) -> np.ndarray:
    """Component of each strand, named by its smallest strand, in every
    gluing at once: links[g, s] are the strands that strand s meets at its
    two nodes, itself at a node left open.  A path or loop through all 2m
    strands is labelled after 2m rounds."""
    count, size = links.shape[:2]
    flat = (links + size * np.arange(count)[:, None, None]).reshape(count, -1)
    root = np.tile(np.arange(size), count)
    for _ in range(size):
        root = np.minimum(root, root[flat].reshape(-1, 2).min(axis=1))
    return root.reshape(count, size)


@dataclass(frozen=True, eq=False)
class _Table:
    """Structure constants of the coloured diagrams of one signature, in
    loop counts: e_i e_j = k^kl (n-k)^rl e_l and Tr(e_i* e_j) =
    k^kl (n-k)^rl over the nonzero pairs."""

    perms: list[Permutation]
    owner: np.ndarray  # permutation index of each coloured diagram
    colour: np.ndarray  # its strands' colours, 0 for k and 1 for r
    product: tuple  # (i, j, l, kl, rl)
    trace: tuple  # (i, j, kl, rl)


def _colour_pairs(owner, colour, root, loop):
    """Every pair (i, j) of coloured diagrams glued as their permutations
    are: root[u] and loop[u] name the component of each of the 2m strands
    (i's first) and mark the loops of permutation pair u.  Returns the
    pairs whose components keep one colour, the k and r loops of each, the
    index u and the colour of every strand."""
    size, count = len(owner), int(owner.max()) + 1
    i, j = np.divmod(np.arange(size * size), size)
    u = owner[i] * count + owner[j]
    c = np.concatenate([colour[i], colour[j]], axis=1)
    root, loop = root[u], loop[u]
    ok = (_gather(c, root) == c).all(axis=1)
    kl = (loop & (c == 0)).sum(axis=1)
    rl = (loop & (c == 1)).sum(axis=1)
    return i[ok], j[ok], kl[ok], rl[ok], u[ok], c[ok]


@lru_cache(maxsize=None)
def _table(a: int, b: int) -> _Table:
    m = a + b + 1
    perms = enumerate_sym(m)
    count = len(perms)
    # The two nodes of each strand, in wiring's order, and the strand and
    # the mate of each node.
    node = np.array([[sorted(m + j if side == LEFT else j for side, j in ends)
                      for ends in wiring(p, a, b).edges] for p in perms])
    at = np.arange(count)[:, None], node.reshape(count, -1)
    S, mate = np.zeros((2, count, 2 * m), dtype=int)
    S[at] = np.arange(m).repeat(2)
    mate[at] = node[:, :, ::-1].reshape(count, -1)
    nodes = np.arange(2 * m)

    # Colourings, 0 for k and 1 for r, coded as sum colour[t] 2^t; the
    # strands at the input leg's nodes 0 and m stay k.
    owner, colour = [], []
    for d, s in enumerate(S.tolist()):
        free = sorted(set(range(m)) - {s[0], s[m]})
        for bits in product((0, 1), repeat=len(free)):
            row = [0] * m
            for t, bit in zip(free, bits):
                row[t] = bit
            owner.append(d)
            colour.append(row)
    owner, colour = np.array(owner), np.array(colour)
    weight = 2 ** np.arange(m)
    code = np.full((count, 2**m), -1)
    code[owner, (colour * weight).sum(axis=1)] = np.arange(len(owner))

    # Glue every permutation pair (x, y), y's strands numbered from m, two
    # ways: overlaid, they meet at every node; stacked, x's column nodes
    # meet y's row nodes, and x's row and y's column nodes stay open as the
    # product's.  meet[v] is the strand met at node v.
    x, y = np.divmod(np.arange(count * count), count)
    X, Y = S[x], m + S[y]
    meet_x = np.concatenate([Y, np.concatenate([X[:, :m], Y[:, :m]], axis=1)])
    meet_y = np.concatenate([X, np.concatenate([X[:, m:], Y[:, m:]], axis=1)])
    both = np.concatenate([x, x]), np.concatenate([y, y])
    overlay, root = np.split(_components(np.concatenate(
        [_gather(meet_x, node[both[0]]), _gather(meet_y, node[both[1]])], axis=1)), 2)
    i, j, kl, rl, _, _ = _colour_pairs(owner, colour, overlay, overlay == nodes)
    trace = (i, j, kl, rl)

    # Stacked: ends[v] is the component at the product's node v; a
    # component with no end is a loop, and the two ends of each path are
    # joined by a strand of the product diagram rho.
    ends = _gather(root, np.concatenate([X[:, :m], Y[:, m:]], axis=1))
    loop = (root == nodes) & ~(ends[:, :, None] == nodes).any(axis=1)
    joined = ends[:, :, None] == ends[:, None, :]
    joined[:, nodes, nodes] = False
    index = {tuple(row): d for d, row in enumerate(mate.tolist())}
    rho = np.array([index[tuple(row)] for row in joined.argmax(axis=2).tolist()])
    # The root of each of the product's strands, read at its nodes.
    res = np.zeros((len(rho), m), dtype=int)
    res[np.arange(len(rho))[:, None], S[rho]] = ends
    i, j, kl, rl, u, c = _colour_pairs(owner, colour, root, loop)
    l = code[rho[u], (_gather(c, res[u]) * weight).sum(axis=1)]
    return _Table(perms, owner, colour, (i, j, l, kl, rl), trace)


@lru_cache(maxsize=256)
def _frame(a: int, b: int, n: int, k: int):
    """(K, Z) at leg dimension n and corner k, read-only: K[pi] is
    G^1/2 L G^-1/2 of the coloured diagrams of pi summed, and Z[:, pi]
    their coordinates, both on the range of G in an orthonormal frame, so
    that for the coefficient vector f the corner has the eigenvalues of
    sum f[pi] K[pi] and the Frobenius norm ||Z f||."""
    t = _table(a, b)
    size, count = len(t.owner), len(t.perms)
    i, j, kl, rl = t.trace
    G = np.zeros((size, size))
    G[i, j] = float(k) ** kl * float(n - k) ** rl
    # Scale each diagram to unit norm; a diagram of norm 0 (an r strand
    # at k = n) is the zero operator.
    d = np.sqrt(np.diag(G))
    keep = d > 0
    d = d[keep]
    s, U = np.linalg.eigh(G[np.ix_(keep, keep)] / np.outer(d, d))
    kept = s > PINV_RCOND * s[-1]
    s, U = np.sqrt(s[kept]), U[:, kept]
    into = s[:, None] * U.T * d  # G^1/2 in the frame, on scaled coordinates
    back = U / d[:, None] / s  # its inverse
    i, j, l, kl, rl = t.product
    flat = (t.owner[i] * size + l) * size + j
    L = np.bincount(flat, float(k) ** kl * float(n - k) ** rl, count * size * size)
    L = L.reshape(count, size, size)[:, keep][:, :, keep]
    owner = np.zeros((size, count))
    owner[np.arange(size), t.owner] = 1.0
    frame = into @ L @ back, into @ owner[keep]
    for arr in frame:
        arr.setflags(write=False)
    return frame


def corner_scales(n: int, a: int, b: int, coeffs: Mapping[Permutation, object], k: int):
    """(scale, norm, low) per point: the order-k corner of the (a, b) map
    sum_pi f(pi) * basis element of pi on M_n, divided by scale = max |f|
    (1 for the zero map), has Frobenius norm norm and least eigenvalue
    low, read in the coloured algebra without the corner.

    The coefficients must meet the pairing f(pi^-1) = conj(f(pi)), as an
    EquivariantSpec's do.  Values may be arrays of one shape over grid
    points, one point each in C order, solved in stacks of at most
    MAX_REP_DIM^2 entries; dividing by scale keeps every step finite.
    """
    if not 1 <= k <= n:
        raise ParameterError(f"k = {k} outside 1..{n}")
    perms = _table(a, b).perms
    K, Z = _frame(a, b, n, k)
    values = np.broadcast_arrays(*(np.asarray(coeffs.get(p, 0.0)) for p in perms))
    F = np.stack(values, axis=-1).reshape(-1, len(perms))
    if not F.imag.any():
        F = F.real
    scale = np.abs(F).max(axis=1)
    scale[scale == 0] = 1.0
    F = F / scale[:, None]
    side = K.shape[1]
    chunk = max(1, MAX_REP_DIM**2 // side**2)
    low = []
    for start in range(0, len(F), chunk):
        H = (F[start : start + chunk] @ K.reshape(len(perms), -1)).reshape(-1, side, side) / 2.0
        low.append(np.linalg.eigvalsh(H + H.conj().swapaxes(1, 2))[:, 0])
    return scale, np.linalg.norm(F @ Z.T, axis=1), np.concatenate(low)


def corner_verdicts(
    n: int, a: int, b: int, coeffs: Mapping[Permutation, object], k: int,
    tol: float = DEFAULT_TOL,
) -> list[tuple[bool, float]]:
    """psd_eig's verdict (passed, minEig) on each order-k corner that
    corner_scales reads, one per point."""
    scales = corner_scales(n, a, b, coeffs, k)
    check_tol(tol)
    out = []
    for scale, norm, low in zip(*(v.tolist() for v in scales)):
        min_eig = scale * low
        out.append((psd_passes(min_eig, tol, scale * norm, lambda: (norm, scale)), min_eig))
    return out
