"""Shared brute-force oracles for the test suite.

raw_choi assembles sum_ij e_ij x f(e_ij) directly, with no Hermiticity
gate, so individual non-self-adjoint maps (single 3-cycles) can be
compared entrywise against basis elements.  pairwise_cycle_counts takes
one Permutation.compose per pair, the loop that the vectorised
perms.gram_matrix replaced.  ZOO_MAPS and draw_state are hypothesis
strategies for the property tests of positivity and detection.
"""

import numpy as np
from hypothesis import strategies as st

from equimap.detection import DensityMatrix, isotropic_state, random_pure
from equimap.linalg import complex_gaussian
from equimap.perms import enumerate_sym
from equimap.zoo import (
    bhat_map,
    choi_map,
    collins3_map,
    collins_map,
    identity_map,
    tomiyama_map,
    transpose_map,
)

_REAL = st.floats(-2.0, 2.0, allow_nan=False)
# Every zoo map with a coefficient table, so each carries an "ab"
# declaration; all small enough for the dense extend-then-apply oracle.
ZOO_MAPS = st.one_of(
    st.builds(identity_map, st.integers(2, 4)),
    st.builds(transpose_map, st.integers(2, 4)),
    st.builds(choi_map, st.integers(2, 4)),
    st.builds(tomiyama_map, st.integers(2, 4), _REAL),
    st.builds(bhat_map, st.integers(2, 4), _REAL, _REAL),
    st.builds(collins_map, st.just(3), _REAL, _REAL),
    st.builds(collins3_map, st.just(3), _REAL, _REAL, _REAL),
)


def draw_state(data, n):
    """An isotropic state on C^n x C^n or a seeded pure state on C^m x C^n."""
    if data.draw(st.booleans(), label="isotropic"):
        return isotropic_state(n, data.draw(st.floats(0.0, 1.0), label="p"))
    m = data.draw(st.integers(1, 3), label="m")
    r = data.draw(st.integers(1, min(m, n)), label="r")
    psi = random_pure(m, n, r, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return DensityMatrix.from_pure(psi, m, n)


def raw_choi(fn, n, N):
    C = np.zeros((n * N, n * N), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit[i, j] = 1.0
            C[i * N : (i + 1) * N, j * N : (j + 1) * N] = fn(unit)
            unit[i, j] = 0.0
    return C


def random_paired_coeffs(k1, rng):
    """Random coefficients satisfying f(pi^-1) = conj(f(pi)): real on
    involutions, conjugate pairs elsewhere."""
    coeffs = {}
    for p in enumerate_sym(k1):
        if p in coeffs:
            continue
        q = p.inverse()
        if q == p:
            coeffs[p] = complex(rng.standard_normal())
        else:
            c = complex(complex_gaussian(rng, (1, 1))[0, 0])
            coeffs[p] = c
            coeffs[q] = c.conjugate()
    return coeffs


def pairwise_cycle_counts(k):
    """cycles(pi_i^-1 o pi_j) over S_k, rows and columns in enumerate_sym
    order; the Gram matrix for leg dimension n is n ** counts."""
    perms = enumerate_sym(k)
    inverses = [p.inverse() for p in perms]
    size = len(perms)
    counts = np.empty((size, size), dtype=int)
    for i in range(size):
        for j in range(i, size):
            counts[i, j] = counts[j, i] = inverses[i].compose(perms[j]).cycle_count()
    return counts
