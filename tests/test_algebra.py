"""Corner verdicts in the coloured walled Brauer algebra against the dense
corner: psd_eig(block_matrix(rep, k)) and its Frobenius norm are the
oracle, and the uncoloured product table is checked against products of
the dense basis elements."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equimap import algebra, choi, positivity
from equimap.algebra import corner_scales, corner_verdicts, coloured_count, routes
from equimap.choi import block_matrix
from equimap.equivariant import EquivariantSpec, basis_elements, build_equivariant
from equimap.errors import ParameterError
from equimap.linalg import DEFAULT_TOL, check_hermitian, frobenius_norm, psd_eig
from equimap.perms import MAX_REP_DIM, enumerate_sym
from equimap.positivity import k_positivity, positivity_profile
from equimap.zoo import collins3_map, positivity_scan

from helpers import random_paired_coeffs

# Every signature the algebra answers, a+b+1 = 1..4.
SIGNATURES = [(a, m - 1 - a) for m in range(1, 5) for a in range(m)]


def _largest_n(m):
    return max(n for n in range(2, MAX_REP_DIM + 1) if n**m <= MAX_REP_DIM)


def test_coloured_counts_and_routes():
    assert [coloured_count(m) for m in range(1, 6)] == [1, 3, 16, 120, 1152]
    for m in range(1, 5):
        assert len(algebra._table(0, m - 1).owner) == coloured_count(m)
    assert all(routes(a, b) for a, b in SIGNATURES)
    assert not routes(2, 2) and not routes(0, 4)


def _matches_the_dense_corner(spec, k):
    n, a, b = spec.n, spec.a, spec.b
    # The pairing rule of an accepted spec makes its dense Choi Hermitian.
    check_hermitian(spec.corner(n ** (a + b + 1)), "Choi matrix")
    corner = block_matrix(build_equivariant(spec), k)
    flag, eig = psd_eig(corner)
    norm = frobenius_norm(corner)
    (scale,), (rel,), (low,) = corner_scales(n, a, b, spec.coeffs, k)
    ((got_flag, got_eig),) = corner_verdicts(n, a, b, spec.coeffs, k)
    band = 1e-12 * max(1.0, norm)
    assert abs(got_eig - eig) <= band and got_eig == scale * low
    assert abs(scale * rel - norm) <= band
    if abs(eig + DEFAULT_TOL * max(1.0, norm)) > band:
        assert got_flag == flag


@settings(max_examples=300)
@given(data=st.data())
def test_corner_verdicts_match_the_dense_corner(data):
    a, b = data.draw(st.sampled_from(SIGNATURES), label="signature")
    m = a + b + 1
    n = data.draw(st.integers(2, _largest_n(m)), label="n")
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    _matches_the_dense_corner(EquivariantSpec(n, a, b, random_paired_coeffs(m, rng)), k)


@pytest.mark.parametrize("a, b", [ab for ab in SIGNATURES if sum(ab) >= 1])
def test_every_n_matches_the_dense_corner(a, b):
    # The smallest and largest corners at every n within the budget.
    m = a + b + 1
    rng = np.random.default_rng(m)
    for n in range(2, _largest_n(m) + 1):
        for k in sorted({1, 2, n - 1, n}):
            _matches_the_dense_corner(EquivariantSpec(n, a, b, random_paired_coeffs(m, rng)), k)


@pytest.mark.parametrize("a, b", [ab for ab in SIGNATURES if sum(ab) >= 1])
@pytest.mark.parametrize("n", [2, 3])
def test_uncoloured_products_are_the_dense_products(a, b, n):
    # At k = n a diagram with all strands k is a basis element, and
    # E_p E_q = n^loops E_r.
    m = a + b + 1
    if n**m > MAX_REP_DIM:
        pytest.skip("over the budget")
    t = algebra._table(a, b)
    dense = basis_elements(n, a, b)
    plain = ~t.colour.any(axis=1)
    i, j, l, kl, rl = t.product
    seen = 0
    for i, j, l, kl, rl in zip(i, j, l, kl, rl):
        if plain[i] and plain[j]:
            assert plain[l] and rl == 0
            p, q, r = t.owner[i], t.owner[j], t.owner[l]
            assert np.array_equal(dense[p] @ dense[q], n**kl * dense[r])
            seen += 1
    assert seen == len(enumerate_sym(m)) ** 2


def test_the_zero_map_and_the_refusals():
    spec = EquivariantSpec(n=3, a=1, b=1, coeffs={})
    assert corner_verdicts(3, 1, 1, spec.coeffs, 2) == [(True, 0.0)]
    for k in (0, 4):
        with pytest.raises(ParameterError, match=f"k = {k} outside 1..3"):
            corner_verdicts(3, 1, 1, spec.coeffs, k)
    with pytest.raises(ParameterError, match="tolerance"):
        corner_verdicts(3, 1, 1, spec.coeffs, 1, tol=float("nan"))


def test_a_norm_that_overflows_keeps_a_finite_bound():
    # ||C||_F overflows, as does psd_eig's plain norm; the bound is read
    # rescaled, so the hugely negative eigenvalue still fails.
    spec = EquivariantSpec(n=3, a=0, b=1, coeffs={p: c for p, c in zip(
        enumerate_sym(2), (1e300, -1e300))})
    rep = build_equivariant(spec)
    got = corner_verdicts(3, 0, 1, spec.coeffs, 3)[0]
    want = psd_eig(block_matrix(rep, 3))
    assert got[0] is want[0] is False
    assert got[1] == pytest.approx(want[1], rel=1e-12)


class TestRoute:
    """A built map of a+b+1 <= 4 is answered without its corner."""

    @pytest.fixture(autouse=True)
    def no_corner(self, monkeypatch):
        def refuse(*args):
            pytest.fail("a dense corner was built")

        monkeypatch.setattr(EquivariantSpec, "corner", refuse)
        monkeypatch.setattr(choi, "block_matrix", refuse)
        monkeypatch.setattr(positivity, "block_matrix", refuse)

    @pytest.mark.parametrize("a, b", SIGNATURES)
    def test_k_positivity_and_profile(self, a, b):
        m = a + b + 1
        n = min(3, _largest_n(m))
        spec = EquivariantSpec(n=n, a=a, b=b, coeffs=random_paired_coeffs(m, np.random.default_rng(m)))
        rep = build_equivariant(spec)
        assert k_positivity(rep, 1)[1] == corner_verdicts(n, a, b, spec.coeffs, 1)[0][1]
        profile = positivity_profile(rep)
        assert len(profile.per_k) == min(n, rep.N)

    def test_scan_and_a_zoo_map(self):
        assert k_positivity(collins3_map(8, 0.3, -1.2, 0.7), 4)[0] in (True, False)
        assert len(positivity_scan(4, [0.0, 1.0], [-1.0, 0.0, 1.0], gamma=0.2)) == 6

    def test_dense_maps_and_five_legs_keep_the_corner(self):
        dense = choi.MapRep(3, 3, choi=np.eye(9), equivariance=choi.Equivariance("ab", 0, 1))
        five = build_equivariant(EquivariantSpec(n=2, a=2, b=2, coeffs={}))
        for rep in (dense, five):
            with pytest.raises(pytest.fail.Exception, match="dense corner"):
                k_positivity(rep, 1)
