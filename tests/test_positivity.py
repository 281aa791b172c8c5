"""Block k-positivity and its random-state cross-check.

The compression criterion is only sound under an equivariance
declaration, so the gate itself is part of the contract under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ZOO_MAPS, random_paired_coeffs

from equimap.choi import MapRep, apply_map, block_matrix, extend_map
from equimap.equivariant import EquivariantSpec, build_equivariant
from equimap.errors import ContractViolation, ParameterError
from equimap.linalg import complex_gaussian, hermitian_eig, rng_from_seed
from equimap.positivity import (
    DEFAULT_TOL,
    choi_congruence,
    k_positivity,
    k_positivity_falsify,
    positivity_profile,
)
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


class TestGate:
    def test_undeclared_map_is_refused(self):
        rep = MapRep(n=2, N=2, choi=np.eye(4))
        with pytest.raises(ContractViolation):
            k_positivity(rep, 1)
        with pytest.raises(ContractViolation):
            positivity_profile(rep)

    def test_verified_failure_is_refused_too(self):
        # A map known not to be equivariant carries no declaration: the
        # kind that once recorded a verified failure is refused.
        from equimap.choi import Equivariance

        with pytest.raises(ParameterError):
            Equivariance("not-equivariant")

    def test_falsifier_needs_no_declaration(self):
        rep = MapRep(n=2, N=2, choi=np.eye(4))
        assert k_positivity_falsify(rep, 2, trials=20, seed=0) is None


class TestBlockCriterion:
    def test_reference_spectra(self):
        rep = choi_map(3)
        ok2, eig2 = k_positivity(rep, 2)
        ok3, eig3 = k_positivity(rep, 3)
        assert ok2 and abs(eig2) < 1e-12
        assert not ok3 and abs(eig3 - (-1.0)) < 1e-12

    def test_k_bounds(self):
        with pytest.raises(ParameterError):
            k_positivity(choi_map(3), 0)
        with pytest.raises(ParameterError):
            k_positivity(choi_map(3), 4)

    def test_boundary_family(self):
        n, k = 3, 2
        lam = 1.0 + 1.0 / (n * k - 1)
        ok, _ = k_positivity(tomiyama_map(n, lam), k)
        assert ok
        ok, eig = k_positivity(tomiyama_map(n, lam + 1e-3), k)
        assert not ok and eig < -1e-4
        ok, _ = k_positivity(tomiyama_map(n, -1e-3), 1)
        assert not ok

    def test_min_eig_is_monotone_in_k(self):
        # Blocks nest, so the minimum eigenvalue can only drop.
        for seed in range(5):
            rng = rng_from_seed(200 + seed)
            rep = build_equivariant(
                EquivariantSpec(n=3, a=1, b=1, coeffs=random_paired_coeffs(3, rng))
            )
            eigs = [k_positivity(rep, k)[1] for k in (1, 2, 3)]
            assert eigs[0] >= eigs[1] >= eigs[2]


class TestProfile:
    def test_identity_is_completely_positive(self):
        prof = positivity_profile(identity_map(3))
        assert prof.completely_positive
        assert prof.max_k == 3
        assert [pt.passed for pt in prof.per_k] == [True, True, True]

    def test_transpose_is_positive_only(self):
        prof = positivity_profile(transpose_map(3))
        assert not prof.completely_positive
        assert prof.max_k == 1
        assert [pt.passed for pt in prof.per_k] == [True, False, False]

    def test_choi_map_stops_below_n(self):
        prof = positivity_profile(choi_map(3))
        assert prof.max_k == 2
        assert not prof.completely_positive
        assert prof.label == "choi(n=3)"

    def test_max_k_zero_when_not_even_positive(self):
        prof = positivity_profile(tomiyama_map(3, -0.5))
        assert prof.max_k == 0


class TestFalsifier:
    def test_finds_witness_and_reports_consistent_value(self):
        rep = transpose_map(3)
        witness = k_positivity_falsify(rep, 2, trials=100, seed=3)
        assert witness is not None
        ext = extend_map(rep, 2)
        rho = np.outer(witness.state, witness.state.conj())
        vals, _ = hermitian_eig(apply_map(ext, rho))
        assert abs(vals[0] - witness.value) < 1e-12
        assert witness.value < -1e-6

    def test_deterministic_in_seed(self):
        rep = choi_map(3)
        w1 = k_positivity_falsify(rep, 3, trials=50, seed=11)
        w2 = k_positivity_falsify(rep, 3, trials=50, seed=11)
        assert w1.trial == w2.trial
        assert np.array_equal(w1.state, w2.state)
        assert w1.value == w2.value

    def test_silent_on_k_positive_maps(self):
        assert k_positivity_falsify(choi_map(3), 2, trials=200, seed=5) is None
        assert k_positivity_falsify(identity_map(2), 2, trials=200, seed=5) is None

    def test_trial_and_parameter_validation(self):
        rep = choi_map(3)
        with pytest.raises(ParameterError):
            k_positivity_falsify(rep, 0, trials=10)
        with pytest.raises(ParameterError):
            k_positivity_falsify(rep, 2, trials=0)

    def test_k_above_n_is_refused_before_allocating(self):
        # k = n is already complete positivity; k = 200 would need a
        # 1.89 TiB extended Choi matrix.
        with pytest.raises(ParameterError, match="outside 1..3"):
            k_positivity_falsify(choi_map(3), 200, trials=1)


class TestFalsifierProperties:
    @settings(max_examples=60)
    @given(rep=ZOO_MAPS, data=st.data())
    def test_congruence_equals_extend_then_apply(self, rep, data):
        k = data.draw(st.integers(1, rep.n), label="k")
        rng = rng_from_seed(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        psi = complex_gaussian(rng, k * rep.n)
        psi /= np.linalg.norm(psi)
        want = apply_map(extend_map(rep, k), np.outer(psi, psi.conj()))
        got = choi_congruence(rep, psi.reshape(k, rep.n))
        assert np.abs(got - want).max() < 1e-12

    # For a (0,1) map A -> alpha A + beta Tr(A) 1 and a state psi of
    # Schmidt rank k, the output alpha psi psi* + beta Tr_2(psi psi*) x 1
    # is PSD exactly when the order-k block is, so a random state is a
    # witness as soon as the block minimum clears the falsifier's
    # tolerance (about 1e-8 here, where minima down to -1e-8 were seen
    # to go unreported).  The margin 1e-6 keeps a factor 100 above that.
    @settings(max_examples=120)
    @given(n=st.integers(2, 5), data=st.data())
    def test_witness_exactly_when_block_fails(self, n, data):
        k = data.draw(st.integers(1, n), label="k")
        bound = 1 + 1 / (n * k - 1)  # tomiyama is k-positive up to here
        rep = data.draw(st.one_of(
            st.builds(tomiyama_map, st.just(n), st.floats(-1.0, 3.0)),
            st.builds(tomiyama_map, st.just(n), st.floats(bound - 1e-2, bound + 1e-2)),
            st.builds(bhat_map, st.just(n), _REAL, _REAL),
        ), label="map")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        passed, block_min = k_positivity(rep, k)
        witness = k_positivity_falsify(rep, k, trials=20, seed=seed)
        if passed:
            assert witness is None
        if block_min < -1e-6:
            assert witness is not None and witness.value < 0

    # The truncated Bell state psi = sum_{i<k} e_i x e_i / sqrt(k), whose
    # k x n reshaping is [I_k 0] / sqrt(k), has output block_matrix / k:
    # a failing block is itself a witness by definition.  A block that
    # passes with room to spare leaves the random search empty-handed.
    @settings(max_examples=60)
    @given(n=st.integers(3, 5), three=st.booleans(), data=st.data())
    def test_collins_block_criterion_against_the_definition(self, n, three, data):
        k = data.draw(st.integers(1, n), label="k")
        alpha = data.draw(st.floats(-3.0, 3.0), label="alpha")
        beta = data.draw(st.floats(-3.0, 3.0), label="beta")
        if three:
            gamma = data.draw(st.floats(-1.0, 1.0), label="gamma")
            rep = collins3_map(n, alpha, beta, gamma)
        else:
            rep = collins_map(n, alpha, beta)
        Psi = np.eye(k, n) / np.sqrt(k)
        assert np.abs(choi_congruence(rep, Psi) - block_matrix(rep, k) / k).max() < 1e-12
        passed, block_min = k_positivity(rep, k)
        if passed and block_min >= 1e-6:
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            assert k_positivity_falsify(rep, k, trials=20, seed=seed) is None


def test_default_tolerance_value():
    assert DEFAULT_TOL == 1e-9
