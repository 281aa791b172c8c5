"""Every failed verdict that reports a witness reports a unit vector
whose Rayleigh quotient on the output is the reported minimum eigenvalue.

psd_eig solves eigenvalues only, block by block from BLOCK_MIN_SIDE up;
the witness comes from a separate dense eigh of the same output, solved
once the verdict has failed.  The outputs here are rebuilt by
extend-then-apply (detect, family) and by the congruence (falsifier).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ZOO_MAPS, draw_state

from equimap.choi import apply_map, extend_map
from equimap.detection import DensityMatrix, detect, family_verdicts, sampled_detector
from equimap.linalg import BLOCK_MIN_SIDE, _components, as_matrix, frobenius_norm, kron
from equimap.positivity import choi_congruence, k_positivity_falsify
from equimap.zoo import choi_map, collins_map


def _check_witness(witness, min_eig, out):
    assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
    rayleigh = np.vdot(witness, out @ witness).real
    assert abs(rayleigh - min_eig) <= 1e-12 * max(1.0, frobenius_norm(out))


def _check_verdict(verdict, out):
    if verdict.detected:
        _check_witness(verdict.witness, verdict.min_eigenvalue, out)
    else:
        assert verdict.witness is None


class TestDetect:
    @settings(max_examples=40)
    @given(rep=ZOO_MAPS, data=st.data())
    def test_witness_of_every_failed_verdict(self, rep, data):
        rho = draw_state(data, rep.n)
        out = apply_map(extend_map(rep, rho.dim_a), rho.mat)
        _check_verdict(detect(rho, rep), out)

    def test_block_solved_output(self):
        # collins n = 4 on a Schmidt-rank-3 state of C^3 x C^4: the output
        # of side 48 splits into blocks, so its minimum comes from the
        # block solve and its witness from the dense one.
        psi = np.zeros(12)
        psi[[0, 5, 10]] = np.sqrt([0.5, 0.3, 0.2])
        rho = DensityMatrix.from_pure(psi, 3, 4)
        rep = collins_map(4, 0.0, 0.0)
        out = apply_map(extend_map(rep, 3), rho.mat)
        assert out.shape[0] >= BLOCK_MIN_SIDE and _components(as_matrix(out)).any()
        verdict = detect(rho, rep)
        assert verdict.detected
        _check_witness(verdict.witness, verdict.min_eigenvalue, out)


class TestFamily:
    @settings(max_examples=25)
    @given(rep=ZOO_MAPS, data=st.data())
    def test_witness_of_every_failed_verdict(self, rep, data):
        rho = draw_state(data, rep.n)
        seed = data.draw(st.integers(0, 2**32 - 1), label="family seed")
        family = sampled_detector(rep, 3, seed)
        ext = extend_map(rep, rho.dim_a)
        eye = np.eye(rho.dim_a)
        for U, verdict in zip(family.unitaries, family_verdicts(rho, family)):
            rot = kron(eye, U)
            _check_verdict(verdict, apply_map(ext, rot @ rho.mat @ rot.conj().T))


class TestFalsifier:
    @settings(max_examples=40)
    @given(rep=ZOO_MAPS, data=st.data())
    def test_witness_of_a_failed_trial(self, rep, data):
        k = data.draw(st.integers(1, rep.n), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        found = k_positivity_falsify(rep, k, trials=10, seed=seed)
        if found is not None:
            out = choi_congruence(rep, found.state.reshape(k, rep.n))
            _check_witness(found.witness, found.value, out)

    def test_output_of_side_at_least_the_block_crossover(self):
        rep = choi_map(7)
        found = k_positivity_falsify(rep, 7, trials=50, seed=1)
        assert found is not None
        out = choi_congruence(rep, found.state.reshape(7, 7))
        assert out.shape[0] >= BLOCK_MIN_SIDE
        _check_witness(found.witness, found.value, out)
