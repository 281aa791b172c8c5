"""States, Schmidt ranks, map-based detection, and the sampled family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ZOO_MAPS, draw_state

from equimap.choi import apply_map, choi_of_map, extend_map
from equimap.detection import (
    DensityMatrix,
    bell_state,
    detect,
    detect_with_family,
    family_block_minima,
    family_verdicts,
    isotropic_state,
    parse_state_spec,
    product_state,
    random_pure,
    sampled_detector,
    schmidt_rank,
    sn_certificate,
)
from equimap.errors import ContractViolation, ParameterError, ShapeError
from equimap.linalg import DEFAULT_TOL, complex_gaussian, frobenius_norm, kron, rng_from_seed
from equimap.zoo import choi_map, conjugation_map, identity_map, transpose_map

_SEED = st.integers(0, 2**32 - 1)


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            DensityMatrix(dim_a=2, dim_b=2, mat=np.eye(4))  # trace 4
        with pytest.raises(ContractViolation):
            DensityMatrix(dim_a=2, dim_b=2, mat=np.diag([1.5, -0.5, 0.0, 0.0]))
        with pytest.raises(ShapeError):
            DensityMatrix(dim_a=2, dim_b=3, mat=np.eye(4) / 4)
        with pytest.raises(ParameterError):
            DensityMatrix(dim_a=0, dim_b=2, mat=np.zeros((0, 0)))

    def test_read_only(self):
        rho = DensityMatrix(dim_a=2, dim_b=2, mat=np.eye(4) / 4)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0

    def test_from_pure(self):
        psi = np.zeros(4)
        psi[0] = 1.0
        rho = DensityMatrix.from_pure(psi, 2, 2)
        assert rho.mat[0, 0] == 1.0
        with pytest.raises(ContractViolation):
            DensityMatrix.from_pure(2.0 * psi, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_from_pure_refuses_a_non_finite_norm(self, bad):
        # NaN fails every comparison and 1e200 overflows the norm; the norm
        # check, not the density gate, must refuse both.
        with pytest.raises(ContractViolation, match="vector norm"):
            DensityMatrix.from_pure([bad, 0.0, 0.0, 0.0], 2, 2)


class TestSchmidtRank:
    @pytest.mark.parametrize("m,n,r", [(2, 2, 1), (3, 3, 2), (3, 3, 3), (2, 4, 2)])
    def test_random_pure_has_exact_rank(self, m, n, r):
        psi = random_pure(m, n, r, seed=50 + r)
        assert schmidt_rank(psi, m, n) == r

    def test_bell_vector_is_full_rank(self):
        psi = np.zeros(9, dtype=complex)
        psi[[0, 4, 8]] = 1 / np.sqrt(3)
        assert schmidt_rank(psi, 3, 3) == 3

    def test_rejections(self):
        with pytest.raises(ShapeError):
            schmidt_rank(np.ones(5) / np.sqrt(5), 2, 2)
        with pytest.raises(ContractViolation):
            schmidt_rank(np.ones(4), 2, 2)
        with pytest.raises(ParameterError):
            random_pure(2, 2, 3, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_refuses_a_non_finite_norm(self, bad):
        # Refused before the SVD, which does not converge on NaN.
        with pytest.raises(ContractViolation, match="vector norm"):
            schmidt_rank([bad, 0.0, 0.0, 0.0], 2, 2)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # Accepted, tol = nan would count no singular value: rank 0.
        with pytest.raises(ParameterError, match="rank tolerance"):
            schmidt_rank(np.array([1.0, 0.0, 0.0, 0.0]), 2, 2, tol=tol)

    def test_random_pure_is_deterministic(self):
        assert np.array_equal(random_pure(3, 3, 2, 7), random_pure(3, 3, 2, 7))


class TestStates:
    def test_isotropic_trace_and_limits(self):
        rho = isotropic_state(3, 0.4)
        assert abs(np.trace(rho.mat) - 1.0) < 1e-12
        assert np.allclose(isotropic_state(3, 0.0).mat, np.eye(9) / 9)
        assert np.allclose(bell_state(3).mat, isotropic_state(3, 1.0).mat)
        with pytest.raises(ParameterError):
            isotropic_state(3, 1.5)

    def test_product(self):
        rho = product_state(np.diag([0.5, 0.5]), np.diag([1.0, 0.0, 0.0]))
        assert (rho.dim_a, rho.dim_b) == (2, 3)
        assert abs(np.trace(rho.mat) - 1.0) < 1e-12
        with pytest.raises(ContractViolation):
            product_state(np.eye(2), np.eye(2) / 2)  # left factor trace 2


class TestDetect:
    def test_transpose_threshold_on_isotropic(self):
        # Partial transposition flags the isotropic family above 1/(n+1).
        rep = transpose_map(3)
        assert detect(isotropic_state(3, 0.30), rep).detected
        assert not detect(isotropic_state(3, 0.20), rep).detected

    def test_verdict_fields(self):
        verdict = detect(bell_state(3), transpose_map(3))
        assert verdict.detected
        assert verdict.map_label == "transpose(n=3)"
        assert verdict.min_eigenvalue < -0.1
        assert verdict.witness is not None
        assert abs(np.linalg.norm(verdict.witness) - 1.0) < 1e-12

    def test_negative_verdict_has_no_witness(self):
        verdict = detect(isotropic_state(3, 0.1), transpose_map(3))
        assert not verdict.detected
        assert verdict.witness is None

    def test_separable_states_stay_clean(self):
        rep = transpose_map(3)
        rng = rng_from_seed(60)
        for _ in range(10):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            rho = product_state(np.diag(p), np.diag(q))
            assert not detect(rho, rep).detected

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            detect(bell_state(3), transpose_map(2))


class TestCertificate:
    def test_bell_state_certified_above_two(self):
        cert = sn_certificate(bell_state(3), choi_map(3), t=2)
        assert cert.certified
        assert cert.t_positive
        assert cert.claim == "schmidt number >= 3"
        assert cert.detect_min_eig < 0

    def test_refuses_without_t_positivity(self):
        # choi(3) is not 3-positive, so no conclusion may be drawn.
        cert = sn_certificate(bell_state(3), choi_map(3), t=3)
        assert not cert.certified
        assert not cert.t_positive
        assert cert.claim is None
        assert cert.detect_min_eig is None
        assert "not 3-positive" in cert.reason

    def test_low_rank_state_not_detected(self):
        psi = random_pure(3, 3, 2, seed=8)
        rho = DensityMatrix.from_pure(psi, 3, 3)
        cert = sn_certificate(rho, choi_map(3), t=2)
        assert not cert.certified
        assert cert.t_positive
        assert cert.claim is None
        assert cert.detect_min_eig is not None

    def test_t_range(self):
        with pytest.raises(ParameterError):
            sn_certificate(bell_state(3), choi_map(3), t=0)
        with pytest.raises(ParameterError):
            sn_certificate(bell_state(3), choi_map(3), t=4)


class TestFamily:
    def test_prefix_stability(self):
        rep = choi_map(3)
        small = sampled_detector(rep, 3, seed=5)
        large = sampled_detector(rep, 5, seed=5)
        for i in range(3):
            assert np.array_equal(small.unitaries[i], large.unitaries[i])

    def test_minima_vary_and_are_deterministic(self):
        # Constant minima need either a covariant base or a state that
        # soaks the rotation up into its first leg (isotropic, Bell).
        # A skewed Schmidt vector against (M . M*)^t avoids both.
        M = np.diag([1.0, 2.0, 3.0])
        base = choi_of_map(lambda A: (M @ A @ M.conj().T).T, 3, 3)
        psi = np.zeros(9, dtype=complex)
        for i, lam in enumerate([0.6, 0.3, 0.1]):
            psi[i * 3 + i] = np.sqrt(lam)
        rho = DensityMatrix.from_pure(psi, 3, 3)
        minima = family_block_minima(rho, sampled_detector(base, 6, seed=5))
        assert minima.shape == (6,)
        assert np.ptp(minima) > 1e-6
        again = family_block_minima(rho, sampled_detector(base, 6, seed=5))
        assert np.array_equal(minima, again)

    def test_rotated_bell_detected(self):
        verdict = detect_with_family(
            bell_state(3), sampled_detector(choi_map(3), 4, seed=5)
        )
        assert verdict.detected
        assert verdict.map_label == "family(choi(n=3),a=4)"

    @settings(max_examples=60)
    @given(rep=ZOO_MAPS, data=st.data())
    def test_ab_base_members_all_have_the_detect_minimum(self, rep, data):
        # (id x Phi)((1 x U) rho (1 x U)*) = (1 x V) (id x Phi)(rho) (1 x V)*
        # with V = conj(U)^{x a} x U^{x b} unitary: the spectrum is detect's.
        # test_minima_vary_and_are_deterministic is the non-covariant control.
        # family_verdicts answers such a base with detect's one verdict, so
        # each member is also checked against its own extend-then-apply
        # solve on the kron-rotated state.
        assert rep.equivariance.kind == "ab"
        rho = draw_state(data, rep.n)
        ext = extend_map(rep, rho.dim_a)
        out = apply_map(ext, rho.mat)
        want = detect(rho, rep).min_eigenvalue
        family = sampled_detector(rep, 4, data.draw(_SEED, label="family seed"))
        minima = family_block_minima(rho, family)
        assert np.abs(minima - want).max() <= 1e-12 * max(1.0, frobenius_norm(out))
        eye = np.eye(rho.dim_a)
        for U, got in zip(family.unitaries, family_verdicts(rho, family)):
            rot = kron(eye, U)
            member = apply_map(ext, rot @ rho.mat @ rot.conj().T)
            scale = max(1.0, frobenius_norm(member))
            oracle = np.linalg.eigvalsh(member)[0]
            assert abs(got.min_eigenvalue - oracle) <= 1e-12 * scale
            assert got.detected == (oracle < -DEFAULT_TOL * scale)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_rotation_matches_the_kron_form(self, data):
        # Oracle: the dense (1 x U) rho (1 x U)* handed to detect.  The base
        # M A M* is not covariant, so a wrong rotation moves the minimum.
        n = data.draw(st.integers(2, 4), label="n")
        rho = draw_state(data, n)
        M = complex_gaussian(rng_from_seed(data.draw(_SEED, label="M seed")), (n, n))
        base = choi_of_map(lambda A: (M @ A @ M.conj().T).T, n, n, label="skewed")
        family = sampled_detector(base, 3, data.draw(_SEED, label="family seed"))
        eye = np.eye(rho.dim_a)
        for U, got in zip(family.unitaries, family_verdicts(rho, family)):
            rot = kron(eye, U)
            mat = rot @ rho.mat @ rot.conj().T
            want = detect(DensityMatrix(rho.dim_a, n, mat), base)
            scale = max(1.0, frobenius_norm(apply_map(extend_map(base, rho.dim_a), mat)))
            assert abs(got.min_eigenvalue - want.min_eigenvalue) <= 1e-12 * scale
            assert got.detected == want.detected

    @pytest.mark.parametrize("base,calls", [
        (choi_map(3), 1),  # detect's one verdict
        (conjugation_map(np.diag([1.0, 2.0, 3.0])), 50),
        (choi_of_map(lambda A: np.trace(A) * np.eye(3) - A.T, 3, 3), 50),
    ], ids=["ab", "equivariant", "undeclared"])
    def test_outputs_applied(self, monkeypatch, base, calls):
        counted = []

        def counting(*args):
            counted.append(1)
            return apply_map(*args)

        monkeypatch.setattr("equimap.detection.apply_map", counting)
        verdicts = family_verdicts(bell_state(3), sampled_detector(base, 50, seed=2))
        assert len(verdicts) == 50 and len(counted) == calls

    def test_size_validation_and_shape_check(self):
        with pytest.raises(ParameterError):
            sampled_detector(choi_map(3), 0, seed=1)
        with pytest.raises(ShapeError):
            family_block_minima(bell_state(2), sampled_detector(choi_map(3), 2, seed=1))


class TestToleranceBeforeAmpliation:
    """detect, sn_certificate and family_verdicts refuse a bad tolerance
    before id_m x Phi is built, which at n = 8 takes seconds."""

    @pytest.fixture(autouse=True)
    def _no_ampliation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the ampliation was built")

        monkeypatch.setattr("equimap.detection.extend_map", refuse)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_refused(self, tol):
        rho, rep = bell_state(3), choi_map(3)
        with pytest.raises(ParameterError):
            detect(rho, rep, tol)
        with pytest.raises(ParameterError):
            sn_certificate(rho, rep, 2, tol)
        with pytest.raises(ParameterError):
            family_verdicts(rho, sampled_detector(rep, 2, seed=1), tol)


class TestParseStateSpec:
    def test_isotropic(self):
        rho = parse_state_spec("isotropic:n=3,p=0.5")
        assert np.allclose(rho.mat, isotropic_state(3, 0.5).mat)

    def test_bell(self):
        rho = parse_state_spec("bell:n=2")
        assert np.allclose(rho.mat, bell_state(2).mat)

    def test_pure(self):
        rho = parse_state_spec("pure:m=3,n=3,r=2,seed=7")
        expect = DensityMatrix.from_pure(random_pure(3, 3, 2, 7), 3, 3)
        assert np.allclose(rho.mat, expect.mat)

    @pytest.mark.parametrize(
        "bad",
        [
            "nosuchstate:n=3",
            "bell",
            "bell:n=2,junk=1",
            "isotropic:n=3",
            "file",
            "pure:m=3,n=3,r=2",
        ],
    )
    def test_rejections(self, bad):
        with pytest.raises(ParameterError):
            parse_state_spec(bad)


def test_identity_never_detects():
    # A completely positive map detects nothing at all.
    rep = identity_map(3)
    for p in (0.0, 0.5, 1.0):
        assert not detect(isotropic_state(3, p), rep).detected
