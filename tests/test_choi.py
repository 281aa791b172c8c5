"""Choi matrices: construction from callables, application, blocks,
extension by an identity factor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_paired_coeffs

from equimap.choi import (
    Equivariance,
    MapRep,
    apply_map,
    bell_matrix,
    bell_vector,
    block_matrix,
    choi_of_map,
    extend_map,
)
from equimap.equivariant import EquivariantSpec, build_equivariant, choi_basis_element
from equimap.errors import ContractViolation, ParameterError, ShapeError
from equimap.linalg import complex_gaussian, hermitian_eig, rng_from_seed
from equimap.perms import enumerate_sym


class TestBell:
    def test_vector_entries(self):
        v = bell_vector(3)
        assert v.shape == (9,)
        expect = np.zeros(9)
        expect[[0, 4, 8]] = 1.0
        assert np.array_equal(v, expect)

    def test_matrix_is_scaled_projector(self):
        for n in (2, 3):
            B = bell_matrix(n)
            assert np.trace(B) == n
            assert np.array_equal(B @ B, n * B)

    def test_spectrum(self):
        vals, _ = hermitian_eig(bell_matrix(3))
        assert np.allclose(vals, [0.0] * 8 + [3.0])

    def test_rejects_dim_one(self):
        with pytest.raises(ParameterError):
            bell_vector(1)


class TestMapRep:
    def test_stores_read_only_copy(self):
        C = np.eye(4)
        rep = MapRep(n=2, N=2, choi=C)
        C[0, 0] = 5.0
        assert rep.choi[0, 0] == 1.0
        with pytest.raises(ValueError):
            rep.choi[0, 0] = 7.0

    def test_needs_exactly_one_of_choi_and_spec(self):
        spec = EquivariantSpec(n=2, a=0, b=1, coeffs={})
        with pytest.raises(ParameterError, match="exactly one"):
            MapRep(n=2, N=2)
        with pytest.raises(ParameterError, match="exactly one"):
            MapRep(n=2, N=2, choi=np.eye(4), spec=spec)

    def test_is_immutable(self):
        rep = MapRep(n=2, N=2, choi=np.eye(4))
        with pytest.raises(AttributeError):
            rep.label = "other"

    def test_built_map_scatters_its_choi_once_and_keeps_it_read_only(self):
        rep = build_equivariant(EquivariantSpec(n=2, a=0, b=1, coeffs={}))
        assert rep.choi is rep.choi
        assert rep.choi.dtype == complex and not rep.choi.any()
        with pytest.raises(ValueError):
            rep.choi[0, 0] = 1.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            MapRep(n=2, N=3, choi=np.eye(4))

    def test_rejects_non_hermitian(self):
        C = np.eye(4, dtype=complex)
        C[0, 1] = 1.0
        with pytest.raises(ContractViolation):
            MapRep(n=2, N=2, choi=C)

    def test_rejects_nan_entries(self):
        with pytest.raises(ContractViolation):
            MapRep(n=1, N=2, choi=[[np.nan, 0.0], [0.0, 1.0]])

    def test_tolerates_roundoff_asymmetry(self):
        C = np.eye(4, dtype=complex)
        C[0, 1] = 1e-14
        rep = MapRep(n=2, N=2, choi=C)
        assert np.abs(rep.choi - rep.choi.conj().T).max() < 1e-12

    def test_equivariance_validation(self):
        eq = Equivariance("ab", 1, 1)
        assert (eq.kind, eq.a, eq.b) == ("ab", 1, 1)
        assert Equivariance("equivariant").kind == "equivariant"
        for kind in ("unitary", "not-equivariant", "nope"):
            with pytest.raises(ParameterError):
                Equivariance(kind)
        with pytest.raises(ParameterError):
            Equivariance("ab")
        with pytest.raises(ParameterError):
            Equivariance("equivariant", 0, 1)

    def test_ab_declaration_must_match_the_output_legs(self):
        # A family's witness is rotated on the output's a + b legs of
        # dimension n, so N must be n^(a+b).
        MapRep(n=2, N=4, choi=np.eye(8), equivariance=Equivariance("ab", 1, 1))
        with pytest.raises(ShapeError, match="N = n"):
            MapRep(n=2, N=2, choi=np.eye(4), equivariance=Equivariance("ab", 1, 1))


class TestChoiOfMap:
    def test_identity_map_gives_bell(self):
        rep = choi_of_map(lambda A: A, 2, 2)
        assert np.array_equal(rep.choi, bell_matrix(2))

    def test_trace_map_gives_identity(self):
        rep = choi_of_map(lambda A: np.trace(A) * np.eye(2), 2, 2)
        assert np.array_equal(rep.choi, np.eye(4))

    def test_blocks_are_images_of_matrix_units(self):
        rng = rng_from_seed(3)
        Z = complex_gaussian(rng, (9, 9))
        target = MapRep(n=3, N=3, choi=Z + Z.conj().T)
        rebuilt = choi_of_map(lambda A: apply_map(target, A), 3, 3)
        assert np.allclose(rebuilt.choi, target.choi, atol=1e-13)
        N = 3
        for i in range(3):
            for j in range(3):
                e = np.zeros((3, 3))
                e[i, j] = 1.0
                block = rebuilt.choi[i * N : (i + 1) * N, j * N : (j + 1) * N]
                assert np.allclose(block, apply_map(target, e), atol=1e-13)

    def test_rejects_nonlinear_callable(self):
        with pytest.raises(ContractViolation):
            choi_of_map(lambda A: A @ A + A, 2, 2)

    def test_rejects_wrong_output_shape(self):
        with pytest.raises(ShapeError):
            choi_of_map(lambda A: np.eye(3), 2, 2)


class TestApply:
    def test_matches_direct_formula(self):
        rng = rng_from_seed(5)
        Z = complex_gaussian(rng, (6, 6))
        rep = MapRep(n=2, N=3, choi=Z + Z.conj().T)
        X = complex_gaussian(rng, (2, 2))
        # Phi(X) = sum_ij X_ij * block(i, j)
        expect = np.zeros((3, 3), dtype=complex)
        for i in range(2):
            for j in range(2):
                expect += X[i, j] * rep.choi[i * 3 : (i + 1) * 3, j * 3 : (j + 1) * 3]
        assert np.allclose(apply_map(rep, X), expect, atol=1e-13)

    def test_shape_check(self):
        rep = MapRep(n=2, N=2, choi=np.eye(4))
        with pytest.raises(ShapeError):
            apply_map(rep, np.eye(3))


class TestBlocks:
    def test_slicing(self):
        rng = rng_from_seed(6)
        Z = complex_gaussian(rng, (9, 9))
        rep = MapRep(n=3, N=3, choi=Z + Z.conj().T)
        for k in (1, 2, 3):
            blk = block_matrix(rep, k)
            assert blk.shape == (3 * k, 3 * k)
            assert np.array_equal(blk, rep.choi[: 3 * k, : 3 * k])

    @settings(max_examples=60)
    @given(data=st.data())
    def test_built_map_corners_are_the_choi_corners(self, data):
        # A built map scatters its corners from its coefficients; they,
        # and the dense Choi read afterwards, are bit for bit the sum of
        # the dense basis elements in enumerate_sym order.
        a, b = data.draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]), label="a,b")
        n = data.draw(st.integers(2, 4), label="n")
        coeffs = random_paired_coeffs(a + b + 1, rng_from_seed(data.draw(st.integers(0, 2**32 - 1))))
        rep = build_equivariant(EquivariantSpec(n=n, a=a, b=b, coeffs=coeffs))
        corners = [block_matrix(rep, k) for k in range(1, n + 1)]
        dense = np.zeros((n ** (a + b + 1),) * 2, dtype=complex)
        for p in enumerate_sym(a + b + 1):
            dense += coeffs[p] * choi_basis_element(n, a, b, p)
        assert np.array_equal(rep.choi, dense)
        for k, corner in enumerate(corners, start=1):
            d = k * rep.N
            assert corner.dtype == rep.choi.dtype
            assert np.array_equal(corner, rep.choi[:d, :d])

    def test_bounds(self):
        rep = MapRep(n=2, N=2, choi=np.eye(4))
        with pytest.raises(ParameterError):
            block_matrix(rep, 0)
        with pytest.raises(ParameterError):
            block_matrix(rep, 3)


class TestExtend:
    def test_acts_as_identity_tensor_map(self):
        rng = rng_from_seed(7)
        Z = complex_gaussian(rng, (4, 4))
        rep = MapRep(n=2, N=2, choi=Z + Z.conj().T, label="t")
        ext = extend_map(rep, 3)
        assert (ext.n, ext.N) == (6, 6)
        A = complex_gaussian(rng, (3, 3))
        B = complex_gaussian(rng, (2, 2))
        out = apply_map(ext, np.kron(A, B))
        assert np.allclose(out, np.kron(A, apply_map(rep, B)), atol=1e-12)

    def test_trivial_factor_returns_same_object(self):
        rep = MapRep(n=2, N=2, choi=np.eye(4))
        assert extend_map(rep, 1) is rep

    def test_rejects_nonpositive_factor(self):
        rep = MapRep(n=2, N=2, choi=np.eye(4))
        with pytest.raises(ParameterError):
            extend_map(rep, 0)
