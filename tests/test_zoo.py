"""Named map constructors, their closed formulas, and the spec grammar."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import raw_choi, scan_oracle

from equimap import zoo
from equimap.choi import bell_matrix
from equimap.equivariant import check_ab_equivariance, decompose_equivariant
from equimap.errors import ParameterError
from equimap.linalg import haar_unitary, rng_from_seed, complex_gaussian
from equimap.perms import Permutation
from equimap.positivity import k_positivity
from equimap.zoo import (
    MAP_SPECS,
    ZooEntry,
    bhat_map,
    choi_map,
    collins3_map,
    collins_map,
    conjugation_map,
    identity_map,
    parse_map_spec,
    positivity_scan,
    tomiyama_map,
    transpose_map,
)


class TestElementaryMaps:
    def test_identity(self):
        rep = identity_map(3)
        assert np.array_equal(rep.choi, bell_matrix(3))
        assert rep.label == "identity(n=3)"
        assert (rep.equivariance.a, rep.equivariance.b) == (0, 1)

    def test_transpose(self):
        rep = transpose_map(2)
        assert np.array_equal(rep.choi, raw_choi(lambda A: A.T, 2, 2))
        assert (rep.equivariance.a, rep.equivariance.b) == (1, 0)

    def test_bhat_formula(self):
        rep = bhat_map(3, 2.0, -0.5)
        expect = raw_choi(
            lambda A: 2.0 * A - 0.5 * np.trace(A) * np.eye(3), 3, 3
        )
        assert np.allclose(rep.choi, expect, atol=1e-13)
        assert rep.label == "bhat(n=3,alpha=2,beta=-0.5)"

    def test_choi_is_bhat_special_case(self):
        assert np.array_equal(choi_map(3).choi, bhat_map(3, -1.0, 2.0).choi)
        assert choi_map(3).label == "choi(n=3)"

    def test_tomiyama_is_bhat_special_case(self):
        lam = 0.7
        assert np.array_equal(
            tomiyama_map(3, lam).choi, bhat_map(3, 1.0 - lam, lam / 3.0).choi
        )
        assert tomiyama_map(3, 1.2).label == "tomiyama(n=3,lambda=1.2)"

    def test_dimension_check(self):
        for ctor in (identity_map, transpose_map, choi_map):
            with pytest.raises(ParameterError):
                ctor(1)

    def test_complex_parameters_rejected(self):
        # A cast would raise TypeError for 1+0j, and turn np.complex64(1+2j)
        # into 1.0 with only a ComplexWarning.
        ctors = [
            lambda z: bhat_map(3, z, 0.0),
            lambda z: bhat_map(3, 0.0, z),
            lambda z: tomiyama_map(3, z),
            lambda z: collins_map(3, z, 0.0),
            lambda z: collins3_map(3, 1.0, 0.0, z),
        ]
        for ctor in ctors:
            for z in (1.0 + 1j, 1 + 0j, np.complex64(1 + 2j)):
                with pytest.raises(ParameterError, match="must be real"):
                    ctor(z)
        # The scan hands its grid values to the same constructors.
        with pytest.raises(ParameterError, match="must be real"):
            positivity_scan(3, np.array([1 + 2j], dtype=np.complex64), [0.0])


class TestCollinsFamily:
    def test_two_parameter_formula(self):
        n, alpha, beta = 3, 2.0, -1.0
        B = bell_matrix(n)
        I = np.eye(n)
        rep = collins_map(n, alpha, beta)
        expect = raw_choi(
            lambda A: np.kron(A.T, I)
            + np.kron(I, A)
            + np.trace(A) * (alpha * np.eye(n * n) + beta * B),
            n,
            n * n,
        )
        assert np.array_equal(rep.choi, expect)
        assert rep.label == "collins(n=3,alpha=2,beta=-1)"

    def test_three_parameter_formula(self):
        n, alpha, beta, gamma = 3, 1.5, 0.5, 0.7
        B = bell_matrix(n)
        I = np.eye(n)
        rep = collins3_map(n, alpha, beta, gamma)
        expect = raw_choi(
            lambda A: np.kron(A.T, I)
            + np.kron(I, A)
            + np.trace(A) * (alpha * np.eye(n * n) + beta * B)
            + gamma * (B @ np.kron(I, A) + np.kron(I, A) @ B),
            n,
            n * n,
        )
        assert np.array_equal(rep.choi, expect)
        assert rep.label == "collins3(n=3,alpha=1.5,beta=0.5,gamma=0.7)"

    def test_coefficients_recoverable(self):
        alpha, beta = 2.0, -1.0
        rep = collins_map(3, alpha, beta)
        coeffs, residual = decompose_equivariant(rep.choi, 3, 1, 1)
        assert residual < 1e-10
        by_string = {p.cycle_string(): c for p, c in coeffs.items()}
        assert abs(by_string["()"] - alpha) < 1e-9
        assert abs(by_string["(2 3)"] - beta) < 1e-9
        assert abs(by_string["(1 2)"] - 1.0) < 1e-9
        assert abs(by_string["(1 3)"] - 1.0) < 1e-9
        assert abs(by_string["(1 2 3)"]) < 1e-9
        assert abs(by_string["(1 3 2)"]) < 1e-9

    def test_linearity_in_parameters(self):
        base = collins_map(3, 0.0, 0.0).choi
        da = collins_map(3, 1.0, 0.0).choi - base
        db = collins_map(3, 0.0, 1.0).choi - base
        assert np.array_equal(
            collins_map(3, 2.0, 3.0).choi, base + 2.0 * da + 3.0 * db
        )

    def test_small_n_gate(self):
        with pytest.raises(ParameterError):
            collins_map(2, 1.0, 1.0)
        rep = collins_map(2, 1.0, 1.0, allow_small_n=True)
        assert rep.label.endswith(",unvalidated-n)")


# Every map-grammar constructor but conj declares an (a, b) signature.
AB_SPECS = sorted(name for name in MAP_SPECS if name != "conj")


class TestDeclaredEquivariance:
    """Each constructor's Choi matrix commutes with
    conj(U)^{x a+1} x U^{x b} for its declared (a, b)."""

    TRIALS, SEED, TOL = 4, 0xA11CE, 1e-9

    def _check(self, rep):
        assert rep.equivariance.kind == "ab"
        a, b = rep.equivariance.a, rep.equivariance.b
        assert rep.N == rep.n ** (a + b)
        report = check_ab_equivariance(
            rep.choi, rep.n, a, b, trials=self.TRIALS, seed=self.SEED, tol=self.TOL
        )
        assert report.passed, (rep.label, report.max_rel_commutator_norm)

    @pytest.mark.parametrize(
        "name,n",
        [
            (name, n)
            for name in AB_SPECS
            for n in (2, 3, 4, 5, 6)
            if n >= 3 or not name.startswith("collins")  # n = 2 below
        ],
    )
    def test_spec_constructors(self, name, n):
        keys, ctor, _ = MAP_SPECS[name]
        params = len(keys) - 1  # real parameters after n
        rng = rng_from_seed(1000 * n + len(name))
        for _ in range(3 if params else 1):
            values = rng.uniform(-2.0, 2.0, size=params).round(3)
            self._check(ctor(n, *(float(v) for v in values)))

    def test_collins_family_at_n_2(self):
        for alpha, beta, gamma in [(2.0, -1.0, 0.5), (0.0, 0.0, 0.0), (-1.25, 0.75, -2.0)]:
            self._check(collins_map(2, alpha, beta, allow_small_n=True))
            self._check(collins3_map(2, alpha, beta, gamma, allow_small_n=True))


class TestConjugation:
    def test_formula(self):
        rng = rng_from_seed(30)
        M = complex_gaussian(rng, (3, 3))
        rep = conjugation_map(M)
        expect = raw_choi(lambda A: M @ A @ M.conj().T, 3, 3)
        assert np.allclose(rep.choi, expect, atol=1e-13)

    def test_classification(self):
        assert conjugation_map(haar_unitary(3, 40)).equivariance.kind == "equivariant"
        rng = rng_from_seed(41)
        M = complex_gaussian(rng, (3, 3))  # generic, invertible, not unitary
        assert conjugation_map(M).equivariance.kind == "equivariant"
        singular = np.zeros((3, 3))
        singular[0, 0] = 1.0
        assert conjugation_map(singular).equivariance is None

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            conjugation_map(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_rejects_non_finite_entries_first(self, bad):
        # Unrefused, NaN failed inside the rank's SVD and inf warned on
        # its way through; warnings fail this suite.
        M = np.eye(3, dtype=complex)
        M[1, 2] = bad
        with pytest.raises(ParameterError, match="finite"):
            conjugation_map(M)

    def test_outer_product_matches_the_kron_form(self):
        # The Choi matrix is v v* with v = M.T.reshape(-1); the dense
        # kron(1, M) B kron(1, M)* is the oracle.  Summation order
        # differs, so the match is to roundoff of ||M||^2.
        rng = rng_from_seed(42)
        for t in range(40):
            n = 2 + t % 7
            M = complex_gaussian(rng, (n, n))
            K = np.kron(np.eye(n), M)
            expect = K @ bell_matrix(n) @ K.conj().T
            got = conjugation_map(M).choi
            assert np.abs(got - expect).max() <= 1e-14 * np.linalg.norm(M) ** 2


class TestParseMapSpec:
    def test_round_trips(self):
        entry = parse_map_spec("choi:n=3")
        assert isinstance(entry, ZooEntry)
        assert entry.name == "choi"
        assert entry.params == {"n": 3}
        assert np.array_equal(entry.rep.choi, choi_map(3).choi)

        entry = parse_map_spec("tomiyama:n=3,lambda=1.2")
        assert np.array_equal(entry.rep.choi, tomiyama_map(3, 1.2).choi)

        entry = parse_map_spec(" bhat:n=2, alpha=0.5, beta=0.25 ")
        assert np.array_equal(entry.rep.choi, bhat_map(2, 0.5, 0.25).choi)

        entry = parse_map_spec("collins3:n=3,alpha=1,beta=0,gamma=0.5")
        assert np.array_equal(entry.rep.choi, collins3_map(3, 1.0, 0.0, 0.5).choi)

    @pytest.mark.parametrize(
        "bad",
        [
            "nosuchmap:n=3",
            "choi",  # missing n
            "choi:m=3",
            "choi:n=3,extra=1",
            "choi:n=big",
            "tomiyama:n=3",  # missing lambda
            "bhat:n=2,alpha=,beta=1",
            "bhat:n=2,alpha",
        ],
    )
    def test_rejections(self, bad):
        with pytest.raises(ParameterError):
            parse_map_spec(bad)

    def test_integer_check(self):
        with pytest.raises(ParameterError):
            parse_map_spec("choi:n=3.5")


class TestScan:
    def test_grid_shape_and_flags(self):
        rows = positivity_scan(3, [0.0, 2.0], [-1.0, 0.0])
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {
                "alpha", "beta", "k1MinEig", "knMinEig",
                "positive", "cp", "positiveNotCp",
            }
            assert row["positiveNotCp"] == (row["positive"] and not row["cp"])
            assert row["knMinEig"] <= row["k1MinEig"] + 1e-12

    def test_gamma_column_present_when_given(self):
        rows = positivity_scan(3, [1.0], [0.0], gamma=0.25)
        assert rows[0]["gamma"] == 0.25

    def test_large_alpha_turns_completely_positive(self):
        # Adding enough of Tr(A) 1 dominates any fixed deficit.
        rows = positivity_scan(3, [25.0], [0.0])
        assert rows[0]["cp"]

    @settings(max_examples=40)
    @given(data=st.data())
    def test_rows_match_one_built_map_per_point(self, data):
        n = data.draw(st.integers(3, 4), label="n")
        values = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4)
        alphas = data.draw(values, label="alphas")
        betas = data.draw(values, label="betas")
        gamma = data.draw(st.none() | st.floats(-2.0, 2.0), label="gamma")
        rows = positivity_scan(n, alphas, betas, gamma=gamma)
        oracle = scan_oracle(n, alphas, betas, gamma)
        assert len(rows) == len(oracle) == len(alphas) * len(betas)
        for row, point in zip(rows, oracle):
            for (flag, eig, norm), (got_flag, got_eig) in zip(
                point, [(row["positive"], row["k1MinEig"]), (row["cp"], row["knMinEig"])]
            ):
                band = 1e-12 * max(1.0, norm)
                assert abs(got_eig - eig) <= band
                if abs(eig + 1e-9 * max(1.0, norm)) > band:
                    assert got_flag == flag

    def test_rows_keep_the_grid_order(self):
        rows = positivity_scan(3, [0.0, 1.0, 2.0], [-1.0, 0.5], gamma=0.25)
        assert [(r["alpha"], r["beta"], r["gamma"]) for r in rows] == [
            (a, b, 0.25) for a in (0.0, 1.0, 2.0) for b in (-1.0, 0.5)
        ]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308])
    def test_non_finite_coefficients_are_refused_before_any_verdict(self, bad, monkeypatch):
        # 1e308 is finite, but the sum of the coefficients' moduli is not.
        monkeypatch.setattr(zoo, "corner_verdicts", lambda *args: pytest.fail("a verdict ran"))
        with pytest.raises(ParameterError, match="not finite"):
            positivity_scan(3, [0.0, 1e308], [0.0, bad])


class TestCornerMemory:
    """A built map's verdicts scatter only the corners they read: at n = 10
    the full (1,1) Choi matrix is 1000^2 complex entries, 16 MB."""

    FULL = 1000**2 * 16

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_k_positivity_stays_below_the_full_choi(self):
        peak = self._peak(lambda: k_positivity(collins3_map(10, 0.3, -1.2, 0.7), 1))
        assert peak < self.FULL / 4

    def test_scan_stays_below_the_full_choi(self):
        # The k = n corner is the whole matrix; the scan's stack is real.
        peak = self._peak(lambda: positivity_scan(10, [0.5, 2.0], [-1.0, 0.0], gamma=0.2))
        assert peak < self.FULL
