"""The one size budget: every constructor that allocates a dense operator
whose side a request sets refuses an over-budget side with CapacityError
before it allocates anything.  Beside it, one count budget bounds the
work items a request asks for."""

import math
import time

import numpy as np
import pytest

import equimap.cli as cli
import equimap.detection as detection
import equimap.positivity as positivity
import equimap.zoo as zoo
from equimap.choi import choi_of_map
from equimap.detection import (
    DensityMatrix, isotropic_state, product_state, random_pure, sampled_detector,
)
from equimap.diagram import matrix_from_wiring, wiring
from equimap.equivariant import check_signature
from equimap.errors import CapacityError
from equimap.perms import (
    MAX_REP_DIM,
    MAX_SYM_DEGREE,
    Permutation,
    check_budget,
    check_work,
    enumerate_sym,
    sigma_rep,
)
from equimap.positivity import k_positivity_falsify
from equimap.zoo import choi_map, conjugation_map


def _never_called(X):
    pytest.fail("the callable was probed before the budget check")


# Each constructor at the smallest side above the budget its arguments
# allow; the side is in the id.
SMALLEST_OVER_BUDGET = {
    "isotropic_state-1089": lambda: isotropic_state(33, 0.5),
    "DensityMatrix-1025": lambda: DensityMatrix(1, 1025, np.eye(1025) / 1025),
    "conjugation_map-1089": lambda: conjugation_map(np.eye(33)),
    "choi_of_map-1056": lambda: choi_of_map(_never_called, 33, 32),
    "matrix_from_wiring-2048": lambda: matrix_from_wiring(
        wiring(Permutation.identity(11), 5, 5), 2
    ),
    "sigma_rep-2048": lambda: sigma_rep(Permutation.identity(11), 2),
    "check_signature-1331": lambda: check_signature(11, 1, 1),
    "enumerate_sym-5040": lambda: enumerate_sym(7),
}

# State constructors that DensityMatrix would refuse anyway, but only
# after their own work: each must refuse before the named step runs.
BEFORE_THEIR_OWN_WORK = {
    "product_state-1056-eigensolves": (
        detection, "_check_density",
        lambda: product_state(np.eye(33) / 33, np.eye(32) / 32),
    ),
    "random_pure-1025-haar": (detection, "haar_from_rng", lambda: random_pure(1025, 1, 1, 0)),
    "from_pure-1025-outer": (
        np, "outer", lambda: DensityMatrix.from_pure(np.eye(1025)[0], 1, 1025),
    ),
}

# Sides whose allocation would be far beyond any memory.
FAR_BEYOND_MEMORY = {
    "random_pure-1e10": lambda: random_pure(10**5, 10**5, 1, 0),
    "isotropic_state-1e8": lambda: isotropic_state(10**4, 0.5),
    "matrix_from_wiring-2^21": lambda: matrix_from_wiring(
        wiring(Permutation.identity(21), 10, 10), 2
    ),
}


class TestBudget:
    def test_boundary(self):
        assert check_budget(MAX_REP_DIM, "an operator") == MAX_REP_DIM
        with pytest.raises(CapacityError, match=f"MAX_REP_DIM = {MAX_REP_DIM}"):
            check_budget(MAX_REP_DIM + 1, "an operator")

    def test_degree_cap_derives_from_the_budget(self):
        assert MAX_SYM_DEGREE == 6
        assert math.factorial(MAX_SYM_DEGREE) <= MAX_REP_DIM < math.factorial(MAX_SYM_DEGREE + 1)

    @pytest.mark.parametrize("build", SMALLEST_OVER_BUDGET.values(), ids=SMALLEST_OVER_BUDGET)
    def test_smallest_over_budget_side_is_refused(self, build):
        with pytest.raises(CapacityError):
            build()

    @pytest.mark.parametrize("build", FAR_BEYOND_MEMORY.values(), ids=FAR_BEYOND_MEMORY)
    def test_far_beyond_memory_is_a_capacity_error(self, build):
        with pytest.raises(CapacityError):
            build()

    def test_sides_at_the_budget_are_built(self):
        assert isotropic_state(32, 0.5).mat.shape == (1024, 1024)
        assert matrix_from_wiring(wiring(Permutation.identity(10), 5, 4), 2).shape == (
            1024,
            1024,
        )
        assert conjugation_map(np.eye(32)).choi.shape == (1024, 1024)

    @pytest.mark.parametrize(
        "owner,step,build", BEFORE_THEIR_OWN_WORK.values(), ids=BEFORE_THEIR_OWN_WORK
    )
    def test_states_refuse_before_their_own_work(self, monkeypatch, owner, step, build):
        def fail(*args):
            pytest.fail(f"{step} ran for an over-budget state")

        monkeypatch.setattr(owner, step, fail)
        with pytest.raises(CapacityError):
            build()


class TestWorkBudget:
    """The one count budget, MAX_REP_DIM^2 work items, refuses scan grids,
    falsifier trials and detector families before any work starts."""

    CAP = MAX_REP_DIM**2

    def test_boundary(self):
        assert check_work(self.CAP, "items") == self.CAP
        with pytest.raises(CapacityError, match=r"MAX_REP_DIM\^2 = 1048576"):
            check_work(self.CAP + 1, "items")

    def test_scan_grid_is_refused_before_any_verdict(self, monkeypatch):
        monkeypatch.setattr(zoo, "psd_eig", lambda *args: pytest.fail("a verdict ran"))
        with pytest.raises(CapacityError, match="scan grid points"):
            zoo.positivity_scan(3, np.zeros(1025), np.zeros(1024))

    def test_falsifier_trials_are_refused_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(positivity, "rng_from_seed", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(CapacityError, match="falsifier trials"):
            k_positivity_falsify(choi_map(3), 2, trials=self.CAP + 1)

    def test_family_is_refused_before_any_unitary(self, monkeypatch):
        # The family holds a unitaries of n^2 entries each.
        assert len(sampled_detector(choi_map(4), 3, seed=0).unitaries) == 3
        monkeypatch.setattr(detection, "haar_from_rng", lambda *args: pytest.fail("a draw ran"))
        with pytest.raises(CapacityError, match="family unitaries"):
            sampled_detector(choi_map(4), self.CAP // 16 + 1, seed=0)

    def test_cli_refuses_a_huge_scan_grid_before_the_ranges_exist(self, capsys):
        # 10^10 grid points: the scan ran for minutes before the budget.
        started = time.perf_counter()
        code = cli.main(["scan", "--map", "collins", "--n", "3",
                         "--alpha", "0:1:100000", "--beta", "0:1:100000"])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < 1.0
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("usage error:")
        assert "MAX_REP_DIM^2" in captured.err
