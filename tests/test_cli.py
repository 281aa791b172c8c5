"""Command line behavior: report schema, determinism, exit codes."""

import itertools
import json
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import equimap
import equimap.cli as cli
from equimap import zoo
from equimap.choi import bell_matrix
from equimap.detection import bell_state, detect_with_family, sampled_detector
from equimap.serialize import matrix_to_json, save_json, spec_to_json
from equimap.equivariant import COMMUTATOR_TOL, EquivariantSpec, check_ab_equivariance
from equimap.perms import Permutation
from equimap.zoo import choi_map


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestReports:
    def test_schema(self, capsys):
        report = run_json(capsys, "kpos", "--map", "choi:n=3", "--k", "2")
        assert set(report) == {
            "command", "params", "seed", "results", "elapsedMs", "version",
        }
        assert report["command"] == "kpos"
        assert report["params"]["map_spec"] == "choi:n=3"
        assert report["results"]["pass"] is True
        assert abs(report["results"]["minEig"]) < 1e-9
        assert report["results"]["map"] == "choi(n=3)"

    def test_kpos_failing_k(self, capsys):
        report = run_json(capsys, "kpos", "--map", "choi:n=3", "--k", "3")
        assert report["results"]["pass"] is False
        assert abs(report["results"]["minEig"] + 1.0) < 1e-9

    def test_kpos_fails_a_map_whose_norm_overflows(self, capsys):
        # The Choi matrix's Frobenius norm overflows; an overflow
        # RuntimeWarning is an error in this suite.
        report = run_json(
            capsys, "kpos", "--map", "collins:n=3,alpha=1e300,beta=-1e300", "--k", "1",
        )
        assert report["results"]["pass"] is False
        assert report["results"]["minEig"] < -1e300

    def test_profile_of_a_map_whose_symmetrisation_would_overflow(self, capsys):
        # Entries near 1e308: (M + M*)/2 overflowed to inf and LAPACK
        # failed to converge (exit 3); M/2 + M*/2 stays finite.
        report = run_json(capsys, "profile", "--map", "tomiyama:n=3,lambda=1e308")
        assert report["results"]["maxK"] == 0
        assert [pt["pass"] for pt in report["results"]["perK"]] == [False] * 3

    def test_profile(self, capsys):
        report = run_json(capsys, "profile", "--map", "transpose:n=3")
        results = report["results"]
        assert results["maxK"] == 1
        assert results["cp"] is False
        assert [pt["pass"] for pt in results["perK"]] == [True, False, False]

    def test_falsify_determinism_and_seed_echo(self, capsys):
        argv = ("falsify", "--map", "transpose:n=3", "--k", "2",
                "--trials", "50", "--seed", "3")
        first = run_json(capsys, *argv)
        second = run_json(capsys, *argv)
        assert first["seed"] == 3
        assert first["results"] == second["results"]
        assert first["results"]["found"] is True
        assert "state" in first["results"]

    def test_detect(self, capsys):
        report = run_json(
            capsys, "detect", "--state", "isotropic:n=3,p=0.5",
            "--map", "transpose:n=3",
        )
        assert report["results"]["detected"] is True
        report = run_json(
            capsys, "detect", "--state", "isotropic:n=3,p=0.2",
            "--map", "transpose:n=3",
        )
        assert report["results"]["detected"] is False

    def test_sn(self, capsys):
        report = run_json(
            capsys, "sn", "--state", "bell:n=3", "--map", "choi:n=3", "--t", "2",
        )
        assert report["results"]["certified"] is True
        assert report["results"]["claim"] == "schmidt number >= 3"

    def test_family_curve_is_monotone(self, capsys):
        report = run_json(
            capsys, "family", "--map", "choi:n=3", "--state", "bell:n=3",
            "--samples", "3", "--seed", "1",
        )
        curve = report["results"]["curve"]
        assert [pt["a"] for pt in curve] == [1, 2, 3]
        assert all(
            curve[i + 1]["minEig"] <= curve[i]["minEig"] + 1e-15
            for i in range(len(curve) - 1)
        )

    def test_family_curve_uses_the_library_verdict(self, capsys):
        # minEig is -1/3 on every point; at tol 0.2 the relative rule
        # (threshold -0.2 * max(1, ||out||_F)) does not flag it.
        report = run_json(
            capsys, "family", "--map", "choi:n=3", "--state", "bell:n=3",
            "--samples", "3", "--tol", "0.2",
        )
        for pt in report["results"]["curve"]:
            family = sampled_detector(choi_map(3), pt["a"], seed=0)
            verdict = detect_with_family(bell_state(3), family, tol=0.2)
            assert pt["minEig"] == verdict.min_eigenvalue
            assert pt["detected"] is verdict.detected is False

    def test_scan_grid(self, capsys):
        report = run_json(
            capsys, "scan", "--map", "collins", "--n", "3",
            "--alpha", "0:2:2", "--beta", "-1:0:2",
        )
        assert len(report["results"]["grid"]) == 4

    def test_scan_gamma_may_be_a_negative_exponent(self, capsys):
        # "-1e-3" is no plain negative number to argparse, so it is folded
        # onto --gamma like a range.
        report = run_json(
            capsys, "scan", "--map", "collins3", "--n", "3",
            "--alpha", "0:1:2", "--beta", "0:1:2", "--gamma", "-1e-3",
        )
        assert [row["gamma"] for row in report["results"]["grid"]] == [-1e-3] * 4

    def test_basis_json_and_dot(self, capsys):
        report = run_json(capsys, "basis", "--n", "2", "--a", "0", "--b", "1")
        assert report["results"]["count"] == 2
        perms = [e["perm"] for e in report["results"]["elements"]]
        assert perms == ["()", "(1 2)"]

        code, out, _ = run(
            capsys, "basis", "--n", "2", "--a", "0", "--b", "1",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("graph basis {")

    def test_diagram_verified(self, capsys):
        report = run_json(
            capsys, "diagram", "--pi", "(1 2)", "--a", "0", "--b", "1",
        )
        assert report["results"]["verified"] is True
        code, out, _ = run(
            capsys, "diagram", "--pi", "(1 2)", "--a", "0", "--b", "1",
            "--format", "text",
        )
        assert code == 0
        assert out.startswith("wiring a=0 b=1")

    def test_build_and_decompose_files(self, capsys, tmp_path):
        spec = EquivariantSpec(
            n=2, a=0, b=1,
            coeffs={Permutation.from_cycles("(1 2)", 2): 1.0},
        )
        coeffs_path = tmp_path / "coeffs.json"
        out_path = tmp_path / "map.json"
        save_json(str(coeffs_path), spec_to_json(spec))
        report = run_json(
            capsys, "build", "--n", "2", "--a", "0", "--b", "1",
            "--coeffs", str(coeffs_path), "--out", str(out_path),
        )
        assert report["results"]["label"] == "equivariant(n=2,a=0,b=1)"
        built = json.loads(out_path.read_text())
        M = np.asarray(built["choi"]["re"]).reshape(4, 4)
        assert np.array_equal(M, bell_matrix(2).real)

        choi_path = tmp_path / "choi.json"
        save_json(str(choi_path), matrix_to_json(bell_matrix(2)))
        report = run_json(
            capsys, "decompose", "--choi", str(choi_path),
            "--n", "2", "--a", "0", "--b", "1",
        )
        entries = {e["perm"]: e["re"] for e in report["results"]["coeffs"]}
        assert abs(entries["(1 2)"] - 1.0) < 1e-9
        assert report["results"]["residual"] < 1e-10

    def test_equiv_verdict(self, capsys, tmp_path):
        choi_path = tmp_path / "c.json"
        save_json(str(choi_path), matrix_to_json(bell_matrix(2)))
        report = run_json(
            capsys, "equiv", "--choi", str(choi_path),
            "--n", "2", "--a", "0", "--b", "1",
        )
        assert report["results"]["verdict"] == "pass"


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage error" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "kpos", "--k", "2")
        assert code == 1

    def test_bad_map_spec(self, capsys):
        code, _, err = run(capsys, "kpos", "--map", "nosuchmap:n=3", "--k", "1")
        assert code == 1
        assert "unknown map name" in err

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--choi", "/nonexistent/x.json",
            "--n", "2", "--a", "0", "--b", "1",
        )
        assert code == 1

    def test_json_parse_error_reports_offset(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2,,}')
        code, _, err = run(
            capsys, "decompose", "--choi", str(bad),
            "--n", "2", "--a", "0", "--b", "1",
        )
        assert code == 1
        assert "byte offset" in err

    def test_contract_violation_is_exit_2(self, capsys, tmp_path):
        # A singular conjugation carries no equivariance declaration, so
        # the block criterion must refuse.
        mat = tmp_path / "singular.json"
        singular = np.zeros((3, 3))
        singular[0, 0] = 1.0
        save_json(str(mat), matrix_to_json(singular))
        code, _, err = run(
            capsys, "kpos", "--map", f"conj:file={mat}", "--k", "1",
        )
        assert code == 2
        assert "contract violation" in err

    def test_shape_error_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "wrong.json"
        save_json(str(path), matrix_to_json(np.eye(5)))
        code, _, err = run(
            capsys, "decompose", "--choi", str(path),
            "--n", "2", "--a", "0", "--b", "1",
        )
        assert code == 2

    def test_conjugation_whose_choi_entries_overflow_is_a_usage_error(self, capsys, tmp_path):
        # 1e200 is finite, but the Choi matrix v v* would hold 1e400: the
        # outer product overflowed and the Hermiticity check read NaN.
        path = tmp_path / "huge.json"
        M = np.eye(3)
        M[0, 1] = 1e200
        save_json(str(path), matrix_to_json(M))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "kpos", "--map", f"conj:file={path}", "--k", "1")
        assert (code, out) == (1, "")
        assert err.startswith("usage error:")

    def test_numeric_failure_is_exit_3(self, capsys, monkeypatch):
        def boom(args, tol):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(cli, "_run", boom)
        code, _, err = run(capsys, "kpos", "--map", "choi:n=3", "--k", "1")
        assert code == 3
        assert "numeric failure" in err

    def test_bad_range_spec(self, capsys):
        code, _, err = run(
            capsys, "scan", "--map", "collins", "--n", "3",
            "--alpha", "0:2", "--beta", "0:1:2",
        )
        assert code == 1

    def test_falsify_k_above_n_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "falsify", "--map", "choi:n=3", "--k", "200")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: k = 200 outside 1..3")

    def test_bad_seed(self, capsys):
        code, _, err = run(
            capsys, "falsify", "--map", "choi:n=3", "--k", "2", "--seed", "-1",
        )
        assert code == 1

    @pytest.mark.parametrize("argv", [
        # n = 0 is no signature, and NaN and inf coefficients must not
        # slip past a gate that compares with ">".
        ("basis", "--n", "0", "--a", "0", "--b", "1"),
        ("basis", "--n", "3", "--a", "3", "--b", "3"),
        ("kpos", "--map", "tomiyama:n=3,lambda=nan", "--k", "1"),
        ("kpos", "--map", "bhat:n=3,alpha=inf,beta=0", "--k", "1"),
        ("scan", "--map", "collins", "--n", "3", "--alpha", "nan:1:2", "--beta", "0:1:1"),
        # Each coefficient is finite, but their sum, which bounds the
        # Choi entries, is not.
        ("kpos", "--map", "bhat:n=3,alpha=1e308,beta=1e308", "--k", "1"),
    ], ids=["basis-n0", "basis-over-budget", "tomiyama-nan", "bhat-inf", "scan-nan",
            "bhat-overflow"])
    def test_refused_before_any_report(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ("detect", "--state", "isotropic:n=3,p=0.1", "--map", "identity:n=3"),
        ("kpos", "--map", "transpose:n=3", "--k", "2"),
    ], ids=["detect", "kpos"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_a_usage_error(self, capsys, argv, tol):
        # Accepted, --tol nan would flag this separable state as entangled
        # and --tol inf would pass the transpose map as 2-positive.
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")


_EXTREMES = (0.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308, 1.7e308,
             float("nan"), float("inf"), float("-inf"))
_SIZES = (0, 1, 2, -1, 100000)
_STDERR_PREFIXES = {1: ("usage error:", "parse error at"), 2: ("contract violation:",)}


def _extreme_map_specs():
    """Map specs of every zoo entry with an n key, built from its help
    example: n at each of _SIZES, and each float key alone and each pair
    of float keys (same and opposite signs) at each of _EXTREMES."""
    specs = {}  # an ordered set: -nan reads as nan
    for name, (keys, _, example) in zoo.MAP_SPECS.items():
        if keys.get("n") is not int:
            continue
        base = dict(item.split("=") for item in example.split(":")[1].split(","))

        def spec(**values):
            return name + ":" + ",".join(f"{k}={values.get(k, v)}" for k, v in base.items())

        floats = [key for key, kind in keys.items() if kind is float]
        specs.update(dict.fromkeys(spec(n=n) for n in _SIZES))
        for key in floats:
            specs.update(dict.fromkeys(spec(**{key: x}) for x in _EXTREMES))
        for k1, k2 in itertools.combinations(floats, 2):
            for x in _EXTREMES:
                specs.update(dict.fromkeys([spec(**{k1: x, k2: x}), spec(**{k1: x, k2: -x})]))
    return list(specs)


_SCAN_EXTREMES = (0.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308,
                  float("nan"), float("inf"), float("-inf"))


def _extreme_scan_argvs():
    """scan on both families at n = 3: each extreme value as a range's low
    end, as a range's high end, as both ends of a span that overflows,
    and, for collins3, as gamma."""
    argvs = []
    for name in ("collins", "collins3"):
        base = ["scan", "--map", name, "--n", "3"]
        for x in _SCAN_EXTREMES:
            argvs += [
                base + [f"--alpha={x}:1:2", "--beta=0:1:2"],
                base + ["--alpha=0:1:2", f"--beta=-1:{x}:2"],
                base + [f"--alpha={-x}:{x}:3", f"--beta={x}:{x}:1"],
            ]
            if name == "collins3":
                argvs.append(base + ["--alpha=0:4:3", "--beta=-1:1:2", f"--gamma={x}"])
    return argvs


def _contract_break(capsys, argv, cells):
    """None when argv keeps the exit-code contract, else what broke.
    cells(results) lists the (pass, minEig) verdicts of a run that exits 0."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
    except Exception as exc:  # every escape, warnings included, is a finding
        capsys.readouterr()
        return f"raised {exc!r}"
    if code == 0:
        results = json.loads(out)["results"]
        if err or any(passed and not np.isfinite(eig) for passed, eig in cells(results)):
            return f"exit 0, stderr {err!r}, results {results}"
    elif code not in _STDERR_PREFIXES or not err.startswith(_STDERR_PREFIXES[code]):
        return f"exit {code}: {err!r}"
    return None


class TestExtremeValues:
    """The exit-code contract on extreme values: every run returns 0, 1 or
    2 with its documented stderr prefix, raises nothing, warnings
    included, and every passing verdict has a finite minEig."""

    @pytest.mark.parametrize("command", [("kpos", "--k", "1"), ("profile",)], ids=["kpos", "profile"])
    def test_every_run_keeps_the_exit_code_contract(self, capsys, command):
        if command[0] == "kpos":
            cells = lambda r: [(r["pass"], r["minEig"])]
        else:
            cells = lambda r: [(pt["pass"], pt["minEig"]) for pt in r["perK"]]
        broken = []
        for spec in _extreme_map_specs():
            argv = [command[0], "--map", spec, *command[1:]]
            why = _contract_break(capsys, argv, cells)
            if why is not None:
                broken.append((argv, why))
        assert not broken, f"{len(broken)} runs broke the contract, first: {broken[:5]}"

    def test_every_scan_keeps_the_exit_code_contract(self, capsys):
        def cells(results):
            return [(row[flag], row[eig]) for row in results["grid"]
                    for flag, eig in (("positive", "k1MinEig"), ("cp", "knMinEig"))]

        broken = []
        for argv in _extreme_scan_argvs():
            why = _contract_break(capsys, argv, cells)
            if why is not None:
                broken.append((argv, why))
        assert not broken, f"{len(broken)} runs broke the contract, first: {broken[:5]}"


def _cap_address_space():
    # Runs in the child between fork and exec, so only the child is capped.
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


class TestMemoryCap:
    """Oversized requests in a 3 GiB process.  The size budget refuses
    states and wiring rebuilds before allocating; the ampliation id_m x Phi
    is outside it, so bell:n=12 (6.41 GiB) still ends in a MemoryError."""

    def _run_capped(self, *argv):
        src = os.path.dirname(os.path.dirname(equimap.__file__))
        return subprocess.run(
            [sys.executable, "-m", "equimap.cli", *argv],
            capture_output=True, text=True, timeout=120,
            preexec_fn=_cap_address_space, env=dict(os.environ, PYTHONPATH=src),
        )

    def test_oversized_detect_is_a_usage_error(self):
        res = self._run_capped("detect", "--state", "bell:n=12", "--map", "choi:n=12")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("usage error: Unable to allocate")

    def test_oversized_state_is_refused_by_the_budget(self):
        # Refused before a 3000 x 3000 Haar draw and a 19.3 GiB state.
        res = self._run_capped(
            "detect", "--state", "pure:m=3000,n=12,r=1,seed=1", "--map", "choi:n=12",
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("usage error:")
        assert "MAX_REP_DIM = 1024" in res.stderr
        assert "Unable to allocate" not in res.stderr

    def test_oversized_wiring_rebuild_is_refused_by_the_budget(self):
        res = self._run_capped("diagram", "--pi", "()", "--a", "7", "--b", "7")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("usage error:")
        assert "MAX_REP_DIM = 1024" in res.stderr
        assert "Unable to allocate" not in res.stderr

    def test_falsifier_never_builds_the_ampliation(self):
        res = self._run_capped(
            "falsify", "--map", "choi:n=12", "--k", "12", "--trials", "3",
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["results"]["trials"] == 3


class TestTolerancePlumbing:
    def test_env_override_applies(self, capsys, monkeypatch):
        # choi(3) fails k=3 by a unit eigenvalue; an absurdly loose
        # tolerance from the environment turns the verdict around.
        monkeypatch.setenv("EQUIMAP_TOL", "1.0")
        report = run_json(capsys, "kpos", "--map", "choi:n=3", "--k", "3")
        assert report["results"]["pass"] is True

    def test_explicit_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EQUIMAP_TOL", "1.0")
        report = run_json(
            capsys, "kpos", "--map", "choi:n=3", "--k", "3", "--tol", "1e-9",
        )
        assert report["results"]["pass"] is False

    def test_invalid_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("EQUIMAP_TOL", "not-a-number")
        code, _, err = run(capsys, "kpos", "--map", "choi:n=3", "--k", "2")
        assert code == 1
        assert "EQUIMAP_TOL" in err

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "-1"])
    def test_env_value_must_be_finite_and_nonnegative(self, capsys, monkeypatch, raw):
        # Accepted, EQUIMAP_TOL=nan would fail the identity map at k = 1.
        monkeypatch.setenv("EQUIMAP_TOL", raw)
        code, out, err = run(capsys, "kpos", "--map", "identity:n=3", "--k", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: EQUIMAP_TOL")

    def test_env_is_not_read_without_the_tol_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("EQUIMAP_TOL", "not-a-number")
        report = run_json(capsys, "basis", "--n", "2", "--a", "0", "--b", "1")
        assert report["results"]["count"] == 2

    def test_defaults_are_the_library_constants(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("EQUIMAP_TOL", raising=False)
        assert cli.default_tol() == equimap.DEFAULT_TOL
        choi_path = tmp_path / "c.json"
        save_json(str(choi_path), matrix_to_json(bell_matrix(2)))
        report = run_json(
            capsys, "equiv", "--choi", str(choi_path), "--n", "2", "--a", "0", "--b", "1",
        )
        assert report["results"]["tolerance"] == COMMUTATOR_TOL
        library = check_ab_equivariance(bell_matrix(2), 2, 0, 1)
        assert library.tolerance == COMMUTATOR_TOL

    def test_negative_equiv_tolerance_is_a_usage_error(self, capsys, tmp_path):
        choi_path = tmp_path / "c.json"
        save_json(str(choi_path), matrix_to_json(bell_matrix(2)))
        code, out, err = run(
            capsys, "equiv", "--choi", str(choi_path),
            "--n", "2", "--a", "0", "--b", "1", "--tol", "-1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")
