"""The four closed-loop workloads: request kinds, seeded inputs, the timed
call into equimap, and the check of each answer against reference.py.

A workload is a cycle of request kinds; a kind's weight is how many of
its requests one cycle holds.  Inputs are drawn from the seed during
set-up, a small pool per kind, and requests walk through the pool.  The
seed changes input values, never the mix, so every seed asks for the same
amount of work.  Kind names marked "row" reproduce a row of ROADMAP's
baseline table.

Each kind's check returns None when the answer is right and a reason
otherwise.  Exceptions raised by a request are failures too.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

POOL = 8
GIB = 1 << 30


@dataclass
class Kind:
    name: str
    weight: int
    make: Callable[[np.random.Generator], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], str | None]


def _eq():
    import equimap
    return equimap


# ---------------------------------------------------------------- inputs

def _haar(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _pure(rng, n, r):
    """Pure state on C^n x C^n with Schmidt rank exactly r."""
    lam = rng.uniform(0.5, 1.5, size=r)
    lam /= np.linalg.norm(lam)
    U, V = _haar(rng, n), _haar(rng, n)
    return sum(lam[i] * np.kron(U[:, i], V[:, i]) for i in range(r))


def _rotated_bell(rng, n):
    b = np.eye(n).reshape(-1) / np.sqrt(n)
    return np.kron(np.eye(n), _haar(rng, n)) @ b


def _density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _near_far_p(rng, n, i):
    """Isotropic mixing parameter, alternately near and far from 1/(n+1)."""
    thr = 1.0 / (n + 1)
    if i % 2:
        return thr + rng.choice((-1, 1)) * rng.uniform(0.01, 0.03)
    if rng.random() < 0.5:
        return thr * rng.uniform(0.0, 0.5)
    return thr + (1 - thr) * rng.uniform(0.12, 0.4)


def _lam_below(rng, n, k):
    """Tomiyama parameter just inside the k-positive region."""
    return ref.tomiyama_bound(n, k) - rng.uniform(0.005, 0.05) * (ref.tomiyama_bound(n, k) - 1)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ------------------------------------------------------------ detect-ladder

def _pure_state(rng, n, r):
    return _eq().DensityMatrix.from_pure(_pure(rng, n, r), n, n)


def _detect_pt_iso(n, weight):
    counter = itertools.count()

    def make(rng):
        p = _near_far_p(rng, n, next(counter))
        return {"p": p, "rho": _eq().isotropic_state(n, p)}

    def run(x):
        E = _eq()
        return E.detect(x["rho"], E.transpose_map(n))

    def check(x, v):
        want = ref.isotropic_pt_min(n, x["p"])
        if v.detected != (x["p"] > 1.0 / (n + 1)):
            return f"transpose verdict {v.detected} at p={x['p']}"
        if not ref.close(v.min_eigenvalue, want):
            return f"min eigenvalue {v.min_eigenvalue} != {want}"
        return None

    return Kind(f"detect_pt_iso_n{n}", weight, make, run, check)


def _detect_choi(n, weight, state, name=None):
    """choi map on a locally rotated Bell state (min eigenvalue -1/n) or on
    a product state (never detected: the map is positive)."""

    def make(rng):
        if state == "bell":
            return {"rho": _eq().DensityMatrix.from_pure(_rotated_bell(rng, n), n, n)}
        return {"rho": _eq().product_state(_density(rng, n), _density(rng, n))}

    def run(x):
        E = _eq()
        return E.detect(x["rho"], E.choi_map(n))

    def check(x, v):
        if state == "bell":
            if not v.detected or not ref.close(v.min_eigenvalue, ref.choi_on_bell_min(n)):
                return f"choi on Bell gave {v.min_eigenvalue}, want {-1 / n}"
        elif v.detected:
            return "positive map detected a product state"
        return None

    return Kind(name or f"detect_choi_{state}_n{n}", weight, make, run, check)


def _sn_tomiyama(n, weight):
    """Tomiyama just inside its t-positive region on a rank-r pure state."""

    def make(rng):
        t = int(rng.integers(1, n))
        r = int(rng.integers(1, n + 1))
        return {"t": t, "r": r, "lam": _lam_below(rng, n, t), "rho": _pure_state(rng, n, r)}

    def run(x):
        E = _eq()
        return E.sn_certificate(x["rho"], E.tomiyama_map(n, x["lam"]), x["t"])

    def check(x, c):
        if not c.t_positive:
            return f"tomiyama(n={n}, lambda={x['lam']}) is {x['t']}-positive by the closed form"
        if c.certified and x["t"] + 1 > x["r"]:
            return f"claimed Schmidt number >= {x['t'] + 1} on a rank-{x['r']} state"
        return None

    return Kind(f"sn_tomiyama_n{n}", weight, make, run, check)


def _falsify_tomiyama(n, weight, trials=20):
    """k-positive tomiyama at k = n-1: no witness may exist; all trials run."""
    k = n - 1

    def make(rng):
        return {"lam": _lam_below(rng, n, k), "seed": int(rng.integers(2**32))}

    def run(x):
        E = _eq()
        return E.k_positivity_falsify(E.tomiyama_map(n, x["lam"]), k, trials=trials, seed=x["seed"])

    def check(x, w):
        return None if w is None else f"witness {w.value} against a {k}-positive map"

    return Kind(f"falsify_tomiyama_n{n}", weight, make, run, check)


def _falsify_transpose(n, weight):
    """Transpose is not 2-positive; any entangled input is a witness."""

    def make(rng):
        return {"seed": int(rng.integers(2**32))}

    def run(x):
        E = _eq()
        return E.k_positivity_falsify(E.transpose_map(n), 2, trials=20, seed=x["seed"])

    def check(x, w):
        if w is None:
            return "no witness against transpose at k=2"
        out = ref.partial_transpose_second(w.state, 2, n)
        val = float(np.real(w.witness.conj() @ out @ w.witness))
        if w.value >= 0 or not ref.close(val, w.value):
            return f"witness value {w.value} does not match {val}"
        return None

    return Kind(f"falsify_transpose_n{n}", weight, make, run, check)


def _family_pure(n, weight, samples=10):
    """Sampled choi family on a rank < n pure state: never detected, since
    every member is (n-1)-positive."""

    def make(rng):
        return {"rho": _pure_state(rng, n, int(rng.integers(1, n))), "seed": int(rng.integers(2**32))}

    def run(x):
        E = _eq()
        return E.detect_with_family(x["rho"], E.sampled_detector(E.choi_map(n), samples, x["seed"]))

    def check(x, v):
        return "family detected a state of Schmidt rank < n" if v.detected else None

    return Kind(f"family_pure_n{n}", weight, make, run, check)


def _family_bell(n, samples, weight):
    """Row "family n = 6 x 50": every member sees min eigenvalue -1/n on Bell."""

    def make(rng):
        return {
            "rho": _eq().DensityMatrix.from_pure(_rotated_bell(rng, n), n, n),
            "seed": int(rng.integers(2**32)),
        }

    def run(x):
        E = _eq()
        return E.family_block_minima(x["rho"], E.sampled_detector(E.choi_map(n), samples, x["seed"]))

    def check(x, minima):
        bad = [m for m in minima if not ref.close(float(m), ref.choi_on_bell_min(n))]
        return f"{len(bad)} family minima differ from -1/{n}" if bad else None

    return Kind(f"family_bell_n{n}x{samples}", weight, make, run, check)


def detect_ladder() -> list[Kind]:
    # Weights per cycle, by cost: fifty-four requests of about 2 ms (n = 3
    # and the transpose falsifier at n = 4); sixty-four from about 4.5 to
    # 11 ms, eight of each kind, with no two neighbouring kinds more than
    # 1.3 times apart in cost (the rest of n = 4, the tomiyama falsifier
    # and the family at n = 3 with their trial and sample counts set to
    # fill the gaps); then fifty-nine larger ones.  The median falls in
    # the middle of that ladder, so it moves smoothly with the host's
    # speed (see zoo_scan) instead of jumping between cost modes.  The
    # six family rows per cycle hold the tail: above them ranks only the
    # one n = 8 detect per cycle, and a run holds at least two cycles,
    # so the tail ranks among the family rows, not on the edge of the
    # n = 6 requests below them.
    return [
        *(_detect_pt_iso(n, w) for n, w in ((3, 9), (4, 8))),
        *(_detect_choi(n, w, "bell") for n, w in ((3, 9), (4, 8))),
        *(_detect_choi(n, w, "product") for n, w in ((3, 9), (4, 8))),
        *(_sn_tomiyama(n, w) for n, w in ((3, 9), (4, 8))),
        *(_falsify_transpose(n, 9) for n in (3, 4)),
        _falsify_tomiyama(3, 8, trials=40),
        _falsify_tomiyama(4, 8),
        _family_pure(3, 8, samples=20),
        _family_pure(4, 8),
        _detect_pt_iso(5, 4),
        _detect_choi(5, 4, "product"),
        _sn_tomiyama(5, 4),
        _falsify_tomiyama(5, 4),
        _family_pure(5, 4),
        _detect_pt_iso(6, 8),
        _detect_choi(6, 8, "bell"),
        _detect_choi(6, 8, "product"),
        _sn_tomiyama(6, 8),
        _detect_choi(8, 1, "bell", name="detect_bell_n8"),  # row
        _family_bell(6, 50, 6),  # row
    ]


# ---------------------------------------------------------- basis-roundtrip

def _paired_coeffs(rng, perms):
    """Random coefficients with coeffs[inverse(p)] == conj(coeffs[p])."""
    coeffs = {}
    for p in perms:
        q = p.inverse()
        if q in coeffs:
            coeffs[p] = np.conj(coeffs[q])
        elif q == p:
            coeffs[p] = complex(rng.standard_normal())
        else:
            coeffs[p] = complex(rng.standard_normal(), rng.standard_normal())
    return coeffs


def _spec(rng, n, a, b):
    from equimap.equivariant import EquivariantSpec
    return EquivariantSpec(n=n, a=a, b=b, coeffs=_paired_coeffs(rng, _eq().enumerate_sym(a + b + 1)))


def _roundtrip(n, a, b, weight):
    """build -> decompose -> one-trial commutator check.  Coefficients come
    back within 1e-9 when n >= a+b+1; otherwise the residual is ~0."""

    def make(rng):
        return {"spec": _spec(rng, n, a, b), "seed": int(rng.integers(2**32))}

    def run(x):
        E = _eq()
        rep = E.build_equivariant(x["spec"])
        coeffs, residual = E.decompose_equivariant(rep.choi, n, a, b)
        report = E.check_ab_equivariance(rep.choi, n, a, b, trials=1, seed=x["seed"])
        return coeffs, residual, report, float(np.linalg.norm(rep.choi))

    def check(x, out):
        coeffs, residual, report, norm = out
        if not report.passed:
            return f"built map failed its commutator check ({report.max_rel_commutator_norm})"
        if n >= a + b + 1:
            err = max(abs(coeffs[p] - c) for p, c in x["spec"].coeffs.items())
            return None if err <= 1e-9 else f"coefficients returned with error {err}"
        return None if residual <= ref.TOL * max(1.0, norm) else f"residual {residual}"

    return Kind(f"roundtrip_{n}{a}{b}", weight, make, run, check)


def _equiv_412(weight, trials=20):
    """Row "check_ab_equivariance (4,1,2) x 20", on an equivariant Choi and
    on the same Choi with Hermitian noise, alternately."""
    counter = itertools.count()

    def make(rng):
        choi = _eq().build_equivariant(_spec(rng, 4, 1, 2)).choi
        noisy = next(counter) % 2 == 1
        if noisy:
            h = rng.standard_normal(choi.shape)
            choi = choi + 1e-3 * (h + h.T)
        return {"choi": choi, "noisy": noisy, "seed": int(rng.integers(2**32))}

    def run(x):
        return _eq().check_ab_equivariance(x["choi"], 4, 1, 2, trials=trials, seed=x["seed"])

    def check(x, report):
        return None if report.passed != x["noisy"] else f"verdict {report.passed} with noise={x['noisy']}"

    return Kind(f"equiv_412x{trials}", weight, make, run, check)


def basis_roundtrip() -> list[Kind]:
    return [
        _roundtrip(3, 1, 1, 5),
        _roundtrip(6, 1, 1, 3),
        _roundtrip(4, 1, 2, 6),
        _equiv_412(1),  # row
        _roundtrip(5, 1, 2, 1),
        _roundtrip(3, 2, 2, 2),
        _roundtrip(3, 1, 3, 2),
        _roundtrip(2, 2, 3, 1),  # row: gram_matrix(6, 2)
        _roundtrip(4, 2, 2, 1),  # row: the (4,2,2) basis
    ]


# ----------------------------------------------------------------- zoo-scan

def _tomiyama_lam(rng, n):
    """lambda strictly between two consecutive k-boundaries, so the profile
    has one right answer."""
    kstar = int(rng.integers(1, n + 1))
    hi = ref.tomiyama_bound(n, kstar)
    lo = ref.tomiyama_bound(n, kstar + 1) if kstar < n else 0.2
    return float(_fmt(lo + (hi - lo) * rng.uniform(0.1, 0.9)))


def _profile_tomiyama(n, weight):
    def make(rng):
        lam = _tomiyama_lam(rng, n)
        return {"lam": lam, "spec": f"tomiyama:n={n},lambda={_fmt(lam)}"}

    def run(x):
        E = _eq()
        return E.positivity_profile(E.parse_map_spec(x["spec"]).rep)

    def check(x, prof):
        want = ref.tomiyama_max_k(n, x["lam"])
        if prof.max_k != want:
            return f"{x['spec']}: max k {prof.max_k}, closed form {want}"
        return None

    return Kind(f"profile_tomiyama_n{n}", weight, make, run, check)


def _kpos_bhat(n, weight):
    k = n // 2

    def make(rng):
        while True:
            alpha, beta = float(_fmt(rng.uniform(-1, 1))), float(_fmt(rng.uniform(-0.5, 1)))
            if abs(ref.bhat_block_min(alpha, beta, k)) > 1e-3:
                return {"alpha": alpha, "beta": beta,
                        "spec": f"bhat:n={n},alpha={_fmt(alpha)},beta={_fmt(beta)}"}

    def run(x):
        E = _eq()
        return E.k_positivity(E.parse_map_spec(x["spec"]).rep, k)

    def check(x, out):
        flag, min_eig = out
        want = ref.bhat_block_min(x["alpha"], x["beta"], k)
        if flag != (want > 0) or not ref.close(min_eig, want):
            return f"{x['spec']} k={k}: ({flag}, {min_eig}), closed form {want}"
        return None

    return Kind(f"kpos_bhat_n{n}", weight, make, run, check)


def _collins_params(rng, three):
    alpha, beta = float(_fmt(rng.uniform(-3, 3))), float(_fmt(rng.uniform(-3, 3)))
    gamma = float(_fmt(rng.uniform(-1, 1))) if three else 0.0
    return alpha, beta, gamma


def _collins_spec(n, alpha, beta, gamma, three):
    s = f"n={n},alpha={_fmt(alpha)},beta={_fmt(beta)}"
    return f"collins3:{s},gamma={_fmt(gamma)}" if three else f"collins:{s}"


def _eig_matches(got, C, n, k):
    want = ref.block_min(C, n, k)
    return abs(got - want) <= ref.TOL * max(1.0, float(np.linalg.norm(C)))


def _profile_collins(n, weight):
    def make(rng):
        a, b, g = _collins_params(rng, False)
        return {"abg": (a, b, g), "spec": _collins_spec(n, a, b, g, False)}

    def run(x):
        E = _eq()
        return E.positivity_profile(E.parse_map_spec(x["spec"]).rep)

    def check(x, prof):
        C = x.setdefault("choi", ref.collins_choi(n, *x["abg"]))
        for k in (1, n):
            if not _eig_matches(prof.per_k[k - 1].min_eig, C, n, k):
                return f"{x['spec']}: k={k} min eigenvalue {prof.per_k[k - 1].min_eig}"
        if prof.max_k != max((p.k for p in prof.per_k if p.passed), default=0):
            return f"{x['spec']}: max k {prof.max_k} disagrees with its own verdicts"
        return None

    return Kind(f"profile_collins_n{n}", weight, make, run, check)


def _kpos_collins3(n, weight):
    def make(rng):
        a, b, g = _collins_params(rng, True)
        return {"abg": (a, b, g), "spec": _collins_spec(n, a, b, g, True)}

    def run(x):
        E = _eq()
        return E.k_positivity(E.parse_map_spec(x["spec"]).rep, 1)

    def check(x, out):
        C = x.setdefault("choi", ref.collins_choi(n, *x["abg"]))
        return None if _eig_matches(out[1], C, n, 1) else f"{x['spec']}: k=1 min eigenvalue {out[1]}"

    return Kind(f"kpos_collins3_n{n}", weight, make, run, check)


def _scan_rows_check(n, rows, gamma):
    for row in rows:
        C = ref.collins_choi(n, row["alpha"], row["beta"], gamma or 0.0)
        for k, key in ((1, "k1MinEig"), (n, "knMinEig")):
            if not _eig_matches(row[key], C, n, k):
                return f"scan point ({row['alpha']}, {row['beta']}): {key} {row[key]}"
    return None


def _scan(n, steps, weight, three):
    """Row "scan(3, 9x9)" for collins; a collins3 grid beside it."""

    def make(rng):
        a0, b0 = rng.uniform(-3, 0, size=2)
        return {
            "alphas": np.linspace(a0, a0 + 3, steps),
            "betas": np.linspace(b0, b0 + 3, steps),
            "gamma": float(rng.uniform(-1, 1)) if three else None,
        }

    def run(x):
        return _eq().positivity_scan(n, x["alphas"], x["betas"], gamma=x["gamma"])

    def check(x, rows):
        if "verdict" not in x:
            x["verdict"] = _scan_rows_check(n, rows, x["gamma"])
        return x["verdict"]

    name = "collins3" if three else "collins"
    return Kind(f"scan_{name}_n{n}_{steps}x{steps}", weight, make, run, check)


def zoo_scan() -> list[Kind]:
    # Weights per cycle, by cost: thirty requests under 3 ms; sixty from
    # about 3 to 15 ms, six of each kind, with no two neighbouring kinds
    # more than 1.5 times apart in cost; then thirty-three larger ones.
    # The median falls in the middle of that ladder, near bhat n = 12 and
    # tomiyama n = 10.  A shared host's speed switches between a fast and
    # a slow state, about 1.5 times apart, every few seconds; on the
    # ladder the median moves smoothly with the share of slow time rather
    # than jumping across a gap between two cost modes.  The ten collins3
    # n = 8 requests per cycle hold the tail; above them rank only the
    # one collins n = 8 profile per cycle, and a run holds four to eight
    # cycles, so the tail ranks among the collins3 n = 8 requests.
    return [
        *(_profile_tomiyama(n, w) for n, w in (
            (4, 6), (8, 6), (9, 6), (10, 6), (11, 6), (12, 4), (16, 2))),
        *(_kpos_bhat(n, w) for n, w in (
            (8, 6), (10, 6), (11, 6), (12, 6), (13, 6), (14, 6), (16, 4))),
        *(_profile_collins(n, w) for n, w in ((3, 6), (4, 6), (6, 4), (8, 1))),
        *(_kpos_collins3(n, w) for n, w in ((3, 6), (4, 6), (6, 4), (8, 10))),
        _scan(3, 9, 2, False),  # row
        _scan(4, 5, 2, True),
    ]


# ------------------------------------------------------------------ cli-mix

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _matrix_json(M) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"rows": M.shape[0], "cols": M.shape[1],
            "re": M.real.reshape(-1).tolist(), "im": M.imag.reshape(-1).tolist()}


def _cap_memory():
    # Runs in the probe's child between fork and exec: a 3 GiB address
    # space keeps an oversized allocation from reaching the machine.
    resource.setrlimit(resource.RLIMIT_AS, (3 * GIB, 3 * GIB))


class CliRunner:
    """Runs `python -m equimap.cli` one request at a time.  While a recorder
    is attached, the process starts through cli_shim.py, which installs the
    same wrappers; its spans are merged into the recorder."""

    def __init__(self, src: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.recorder = None
        self.calls: list[dict] = []  # wall, reported elapsedMs and stdout size

    def __call__(self, argv, capped=False) -> CliResult:
        env, rec = self.env, self.recorder
        if rec is None:
            cmd = [sys.executable, "-m", "equimap.cli", *argv]
        else:
            spans_path = os.path.join(self.workdir, "spans.jsonl")
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_shim.py"), *argv]
            env = dict(env, PERFBENCH_SPANS=spans_path, PERFBENCH_REQUEST=str(rec.request))
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, env=env, cwd=self.workdir, capture_output=True, text=True,
            preexec_fn=_cap_memory if capped else None, timeout=120,
        )
        wall = time.perf_counter() - t0
        if rec is not None:
            rec.merge(spans_path)
        try:
            elapsed_ms = json.loads(proc.stdout)["elapsedMs"] if proc.returncode == 0 else None
        except (ValueError, KeyError):
            elapsed_ms = None
        self.calls.append({"wall_s": wall, "elapsed_ms": elapsed_ms,
                           "stdout_bytes": len(proc.stdout.encode()), "traced": rec is not None})
        return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _report(res: CliResult):
    if res.code != 0:
        raise RuntimeError(f"exit {res.code}: {res.stderr.strip().splitlines()[-1:]}")
    return json.loads(res.stdout)["results"]


class CliCrashed(Exception):
    """The command died with an uncaught exception instead of answering."""


def _cli_kind(name, weight, make, check, capped=False):
    def run(x):
        res = x["runner"](x["argv"], capped=capped)
        if "Traceback (most recent call last)" in res.stderr:
            raise CliCrashed(res.stderr.strip().splitlines()[-1])
        return res

    return Kind(name, weight, make, run, check)


def cli_mix(runner: CliRunner) -> list[Kind]:
    wd = runner.workdir
    files = itertools.count()

    def write(obj) -> str:
        path = os.path.join(wd, f"in-{next(files)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def kinds():
        def kpos_row(rng):
            return {"argv": ["kpos", "--map", "choi:n=3", "--k", "2"]}

        def kpos_row_check(x, res):
            r = _report(res)
            return None if r["pass"] and r["minEig"] >= -ref.TOL else f"choi n=3 not 2-positive: {r}"

        yield _cli_kind("cli_kpos", 2, kpos_row, kpos_row_check)  # row

        def kpos(rng):
            n, k = 4, int(rng.integers(1, 5))
            lam = _tomiyama_lam(rng, n)
            return {"lam": lam, "k": k, "n": n,
                    "argv": ["kpos", "--map", f"tomiyama:n={n},lambda={_fmt(lam)}", "--k", str(k)]}

        def kpos_check(x, res):
            want = x["lam"] <= ref.tomiyama_bound(x["n"], x["k"])
            got = _report(res)["pass"]
            return None if got == want else f"kpos {x['argv']}: {got}, closed form {want}"

        yield _cli_kind("cli_kpos_tomiyama", 1, kpos, kpos_check)

        def profile(rng):
            lam = _tomiyama_lam(rng, 5)
            return {"lam": lam, "argv": ["profile", "--map", f"tomiyama:n=5,lambda={_fmt(lam)}"]}

        def profile_check(x, res):
            got, want = _report(res)["maxK"], ref.tomiyama_max_k(5, x["lam"])
            return None if got == want else f"profile max k {got}, closed form {want}"

        yield _cli_kind("cli_profile", 1, profile, profile_check)

        def detect(rng):
            p = float(_fmt(_near_far_p(rng, 4, int(rng.integers(2)))))
            return {"p": p, "argv": ["detect", "--state", f"isotropic:n=4,p={_fmt(p)}",
                                     "--map", "transpose:n=4"]}

        def detect_check(x, res):
            got = _report(res)["detected"]
            return None if got == (x["p"] > 0.2) else f"transpose verdict {got} at p={x['p']}"

        yield _cli_kind("cli_detect", 1, detect, detect_check)

        def sn(rng):
            n, t, r = 4, int(rng.integers(1, 4)), int(rng.integers(1, 5))
            lam = _lam_below(rng, n, t)
            return {"t": t, "r": r, "argv": [
                "sn", "--state", f"pure:m={n},n={n},r={r},seed={int(rng.integers(2**31))}",
                "--map", f"tomiyama:n={n},lambda={_fmt(lam)}", "--t", str(t)]}

        def sn_check(x, res):
            r = _report(res)
            if not r["tPositive"]:
                return "tomiyama inside its t-positive region was refused"
            if r["certified"] and x["t"] + 1 > x["r"]:
                return f"claimed Schmidt number >= {x['t'] + 1} on a rank-{x['r']} state"
            return None

        yield _cli_kind("cli_sn", 1, sn, sn_check)

        def family(rng):
            return {"argv": ["family", "--map", "choi:n=4", "--state", "bell:n=4",
                             "--samples", "10", "--seed", str(int(rng.integers(2**31)))]}

        def family_check(x, res):
            bad = [c for c in _report(res)["curve"] if not ref.close(c["minEig"], -0.25)]
            return f"{len(bad)} curve points differ from -1/4" if bad else None

        yield _cli_kind("cli_family", 1, family, family_check)

        def scan(rng):
            a0, b0 = (float(_fmt(v)) for v in rng.uniform(-3, 0, size=2))
            return {"argv": ["scan", "--map", "collins", "--n", "3",
                             "--alpha", f"{_fmt(a0)}:{_fmt(a0 + 3)}:5",
                             "--beta", f"{_fmt(b0)}:{_fmt(b0 + 3)}:5"]}

        def scan_check(x, res):
            if "verdict" not in x:
                x["verdict"] = _scan_rows_check(3, _report(res)["grid"], None)
            return x["verdict"]

        yield _cli_kind("cli_scan", 1, scan, scan_check)

        def falsify(rng):
            return {"argv": ["falsify", "--map", "transpose:n=3", "--k", "2",
                             "--trials", "20", "--seed", str(int(rng.integers(2**31)))]}

        def falsify_check(x, res):
            r = _report(res)
            return None if r["found"] and r["value"] < 0 else "no witness against transpose at k=2"

        yield _cli_kind("cli_falsify", 1, falsify, falsify_check)

        def basis(rng):
            return {"argv": ["basis", "--n", "3", "--a", "1", "--b", "1"]}

        def basis_check(x, res):
            r = _report(res)
            return None if r["count"] == 6 and len(r["elements"]) == 6 else f"basis count {r['count']}"

        yield _cli_kind("cli_basis", 1, basis, basis_check)

        def collins_files(rng):
            a, b, _ = _collins_params(rng, False)
            cyc = {"(1 2)": 1.0, "(1 3)": 1.0, "()": a, "(2 3)": b}
            coeffs = {"n": 3, "a": 1, "b": 1,
                      "coeffs": [{"perm": p, "re": c, "im": 0.0} for p, c in cyc.items()]}
            C = ref.collins_choi(3, a, b)
            return {"cyc": cyc, "choi": C, "coeffs_path": write(coeffs),
                    "choi_path": write(_matrix_json(C))}

        def build(rng):
            x = collins_files(rng)
            x["out"] = os.path.join(wd, f"out-{next(files)}.json")
            x["argv"] = ["build", "--n", "3", "--a", "1", "--b", "1",
                         "--coeffs", x["coeffs_path"], "--out", x["out"]]
            return x

        def build_check(x, res):
            _report(res)
            with open(x["out"], encoding="utf-8") as fh:
                m = json.load(fh)["choi"]
            got = (np.array(m["re"]) + 1j * np.array(m["im"])).reshape(m["rows"], m["cols"])
            err = float(np.abs(got - x["choi"]).max())
            return None if err <= ref.TOL else f"built Choi differs from the collins formula by {err}"

        yield _cli_kind("cli_build", 1, build, build_check)

        def decompose(rng):
            x = collins_files(rng)
            x["argv"] = ["decompose", "--choi", x["choi_path"], "--n", "3", "--a", "1", "--b", "1"]
            return x

        def decompose_check(x, res):
            got = {c["perm"]: complex(c["re"], c["im"]) for c in _report(res)["coeffs"]}
            err = max(abs(got.get(p, 0.0) - c) for p, c in x["cyc"].items())
            extra = set(got) - set(x["cyc"])
            return None if err <= 1e-9 and not extra else f"coefficients off by {err}, extra {extra}"

        yield _cli_kind("cli_decompose", 1, decompose, decompose_check)

        def equiv(rng):
            x = collins_files(rng)
            x["noisy"] = bool(rng.integers(2))
            if x["noisy"]:
                h = rng.standard_normal(x["choi"].shape)
                x["choi_path"] = write(_matrix_json(x["choi"] + 1e-3 * (h + h.T)))
            x["argv"] = ["equiv", "--choi", x["choi_path"], "--n", "3", "--a", "1", "--b", "1",
                         "--trials", "5", "--seed", str(int(rng.integers(2**31)))]
            return x

        def equiv_check(x, res):
            got = _report(res)["verdict"]
            want = "fail" if x["noisy"] else "pass"
            return None if got == want else f"equiv verdict {got}, want {want}"

        yield _cli_kind("cli_equiv", 1, equiv, equiv_check)

        # Refusal probes: each passes only with its documented exit code and
        # stderr prefix.  The oversized ones run under a 3 GiB address space.
        def probe(argv_fn, code, prefix):
            def check(x, res):
                if res.code == code and res.stderr.startswith(prefix):
                    return None
                first = res.stderr.strip().splitlines()[-1:] if res.stderr.strip() else []
                return f"exit {res.code}, stderr {first}; want exit {code} and {prefix!r}"
            return argv_fn, check

        def nodecl(rng):
            M = np.diag([1.0, rng.uniform(0.5, 2.0), 0.0])
            return {"argv": ["kpos", "--map", f"conj:file={write(_matrix_json(M))}", "--k", "1"]}

        yield _cli_kind("probe_no_declaration", 1, *probe(nodecl, 2, "contract violation:"))
        yield _cli_kind("probe_too_large", 1, *probe(
            lambda rng: {"argv": ["basis", "--n", "3", "--a", "3", "--b", "3"]}, 1, "usage error:"))
        yield _cli_kind("probe_oversized_detect", 1, *probe(
            lambda rng: {"argv": ["detect", "--state", "bell:n=12", "--map", "choi:n=12"]},
            1, "usage error:"), capped=True)
        yield _cli_kind("probe_oversized_falsify", 1, *probe(
            lambda rng: {"argv": ["falsify", "--map", "choi:n=3", "--k", "200"]},
            1, "usage error:"), capped=True)

    out = []
    for kind in kinds():
        make = kind.make
        kind.make = lambda rng, make=make: dict(make(rng), runner=runner)
        out.append(kind)
    return out


WORKLOADS = {
    "detect-ladder": detect_ladder,
    "basis-roundtrip": basis_roundtrip,
    "zoo-scan": zoo_scan,
    "cli-mix": cli_mix,
}
