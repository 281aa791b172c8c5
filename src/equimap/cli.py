"""Command line interface.

Every subcommand prints one JSON report to stdout:

    {"command": ..., "params": {...}, "seed": ..., "results": {...},
     "elapsedMs": ..., "version": ...}

The results payload is deterministic for identical arguments and seed;
only elapsedMs varies.  --format text / dot (where offered) print a
human rendering instead of the report and are not schema-stable.

Exit codes: 0 success, 1 usage or parse error (an input over the size
budget included), 2 contract violation, 3 internal numeric failure.
Sizes are refused by the budget before anything is allocated; the one
dense operator outside it is the ampliation id_m x Phi that detect, sn
and family build, whose MemoryError is also reported as a usage error.
EQUIMAP_TOL overrides the default positivity tolerance of 1e-9 for the
subcommands that take the shared --tol flag; the others do not read it.
Every tolerance must be a finite nonnegative number.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, serialize
from .detection import (
    detect,
    family_verdicts,
    parse_state_spec,
    sampled_detector,
    sn_certificate,
)
from .diagram import render_dot, render_text, verify_wiring, wiring
from .equivariant import (
    COMMUTATOR_TOL,
    build_equivariant,
    check_ab_equivariance,
    check_signature,
    decompose_equivariant,
)
from .errors import CapacityError, ContractViolation, EquimapError, ParameterError, ShapeError
from .linalg import DEFAULT_TOL, check_seed, check_tol
from .perms import Permutation, check_work, enumerate_sym
from .positivity import k_positivity, k_positivity_falsify, positivity_profile
from .zoo import parse_map_spec, positivity_scan


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def default_tol() -> float:
    raw = os.environ.get("EQUIMAP_TOL", "")
    if raw:
        try:
            return check_tol(float(raw))
        except (ValueError, ParameterError):
            raise _UsageError(
                f"EQUIMAP_TOL must be a nonnegative finite number, got {raw!r}"
            ) from None
    return DEFAULT_TOL


def _vector_json(v) -> dict:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return {"re": [float(x) for x in v.real], "im": [float(x) for x in v.imag]}


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"expected LO:HI:STEPS, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"expected LO:HI:STEPS with numeric fields, got {text!r}") from None
    if steps < 1:
        raise _UsageError(f"steps must be positive in {text!r}")
    return lo, hi, steps


def _edges_json(d) -> list:
    return [
        {"from": [s1.lower(), j1], "to": [s2.lower(), j2]}
        for (s1, j1), (s2, j2) in d.edges
    ]


def _arg(*names, **kwargs):
    return names, kwargs


_N = _arg("--n", type=int, required=True)
_A = _arg("--a", type=int, required=True)
_B = _arg("--b", type=int, required=True)
_MAP = _arg("--map", required=True, dest="map_spec")
_STATE = _arg("--state", required=True, dest="state_spec")
_TOL = _arg("--tol", type=float, default=None)
_SEED = _arg("--seed", type=int, default=0)
_K = _arg("--k", type=int, required=True)
_CHOI = _arg("--choi", required=True, metavar="FILE")
_FORMAT = _arg("--format", choices=("json", "text", "dot"), default="json")

# Every subcommand once: name -> (help, flags, handler).  A handler takes
# the parsed arguments and the positivity tolerance (None unless it
# declares _TOL) and returns either a results dict for the JSON report or
# raw text to print as is.
COMMANDS: dict = {}


def _command(name: str, help_text: str, *flags):
    def register(handler):
        COMMANDS[name] = (help_text, flags, handler)
        return handler

    return register


@_command("basis", "list the permutation basis for a signature", _N, _A, _B, _FORMAT)
def _basis(args, tol):
    check_signature(args.n, args.a, args.b)
    perms = enumerate_sym(args.a + args.b + 1)
    diagrams = [(p.cycle_string(), wiring(p, args.a, args.b)) for p in perms]
    if args.format == "text":
        return "\n\n".join(render_text(d, title=f"pi={label}") for label, d in diagrams) + "\n"
    if args.format == "dot":
        return render_dot(diagrams, graph_name="basis")
    elements = [
        {"perm": p.cycle_string(), "cycles": p.cycle_count(), "edges": _edges_json(d)}
        for p, (_, d) in zip(perms, diagrams)
    ]
    return {"n": args.n, "a": args.a, "b": args.b, "count": len(perms), "elements": elements}


@_command(
    "build", "synthesize a map from a coefficient file", _N, _A, _B,
    _arg("--coeffs", required=True, metavar="FILE"),
    _arg("--out", required=True, metavar="FILE"),
)
def _build(args, tol):
    spec = serialize.spec_from_json(serialize.load_json(args.coeffs))
    if (spec.n, spec.a, spec.b) != (args.n, args.a, args.b):
        raise _UsageError(
            f"coefficient file is for (n,a,b)=({spec.n},{spec.a},{spec.b}), "
            f"flags say ({args.n},{args.a},{args.b})"
        )
    rep = build_equivariant(spec)
    serialize.save_json(args.out, serialize.map_to_json(rep))
    return {
        "label": rep.label,
        "n": rep.n,
        "N": rep.N,
        "choiDim": rep.n * rep.N,
        "coeffCount": len(spec.coeffs),
        "out": args.out,
    }


@_command("decompose", "coefficients of a Choi matrix in the basis", _CHOI, _N, _A, _B)
def _decompose(args, tol):
    C = serialize.load_matrix(args.choi)
    coeffs, residual = decompose_equivariant(C, args.n, args.a, args.b)
    entries = [
        {"perm": p.cycle_string(), "re": c.real, "im": c.imag}
        for p, c in coeffs.items()
        if abs(c) > 1e-12
    ]
    return {"coeffs": entries, "residual": residual}


@_command(
    "equiv", "sampled commutator check of a Choi matrix", _CHOI, _N, _A, _B,
    _arg("--trials", type=int, default=20), _SEED,
    _arg("--tol", type=float, default=COMMUTATOR_TOL),
)
def _equiv(args, tol):
    C = serialize.load_matrix(args.choi)
    report = check_ab_equivariance(
        C, args.n, args.a, args.b,
        trials=args.trials, seed=check_seed(args.seed), tol=args.tol,
    )
    return {
        "trials": report.trials,
        "maxRelCommutatorNorm": report.max_rel_commutator_norm,
        "tolerance": report.tolerance,
        "verdict": "pass" if report.passed else "fail",
    }


@_command("kpos", "block k-positivity verdict for a zoo map", _MAP, _K, _TOL)
def _kpos(args, tol):
    entry = parse_map_spec(args.map_spec)
    flag, min_eig = k_positivity(entry.rep, args.k, tol)
    return {"map": entry.rep.label, "k": args.k, "pass": flag, "minEig": min_eig}


@_command("profile", "positivity verdicts for every k", _MAP, _TOL)
def _profile(args, tol):
    prof = positivity_profile(parse_map_spec(args.map_spec).rep, tol)
    return {
        "label": prof.label,
        "perK": [{"k": pt.k, "minEig": pt.min_eig, "pass": pt.passed} for pt in prof.per_k],
        "maxK": prof.max_k,
        "cp": prof.completely_positive,
    }


@_command(
    "falsify", "random-state search for a k-positivity violation", _MAP, _K,
    _arg("--trials", type=int, default=500), _SEED,
)
def _falsify(args, tol):
    entry = parse_map_spec(args.map_spec)
    witness = k_positivity_falsify(
        entry.rep, args.k, trials=args.trials, seed=check_seed(args.seed)
    )
    results = {
        "map": entry.rep.label,
        "k": args.k,
        "trials": args.trials,
        "found": witness is not None,
    }
    if witness is not None:
        results.update(
            trial=witness.trial,
            value=witness.value,
            state=_vector_json(witness.state),
            witness=_vector_json(witness.witness),
        )
    return results


@_command("detect", "apply an extended map to a state", _STATE, _MAP, _TOL)
def _detect(args, tol):
    rho = parse_state_spec(args.state_spec)
    verdict = detect(rho, parse_map_spec(args.map_spec).rep, tol)
    results = {
        "state": args.state_spec,
        "map": verdict.map_label,
        "minEig": verdict.min_eigenvalue,
        "detected": verdict.detected,
    }
    if verdict.witness is not None:
        results["witness"] = _vector_json(verdict.witness)
    return results


@_command(
    "sn", "Schmidt-number certificate attempt", _STATE, _MAP,
    _arg("--t", type=int, required=True), _TOL,
)
def _sn(args, tol):
    rho = parse_state_spec(args.state_spec)
    cert = sn_certificate(rho, parse_map_spec(args.map_spec).rep, args.t, tol)
    return {
        "state": args.state_spec,
        "map": cert.map_label,
        "t": cert.t,
        "certified": cert.certified,
        "claim": cert.claim,
        "tPositive": cert.t_positive,
        "kposMinEig": cert.kpos_min_eig,
        "detectMinEig": cert.detect_min_eig,
        "reason": cert.reason,
    }


@_command(
    "family", "sampled detector family curve", _MAP, _STATE,
    _arg("--samples", type=int, required=True), _SEED, _TOL,
)
def _family(args, tol):
    rho = parse_state_spec(args.state_spec)
    entry = parse_map_spec(args.map_spec)
    family = sampled_detector(entry.rep, args.samples, check_seed(args.seed))
    # Point a is detect_with_family on the first a unitaries.
    curve, best = [], None
    for a, verdict in enumerate(family_verdicts(rho, family, tol), start=1):
        if best is None or verdict.min_eigenvalue < best.min_eigenvalue:
            best = verdict
        curve.append({"a": a, "minEig": best.min_eigenvalue, "detected": best.detected})
    return {
        "map": entry.rep.label,
        "state": args.state_spec,
        "samples": args.samples,
        "curve": curve,
    }


@_command(
    "scan", "positivity region over a parameter rectangle",
    _arg("--map", required=True, dest="map_name", choices=("collins", "collins3")), _N,
    _arg("--alpha", required=True, metavar="LO:HI:STEPS"),
    _arg("--beta", required=True, metavar="LO:HI:STEPS"),
    _arg("--gamma", type=float, default=0.0),
    _TOL,
)
def _scan(args, tol):
    gamma = args.gamma if args.map_name == "collins3" else None
    ranges = [_parse_range(args.alpha), _parse_range(args.beta)]
    check_work(ranges[0][2] * ranges[1][2], "scan grid points")  # before linspace allocates
    # A span that overflows gives non-finite grid values, which the scan refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        alphas, betas = [np.linspace(*r) for r in ranges]
    rows = positivity_scan(args.n, alphas, betas, gamma=gamma, tol=tol)
    return {"map": args.map_name, "n": args.n, "grid": rows}


@_command(
    "diagram", "wiring diagram of one basis element",
    _arg("--pi", required=True, metavar="CYCLES"), _A, _B, _FORMAT,
)
def _diagram(args, tol):
    perm = Permutation.from_cycles(args.pi, args.a + args.b + 1)
    d = wiring(perm, args.a, args.b)
    if args.format == "text":
        return render_text(d, title=f"pi={perm.cycle_string()}") + "\n"
    if args.format == "dot":
        return render_dot([(perm.cycle_string(), d)])
    return {
        "perm": perm.cycle_string(),
        "a": args.a,
        "b": args.b,
        "verified": verify_wiring(d, perm),
        "edges": _edges_json(d),
    }


def build_parser() -> _Parser:
    p = _Parser(prog="equimap", description="equivariant maps, positivity, detection")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, flags, _) in COMMANDS.items():
        q = sub.add_parser(name, help=help_text)
        for names, kwargs in flags:
            q.add_argument(*names, **kwargs)
    return p


def _run(args, tol: float):
    """Dispatch to the subcommand's handler: a results dict or raw text."""
    return COMMANDS[args.command][2](args, tol)


def _fold_range_values(argv):
    # argparse reads a value starting with "-" as a flag unless it is a
    # plain negative number, so a range ("-1:0:5") or an exponent
    # ("-1e-3") is folded onto its option with "=".
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in ("--alpha", "--beta", "--gamma") and nxt is not None and nxt.startswith("-"):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_range_values(list(argv)))
        tol = getattr(args, "tol", None)
        if tol is None and _TOL in COMMANDS[args.command][1]:
            tol = default_tol()
        out = _run(args, tol)
    except (_UsageError, ParameterError, CapacityError, FileNotFoundError, MemoryError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"parse error at byte offset {exc.pos}: {exc.msg}", file=sys.stderr)
        return 1
    except (ContractViolation, ShapeError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except (EquimapError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if isinstance(out, str):
        sys.stdout.write(out)
        return 0
    report = {
        "command": args.command,
        "params": {
            key: value
            for key, value in sorted(vars(args).items())
            if key != "command"
        },
        "seed": getattr(args, "seed", None),
        "results": out,
        "elapsedMs": (time.perf_counter() - started) * 1000.0,
        "version": __version__,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
