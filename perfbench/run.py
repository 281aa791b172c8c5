"""equimap benchmark: four closed-loop workloads, end-to-end metrics and a
separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload detect-ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

BENCHMARK.json gates three of the workloads.  basis-roundtrip runs here
and in its traced run, but it is not gated: two 1 GiB-scale requests fill
most of each of its cycles, and its medians moved by more than the bounds
between two sets of runs of the same code.

Run from the root of a checkout; equimap is imported from its src/.
Each workload runs in fresh child processes (child.py), so memory is per
workload.  With --trace 0 the last stdout line holds the end-to-end
metrics: throughput, median and tail latency, peak RSS and set-up time
(the median of SETUPS set-ups, each in its own process).  With --trace 1
it holds the per-layer metrics of BENCHMARK.json.  Every answer is
checked; `failed` counts requests that raised or answered wrongly, and
`correct` is false only when a returned answer disagreed with its
reference.  End-to-end metrics never come from a traced process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("detect-ladder", "basis-roundtrip", "zoo-scan", "cli-mix")
SETUPS = 3
# One BLAS thread (at most nproc): on a 2-vCPU VM, two OpenBLAS threads
# doubled the run-to-run spread of throughput and tail latency.
BLAS_THREADS = 1
DEADLINE_S = 170.0
TAIL_BEYOND = 10

# Request kinds that reproduce ROADMAP's baseline table.
ROWS = {
    "detect_n8": "detect_bell_n8",
    "family_n6x50": "family_bell_n6x50",
    "gram_6_via_223": "roundtrip_223",
    "basis_422": "roundtrip_422",
    "equiv_412x20": "equiv_412x20",
    "scan_3_9x9": "scan_collins_n3_9x9",
    "cli_kpos": "cli_kpos",
}
LAYER_STATS = {
    "choi.extend_map": ("calls", "self_ms", "bytes"),
    "choi.apply_map": ("self_ms",),
    "choi.block_matrix": ("self_ms",),
    **{f"detection.{f}": ("calls", "self_ms") for f in (
        "detect", "sn_certificate", "family_block_minima", "detect_with_family",
        "parse_state_spec")},
    **{f"positivity.{f}": ("calls", "self_ms") for f in (
        "k_positivity", "positivity_profile", "k_positivity_falsify")},
    "linalg.hermitian_eig": ("calls", "self_ms", "max_dim"),
    "linalg.partial_transpose": ("calls", "self_ms"),
    "linalg.kron_all": ("calls", "self_ms"),
    **{f"perms.{f}": ("calls", "self_ms") for f in ("enumerate_sym", "gram_matrix", "sigma_rep")},
    "equivariant.basis_elements": ("calls", "self_ms", "bytes"),
    **{f"equivariant.{f}": ("calls", "self_ms") for f in (
        "build_equivariant", "decompose_equivariant", "check_ab_equivariance")},
    "zoo.parse_map_spec": ("calls", "self_ms"),
    "zoo.positivity_scan": ("calls", "self_ms"),
    "zoo.construct": ("calls", "self_ms"),
    **{f"serialize.{f}": ("calls", "self_ms") for f in (
        "load_json", "save_json", "matrix_from_json", "matrix_to_json")},
}
STAT_UNITS = {"calls": "calls/req", "self_ms": "ms/req", "bytes": "computed_B/req", "max_dim": "dim"}


def machine() -> dict:
    """Hardware and software the numbers were measured on."""
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor() or "unknown"
    caches = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(caches)) if os.path.isdir(caches) else []:
        try:
            with open(os.path.join(caches, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(caches, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info[f"L{level}"] = size
    probe = ("import json, numpy; cfg = numpy.show_config(mode='dicts'); "
             "print(json.dumps([numpy.__version__, "
             "cfg['Build Dependencies']['blas'].get('version', '?')]))")
    try:
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, timeout=60, check=True).stdout
        info["numpy"], info["openblas"] = json.loads(out)
    except (subprocess.SubprocessError, ValueError, KeyError):
        info["numpy"] = info["openblas"] = "unknown"
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    info["git_sha"] = sha
    return info


def child_env() -> dict:
    threads = str(BLAS_THREADS)
    return dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


class ChildFailed(Exception):
    pass


def spawn(workload, seed, seconds, trace, deadline, setup_only=False):
    """Run child.py to completion; return (set-up seconds, report or None).

    The child prints "READY <monotonic clock>" when set-up ends; set-up
    time runs from just before the process starts until then.  The child
    gets its own process group, so a timeout also stops the CLI processes
    it started."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--src", SRC, "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildFailed(f"{workload} child overran the {DEADLINE_S:.0f} s deadline") from None
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise ChildFailed(f"{workload} child exited with code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - t0
    return setup_s, None if setup_only else json.loads(lines[-1])


def latency_stats(requests: list) -> dict:
    """Median latency, the highest percentile with TAIL_BEYOND samples
    beyond it, and throughput: requests per second spent inside equimap
    over the whole run.  The host's speed switches between states every
    few seconds; a whole-run ratio moves smoothly with the share of slow
    time, where a median over a few cycles jumps between the states."""
    ms = sorted(r[1] * 1000.0 for r in requests)
    n = len(ms)
    if n > TAIL_BEYOND:
        tail, pct, beyond = ms[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    else:
        tail, pct, beyond = ms[-1], 100.0, 0
    return {"p50": statistics.median(ms), "tail": tail, "tail_pct": pct,
            "tail_beyond": beyond, "samples": n, "throughput": n / sum(r[1] for r in requests)}


def outcome(report: dict) -> tuple[int, int, bool]:
    """(attempted, failed, correct): a request fails when it raised or
    answered wrongly; only a wrong answer makes the run incorrect."""
    statuses = [r[2] for r in report.get("plain", []) + report["requests"]]
    failed = sum(1 for s in statuses if s != "ok")
    return len(statuses), failed, "wrong" not in statuses


def by_kind(requests: list) -> dict:
    kinds: dict = {}
    for name, latency, *_ in requests:
        kinds.setdefault(name, []).append(latency * 1000.0)
    return {k: statistics.median(v) for k, v in kinds.items()}


def end_to_end(workload, seed, seconds) -> tuple[dict, dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn(workload, seed, seconds, 0, deadline, setup_only=True)[0]
              for _ in range(SETUPS - 1)]
    setup_s, report = spawn(workload, seed, seconds, 0, deadline)
    setups.append(setup_s)
    lat = latency_stats(report["requests"])
    metrics = {
        "throughput_rps": (lat["throughput"], "req/s"),
        "latency_p50_ms": (lat["p50"], "ms"),
        "latency_tail_ms": (lat["tail"], "ms"),
        "peak_rss_mib": (report["peak_rss_kib"] / 1024.0, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    attempted, failed, _ = outcome(report)
    notes = [
        f"latency_tail_ms is p{lat['tail_pct']:.1f} of {lat['samples']} samples "
        f"({lat['tail_beyond']} beyond it)",
        f"error_rate {failed / attempted:.4f} = {failed} failed / {attempted} attempted",
        f"set-ups {', '.join('%.3f' % s for s in setups)} s",
        "per kind (median ms): " + ", ".join(
            f"{k} {v:.1f}" for k, v in by_kind(report["requests"]).items()),
    ]
    return metrics, report, notes


def per_layer(workload, seed, seconds) -> tuple[dict, dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    _, report = spawn(workload, seed, seconds, 1, deadline)
    reqs = len(report["requests"])
    layers = report["layers"]
    metrics = {}
    for name, stats in LAYER_STATS.items():
        got = layers.get(name, {})
        for stat in stats:
            value = got.get("self_s", 0.0) * 1000.0 if stat == "self_ms" else got.get(stat, 0)
            metrics[f"{name}.{stat}"] = (value if stat == "max_dim" else value / reqs, STAT_UNITS[stat])
    metrics["zoo.verify_per_map"] = (layers["zoo.verify_per_map"]["ratio"], "ratio")
    cli = report.get("cli", {"startup_ms": 0.0, "stdout_bytes": 0.0})
    metrics["cli.startup_ms"] = (cli["startup_ms"], "ms/call")
    metrics["cli.stdout_bytes"] = (cli["stdout_bytes"], "B/req")
    plain, traced = latency_stats(report["plain"]), latency_stats(report["requests"])
    metrics["trace_overhead"] = (traced["throughput"] / plain["throughput"], "ratio")
    busy = sorted(((v, k) for k, (v, _) in metrics.items() if k.endswith(".self_ms")), reverse=True)
    notes = [f"spans in {os.path.relpath(report['spans_file'], ROOT)}",
             "top self time (ms/req): " + ", ".join(f"{k[:-8]} {v:.2f}" for v, k in busy[:6]),
             *rows(report)]
    return metrics, report, notes


def rows(report: dict) -> list[str]:
    """ROADMAP's baseline rows found in this workload: untraced median
    latency and the layers with the most self time in that request kind."""
    plain = by_kind(report["plain"])
    lines = []
    for row, kind in ROWS.items():
        layers = report["layers_by_kind"].get(kind)
        if kind not in plain or layers is None:
            continue
        calls = sum(1 for r in report["requests"] if r[0] == kind)
        top = sorted(((st["self_s"], name) for name, st in layers.items() if "self_s" in st),
                     reverse=True)[:4]
        lines.append(f"row {row} ({kind}): {plain[kind]:.1f} ms median untraced; self ms/req "
                     + ", ".join(f"{name} {1000 * t / calls:.1f}" for t, name in top))
    return lines


def measure(workload, seed, seconds, trace) -> tuple[dict, list[str]]:
    """One workload: the result object of the last stdout line, and notes
    (tail percentile, error counts, failures, per-layer highlights)."""
    metrics, report, notes = (per_layer if trace else end_to_end)(workload, seed, seconds)
    notes += [f"failed: {err}" for err in report["errors"]]
    attempted, failed, correct = outcome(report)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, notes


def run_one(workload, seed, seconds, trace) -> int:
    print("# machine " + json.dumps(machine()), flush=True)
    result, notes = measure(workload, seed, seconds, trace)
    for line in notes:
        print(f"# {workload}: {line}")
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed, seconds) -> int:
    """Every workload, untraced then traced; a table and a results file."""
    info = machine()
    print("# machine " + json.dumps(info), flush=True)
    results = {"machine": info, "seed": seed, "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        print(f"\n{w}")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, notes = measure(w, seed, seconds, trace)
            shown = result["metrics"].items() if not trace else [
                ("trace_overhead", result["metrics"]["trace_overhead"])]
            for name, m in shown:
                print(f"  {name:18s} {m['value']:12.4f} {m['unit']}")
            for line in notes:
                print("  " + line)
            results["workloads"].setdefault(w, {})[key] = result | {"notes": notes}
        sys.stdout.flush()
    path = os.path.join(OUT, f"bench-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    print(f"\nwrote {path}")
    runs = [r for w in results["workloads"].values() for r in w.values()]
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "results_file": os.path.relpath(path, ROOT)}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so spawn() stops the child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "equimap", "__init__.py")):
        print(f"perfbench: no equimap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
