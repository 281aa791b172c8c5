"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the fixed end-to-end metrics, that a run
prints every metric BENCHMARK.json lists with its unit (and error_rate with
its counts), that a deliberately wrong reference answer raises error_rate,
and that the benchmark refuses to run without the program's sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import child  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"throughput_rps", "latency_p50_ms", "latency_tail_ms", "peak_rss_mib", "setup_s"}


def bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_declared():
    declared = {m["name"] for m in bench_json()["end_to_end"]}
    assert declared == END_TO_END, f"end_to_end metrics {sorted(declared)}"
    assert {w["name"] for w in bench_json()["workloads"]} <= set(run.WORKLOADS)


def check_printed(trace: int):
    key = "per_layer" if trace else "end_to_end"
    proc = run_bench("--workload", "zoo-scan", "--seed", "0", "--seconds", "2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in bench_json()[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{key}: missing {set(want) - set(got)}, extra {set(got) - set(want)}, " \
                        f"units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}"
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        note = " ".join(lines[:-1])
        assert "error_rate" in note and "attempted" in note and "latency_tail_ms is p" in note, note


def check_wrong_reference_counts():
    kind = next(k for k in workloads.zoo_scan() if k.name == "profile_tomiyama_n4")
    rng = np.random.default_rng(0)
    pools = {kind.name: [kind.make(rng) for _ in range(workloads.POOL)]}

    def error_rate():
        loop = child.Loop([kind], pools, np.random.default_rng(1))
        report = {"requests": loop.run(0.05)[0]}
        attempted, failed, correct = run.outcome(report)
        return failed / attempted, correct

    assert error_rate() == (0.0, True)
    true_max_k = reference.tomiyama_max_k
    reference.tomiyama_max_k = lambda n, lam: true_max_k(n, lam) + 1
    try:
        rate, correct = error_rate()
    finally:
        reference.tomiyama_max_k = true_max_k
    assert rate == 1.0 and not correct, (rate, correct)


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench("--workload", "zoo-scan", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    checks = {
        "declared metrics": check_declared,
        "wrong reference raises error_rate": check_wrong_reference_counts,
        "refuses without sources": check_refuses_without_sources,
        "end-to-end metrics printed with units": lambda: check_printed(0),
        "per-layer metrics printed with units": lambda: check_printed(1),
    }
    for name, check in checks.items():
        check()
        print("ok:", name, flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
