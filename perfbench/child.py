"""One workload in one fresh process: set-up, then the closed loop.

Usage: python3 child.py --workload NAME --seed N --seconds S --trace 0|1
                        --src DIR --out DIR [--setup-only]

Set-up imports equimap, draws the inputs from the seed and runs one
warm-up request of every kind; the process then prints "READY" and the
monotonic clock, which the parent reads to time it.  With --setup-only
it stops there.  Otherwise one client sends each request after the last
one returned, in whole cycles, until the time spent inside equimap
reaches --seconds; with --trace 1 every second cycle is traced.  The last
stdout line is a JSON report of raw latencies and outcomes; run.py turns
it into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

CHECK_ERRORS_SHOWN = 5


def setup(workload: str, seed: int, src: str, out: str):
    import equimap
    import workloads

    if not os.path.realpath(equimap.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"equimap imported from {equimap.__file__}, not from {src}")
    runner = None
    if workload == "cli-mix":
        workdir = os.path.join(out, f"cli-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        runner = workloads.CliRunner(src, workdir)
        kinds = workloads.cli_mix(runner)
    else:
        kinds = workloads.WORKLOADS[workload]()
    rng = np.random.default_rng(seed)
    pools = {k.name: [k.make(rng) for _ in range(workloads.POOL)] for k in kinds}
    for k in kinds:
        try:
            k.check(pools[k.name][0], k.run(pools[k.name][0]))
        except Exception:  # warm-up only: the timed loop counts failures
            pass
    return kinds, pools, runner, rng


class Loop:
    """Runs whole cycles and keeps per-request outcomes."""

    def __init__(self, kinds, pools, rng, runner=None):
        self.kinds, self.pools, self.rng, self.runner = kinds, pools, rng, runner
        self.used = {k.name: 1 for k in kinds}
        self.cycle = [k for k in kinds for _ in range(k.weight)]
        self.names: list[str] = []  # kind of each request, by request id
        self.errors: list[str] = []

    def request(self, kind, recorder=None):
        x = self.pools[kind.name][self.used[kind.name] % len(self.pools[kind.name])]
        self.used[kind.name] += 1
        if recorder is not None:
            recorder.request = len(self.names)
        self.names.append(kind.name)
        t0 = time.perf_counter()
        try:
            out = kind.run(x)
            error = None
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        status = "raised" if error else "ok"
        if error is None:
            try:
                error = kind.check(x, out)
                status = "wrong" if error else "ok"
            except Exception as exc:  # no readable answer came back
                error, status = f"unreadable answer, {type(exc).__name__}: {exc}", "raised"
        if error is not None and len(self.errors) < CHECK_ERRORS_SHOWN:
            self.errors.append(f"{kind.name}: {error}")
        return [kind.name, latency, status]

    def run(self, seconds: float, min_cycles=1, recorder=None) -> tuple[list, list]:
        """Whole cycles, at least min_cycles, while the busy time stays
        nearest to `seconds`; returns (untraced, traced) requests.  With a
        recorder every second cycle is traced, so a drift in machine speed
        over the run falls on both halves alike."""
        plain, traced, busy, cycles = [], [], 0.0, 0
        while True:
            tracing = recorder is not None and cycles % 2 == 1
            if tracing:
                recorder.install()
                if self.runner is not None:
                    self.runner.recorder = recorder
            try:
                done = [self.request(self.cycle[i], recorder if tracing else None)
                        for i in self.rng.permutation(len(self.cycle))]
            finally:
                if tracing:
                    recorder.uninstall()
                    if self.runner is not None:
                        self.runner.recorder = None
            (traced if tracing else plain).extend(done)
            busy += sum(r[1] for r in done)
            cycles += 1
            if cycles >= min_cycles and busy + busy / cycles / 2 >= seconds:
                return plain, traced


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    kinds, pools, runner, rng = setup(args.workload, args.seed, args.src, args.out)
    print(f"READY {time.monotonic()!r}", flush=True)
    try:
        if not args.setup_only:
            print(json.dumps(measure(args, kinds, pools, runner, rng)), flush=True)
    finally:
        if runner is not None:
            shutil.rmtree(runner.workdir, ignore_errors=True)
    return 0


def measure(args, kinds, pools, runner, rng) -> dict:
    loop = Loop(kinds, pools, rng, runner)
    report = {}
    # Two cycles at least: the tail percentile then ranks in the same
    # request kind on a slow machine as on a fast one, and the traced run
    # has a traced cycle.
    if args.trace:
        from spans import Recorder, layer_stats

        rec = Recorder()
        plain, traced = loop.run(args.seconds, min_cycles=2, recorder=rec)
        spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
        rec.dump(spans_path)
        by_kind: dict = {}
        for span in rec.spans:
            by_kind.setdefault(loop.names[span["request"]], []).append(span)
        report.update(plain=plain, requests=traced, layers=layer_stats(rec.spans),
                      layers_by_kind={k: layer_stats(v) for k, v in by_kind.items()},
                      spans_file=spans_path)
    else:
        report["requests"] = loop.run(args.seconds, min_cycles=2)[0]
    if runner is not None:
        plain_calls = [c for c in runner.calls if not c["traced"]]
        startup = [c["wall_s"] * 1000 - c["elapsed_ms"] for c in plain_calls if c["elapsed_ms"] is not None]
        report["cli"] = {
            "startup_ms": statistics.median(startup) if startup else 0.0,
            "stdout_bytes": statistics.fmean(c["stdout_bytes"] for c in plain_calls),
        }
    report["errors"] = loop.errors
    usage = resource.RUSAGE_CHILDREN if runner is not None else resource.RUSAGE_SELF
    report["peak_rss_kib"] = resource.getrusage(usage).ru_maxrss
    return report


if __name__ == "__main__":
    sys.exit(main())
