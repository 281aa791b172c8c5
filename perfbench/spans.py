"""Span recorder for the traced run.

The package itself has no trace hooks yet, so the traced run wraps the
public functions of each layer where they are looked up: every attribute
of an ``equimap`` module that is bound to a wrapped function is rebound
to the wrapper, which covers both ``equimap.detect(...)`` from outside and
``extend_map(...)`` called from inside ``equimap.detection``.

A span is (id, name, start, end, parent, request).  Spans stay in memory
until the run ends.  Self time is a span's duration minus the time its
direct children cover; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, function) pairs whose calls become spans named module.function.
TRACED = {
    "choi": ("extend_map", "apply_map", "block_matrix"),
    "detection": (
        "detect", "sn_certificate", "family_block_minima",
        "detect_with_family", "parse_state_spec",
    ),
    "positivity": ("k_positivity", "positivity_profile", "k_positivity_falsify"),
    "linalg": ("hermitian_eig", "partial_transpose", "kron_all"),
    "perms": ("enumerate_sym", "gram_matrix", "sigma_rep"),
    "equivariant": (
        "basis_elements", "build_equivariant", "decompose_equivariant",
        "check_ab_equivariance",
    ),
    "zoo": ("parse_map_spec", "positivity_scan"),
    "serialize": ("load_json", "save_json", "matrix_from_json", "matrix_to_json"),
}
# Zoo constructors share one span name so their cost reads as one layer.
ZOO_CONSTRUCTORS = (
    "identity_map", "transpose_map", "bhat_map", "choi_map", "tomiyama_map",
    "collins_map", "collins3_map", "conjugation_map",
)
# Spans whose result size is recorded, as bytes computed from array shapes.
SIZED = ("choi.extend_map", "equivariant.basis_elements")


def _nbytes(result) -> int:
    if hasattr(result, "choi"):
        return int(result.choi.nbytes)
    if isinstance(result, tuple):
        return sum(int(getattr(x, "nbytes", 0)) for x in result)
    return int(getattr(result, "nbytes", 0))


class Recorder:
    """Collects spans of one process; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        sized = name in SIZED
        measure_dim = name == "linalg.hermitian_eig"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
            }
            if measure_dim:
                span["dim"] = int(getattr(args[0], "shape", (0,))[0])
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if sized:
                span["bytes"] = _nbytes(result)
            return result

        return traced

    def install(self) -> None:
        targets = []
        for module, names in TRACED.items():
            mod = importlib.import_module(f"equimap.{module}")
            targets += [(getattr(mod, fn), f"{module}.{fn}") for fn in names]
        zoo = importlib.import_module("equimap.zoo")
        targets += [(getattr(zoo, fn), "zoo.construct") for fn in ZOO_CONSTRUCTORS]
        wrappers = {id(fn): (fn, self.wrap(name, fn)) for fn, name in targets}
        for modname, mod in list(sys.modules.items()):
            if modname != "equimap" and not modname.startswith("equimap."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def merge(self, path: str) -> None:
        """Append the spans another process dumped to path, renumbered."""
        offset = len(self.spans)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                span["id"] += offset
                if span["parent"] is not None:
                    span["parent"] += offset
                self.spans.append(span)
        os.remove(path)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds of each span not covered by its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_stats(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, self seconds, computed bytes, largest dim; plus
    the zoo's commutator checks per outermost construction."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    stats: dict[str, dict] = {}
    for s in spans:
        st = stats.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "bytes": 0, "max_dim": 0})
        st["calls"] += 1
        st["self_s"] += own[s["id"]]
        st["bytes"] += s.get("bytes", 0)
        st["max_dim"] = max(st["max_dim"], s.get("dim", 0))

    def inside_construct(s) -> bool:
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == "zoo.construct":
                return True
            p = by_id[p]["parent"]
        return False

    constructions = sum(
        1 for s in spans if s["name"] == "zoo.construct" and not inside_construct(s)
    )
    verifies = sum(
        1 for s in spans
        if s["name"] == "equivariant.check_ab_equivariance" and inside_construct(s)
    )
    stats["zoo.verify_per_map"] = {"ratio": verifies / constructions if constructions else 0.0}
    return stats
