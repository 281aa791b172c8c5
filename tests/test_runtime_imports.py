"""The runtime is numpy-only.  scipy and others are installed next to
the package for tests and benchmarks, so an import of one of them in
src/ would pass every other test; a fresh interpreter shows it.  The
same interpreter shows that importing the package builds no table of
the coloured algebra: its caches fill at the first verdict."""

import functools
import json
import subprocess
import sys

# Modules without a __spec__ were not imported: numpy.random's Cython
# extensions put cython_runtime and _cython_<version> into sys.modules
# themselves.
CHILD = """
import json, sys
before = set(sys.modules)
import equimap
from equimap import (bell_state, collins_map, detect, k_positivity, k_positivity_falsify,
                     positivity_profile, positivity_scan)
from equimap.algebra import _frame, _table
cached = [_table.cache_info().currsize + _frame.cache_info().currsize]
rep = collins_map(4, 1.5, -0.5)
k_positivity(rep, 2)
cached.append(_table.cache_info().currsize)
positivity_profile(collins_map(8, 1.5, -0.5))
positivity_scan(3, [0.0, 1.0], [-1.0, 0.0])
detect(bell_state(4), rep)
k_positivity_falsify(rep, 4, trials=5)
imported = [name for name, module in sys.modules.items()
            if name not in before and getattr(module, "__spec__", None) is not None]
print(json.dumps({"modules": sorted({name.split(".")[0] for name in imported}),
                  "tables": cached}))
"""


@functools.cache
def _child() -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_a_profile_detect_and_falsify_import_only_numpy():
    imported = set(_child()["modules"])
    assert {"equimap", "numpy"} <= imported
    foreign = imported - {"equimap", "numpy"} - set(sys.stdlib_module_names)
    assert not foreign, sorted(foreign)


def test_import_builds_no_table():
    assert _child()["tables"] == [0, 1]
