"""Every in-process request kind of the benchmark's detect-ladder and
zoo-scan workloads answers right: a change that the benchmark would count
as a wrong answer fails here first.  cli-mix kinds start processes and
are left out."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# run_path executes workloads.py without importing it as a module; its
# `import reference` needs perfbench/ on the path, and no bytecode is
# written next to either file.
sys.path.insert(0, str(PERFBENCH))
_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
try:
    WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))
finally:
    sys.dont_write_bytecode = _dont_write
    sys.path.remove(str(PERFBENCH))

KINDS = [kind for name in ("detect_ladder", "zoo_scan") for kind in WORKLOADS[name]()]


@pytest.mark.parametrize("kind", KINDS, ids=[kind.name for kind in KINDS])
def test_kind_answers_right(kind):
    x = kind.make(np.random.default_rng(0))
    assert kind.check(x, kind.run(x)) is None
