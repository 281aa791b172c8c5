"""The benchmark's span recorder looks functions up by name on the
equimap modules; a renamed or moved function would silently drop out of
the traced run, so every name it wraps must resolve."""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path executes the file without importing it as a module or
# writing bytecode next to it.
SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))

NAMES = [(module, fn) for module, fns in SPANS["TRACED"].items() for fn in fns]
NAMES += [("zoo", fn) for fn in SPANS["ZOO_CONSTRUCTORS"]]


@pytest.mark.parametrize("module,fn", NAMES, ids=[f"{m}.{f}" for m, f in NAMES])
def test_traced_name_resolves(module, fn):
    assert callable(getattr(importlib.import_module(f"equimap.{module}"), fn, None))
