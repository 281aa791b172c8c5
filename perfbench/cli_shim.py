"""Start `equimap.cli` with the traced run's wrappers installed.

Usage: PERFBENCH_SPANS=out.jsonl PERFBENCH_REQUEST=7 python3 cli_shim.py <cli args>

Behaves like `python -m equimap.cli <cli args>` and, on the way out,
writes the process's spans to PERFBENCH_SPANS, even when the command
dies with an uncaught exception.
"""

import os
import sys

import equimap.cli

from spans import Recorder

if __name__ == "__main__":
    rec = Recorder()
    rec.request = int(os.environ["PERFBENCH_REQUEST"])
    rec.install()
    try:
        code = rec.wrap("cli.main", equimap.cli.main)(sys.argv[1:])
    finally:
        rec.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)
