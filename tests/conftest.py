"""Test-suite settings shared by every module.

One hypothesis profile: derandomized, so a property test draws the same
examples on every run; no deadline, because a draw's time depends on the
host; no example database, so no run depends on an earlier one.  Each
test's @settings then sets only max_examples.
"""

from hypothesis import settings

settings.register_profile("equimap", derandomize=True, deadline=None, database=None)
settings.load_profile("equimap")
