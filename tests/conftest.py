"""Shared test settings.

Property tests run under one registered hypothesis profile: derandomized,
so every run draws the same examples, with a bounded number of examples
and no per-example deadline (timings vary with the machine's load).
"""

from hypothesis import settings

settings.register_profile("utamp", derandomize=True, max_examples=150, deadline=None, database=None)
settings.load_profile("utamp")
