"""Shared test settings.

Property tests run under one registered hypothesis profile: derandomized,
so every run draws the same examples, with a bounded number of examples
and no per-example deadline (timings vary with the machine's load).

Every test, and every process a test starts, keeps matrixio's cache in a
temporary XDG_CACHE_HOME, never in the user's ~/.cache.  The fixture is
session-scoped: hypothesis refuses function-scoped fixtures in @given tests.
"""

import pytest
from hypothesis import settings

settings.register_profile("utamp", derandomize=True, max_examples=150, deadline=None, database=None)
settings.load_profile("utamp")


@pytest.fixture(scope="session", autouse=True)
def _private_cache_home(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
        yield
