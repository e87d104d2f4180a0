"""Test-session hygiene for the persistent run cache.

The disk cache deliberately survives across invocations — exactly what a
test run must NOT rely on (a stale record written by an older working
tree would mask a cost-model change).  Point the whole session at a
throwaway directory instead; tests that need to inspect cache behaviour
override ``REPRO_CACHE_DIR`` themselves.
"""

import pytest

from repro.core import runcache, store
from repro.core.sweeps import clear_caches


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("runcache")
    store_dir = tmp_path_factory.mktemp("store")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(root))
    mp.setenv("REPRO_STORE_PATH", str(store_dir / "store.sqlite"))
    mp.delenv("REPRO_JOBS", raising=False)
    runcache.reset_disk_cache()
    store.reset_result_store()
    yield
    mp.undo()
    runcache.reset_disk_cache()
    store.reset_result_store()
    clear_caches()
