"""Version skew against the result cache reads as a clean miss.

The ResultCache memoises run-point summaries on disk, keyed by
``SCHEMA_VERSION``-stamped identity.  An old-on-disk/new-in-process
mismatch in either direction must degrade to a counted miss — never an
exception, and never a silently *served* stale entry.  The same applies
to the blunter failure modes every long-lived cache eventually meets:
truncated files and hand-edited entries.
"""

import json

import pytest

import repro.harness.runpoints as runpoints
from repro.harness.resultcache import ResultCache, point_key
from repro.harness.runpoints import RunPoint


@pytest.fixture
def point():
    return RunPoint.vm("gzip", budget=1000)


@pytest.fixture
def cache(tmp_path, point):
    cache = ResultCache(str(tmp_path))
    cache.put(point, {"committed": 42})
    return cache


def _entry_path(cache, point):
    return cache._path(point_key(point))


class TestResultCacheSkew:
    def test_schema_bump_is_clean_miss(self, cache, point, monkeypatch):
        assert cache.get(point) == {"committed": 42}
        monkeypatch.setattr(runpoints, "SCHEMA_VERSION",
                            runpoints.SCHEMA_VERSION + 1)
        fresh = ResultCache(cache.root)
        assert fresh.get(point) is None
        assert fresh.misses == 1
        assert fresh.corrupt == 0

    def test_schema_rollback_is_clean_miss(self, cache, point,
                                           monkeypatch):
        monkeypatch.setattr(runpoints, "SCHEMA_VERSION",
                            runpoints.SCHEMA_VERSION - 1)
        fresh = ResultCache(cache.root)
        assert fresh.get(point) is None
        assert fresh.misses == 1

    def test_truncated_entry_counts_corrupt(self, cache, point):
        path = _entry_path(cache, point)
        with open(path) as handle:
            content = handle.read()
        with open(path, "w") as handle:
            handle.write(content[: len(content) // 2])
        fresh = ResultCache(cache.root)
        assert fresh.get(point) is None
        assert fresh.corrupt == 1
        assert fresh.misses == 0

    def test_edited_identity_counts_corrupt(self, cache, point):
        # valid JSON whose stored identity no longer matches the point —
        # the hand-edited/hash-collision guard
        path = _entry_path(cache, point)
        with open(path) as handle:
            entry = json.load(handle)
        entry["point"]["budget"] += 1
        with open(path, "w") as handle:
            json.dump(entry, handle)
        fresh = ResultCache(cache.root)
        assert fresh.get(point) is None
        assert fresh.corrupt == 1

    def test_empty_entry_file_counts_corrupt(self, cache, point):
        with open(_entry_path(cache, point), "w"):
            pass
        fresh = ResultCache(cache.root)
        assert fresh.get(point) is None
        assert fresh.corrupt == 1
