"""Tests for the on-disk content-addressed result cache."""

import json
import os

from repro.deps import deps_token
from repro.sweep.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    default_cache_dir,
    resolve_cache,
)

FP = "ab" + "0" * 62


def entry(**fields):
    """A hand-made payload the cache will serve: it carries a deps map."""
    return {"deps": deps_token(["core"]), **fields}


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(FP, entry(metrics={"exec_cycles": 123.5}))
    got = cache.get(FP)
    assert got["metrics"] == {"exec_cycles": 123.5}
    assert got["fingerprint"] == FP
    assert cache.hits == 1 and cache.misses == 0 and cache.stores == 1


def test_miss_counts(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(FP) is None
    assert cache.misses == 1 and cache.hits == 0


def test_sharded_layout(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(FP, entry(x=1))
    expected = tmp_path / "runs" / FP[:2] / f"{FP}.json"
    assert expected.is_file()
    assert cache.path_for(FP) == expected
    assert json.loads(expected.read_text())["x"] == 1


def test_corrupt_entry_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(FP, entry(x=1))
    path = cache.path_for(FP)
    with open(path, "w") as fh:
        fh.write("{ not json !!!")
    assert cache.get(FP) is None  # treated as a miss, no exception
    assert cache.quarantined == 1
    assert not os.path.exists(path)
    assert os.path.exists(f"{path}.corrupt")
    # The slot is refillable after quarantine.
    cache.put(FP, entry(x=2))
    assert cache.get(FP)["x"] == 2


def test_entry_count_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(3):
        cache.put(f"{i:02x}" + "0" * 62, entry(i=i))
    assert cache.entry_count() == 3
    cache.clear()
    assert cache.entry_count() == 0


def test_stats_summary(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(FP, entry(x=1))
    cache.get(FP)
    cache.get("cd" + "0" * 62)
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_resolve_cache_variants(tmp_path, monkeypatch):
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    existing = ResultCache(tmp_path)
    assert resolve_cache(existing) is existing
    explicit = resolve_cache(str(tmp_path / "sub"))
    assert str(explicit.root) == str(tmp_path / "sub")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
    assert str(default_cache_dir()) == str(tmp_path / "env")
    for sentinel in ("default", True):
        resolved = resolve_cache(sentinel)
        assert str(resolved.root) == str(tmp_path / "env")
