"""Satellite: concurrent-writer stress for the sweep result cache.

Two (and more) writer processes hammer the *same* shard — same
fingerprint prefix, including the exact same fingerprint — while readers
poll.  The atomic temp-file + ``os.replace`` protocol must guarantee:

* a reader never observes a torn payload (``get`` returning a dict with
  a writer's complete record, or a clean miss — never an exception, and
  never a quarantine);
* after the dust settles, each entry equals exactly one writer's final
  payload (last-rename-wins, no interleaving);
* no ``*.corrupt`` files and no leftover ``*.tmp`` litter.
"""

import json
import multiprocessing
import os

import pytest

from repro.deps import deps_token
from repro.sweep.cache import ResultCache

#: All fingerprints share the "ab" prefix: one shard directory, maximum
#: rename contention.
SAME_FP = "ab" + "e1" * 31
FP_POOL = [f"ab{i:02d}" + "0" * 60 for i in range(8)]

WRITES_PER_PROC = 120


def _hammer(root, writer_id, barrier):
    """Writer process: interleave same-key and pooled-key puts."""
    cache = ResultCache(root)
    barrier.wait()
    for i in range(WRITES_PER_PROC):
        payload = {
            "deps": deps_token(["core"]),
            "writer": writer_id,
            "iteration": i,
            # Bulk makes torn writes observable if renames weren't atomic.
            "bulk": [writer_id * 1000 + i] * 200,
        }
        cache.put(SAME_FP, payload)
        cache.put(FP_POOL[(writer_id + i) % len(FP_POOL)], payload)


def _spawn_writers(tmp_path, count):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(count)
    procs = [
        ctx.Process(target=_hammer, args=(str(tmp_path), wid, barrier))
        for wid in range(count)
    ]
    for p in procs:
        p.start()
    return procs


def _assert_payload_untorn(payload):
    """A complete record from exactly one writer — never a blend."""
    writer, iteration = payload["writer"], payload["iteration"]
    assert payload["bulk"] == [writer * 1000 + iteration] * 200


@pytest.mark.parametrize("writers", [2, 4])
def test_concurrent_writers_same_shard(tmp_path, writers):
    procs = _spawn_writers(tmp_path, writers)

    # Reader races the writers on the hot fingerprint.
    reader = ResultCache(tmp_path)
    observed = 0
    while any(p.is_alive() for p in procs):
        payload = reader.get(SAME_FP)
        if payload is not None:
            _assert_payload_untorn(payload)
            observed += 1
    for p in procs:
        p.join()
        assert p.exitcode == 0

    # The reader never quarantined anything: every read was a clean
    # miss or a complete record.
    assert reader.quarantined == 0

    # Final state: every entry is one writer's complete final payload.
    final = reader.get(SAME_FP)
    assert final is not None
    _assert_payload_untorn(final)
    assert final["iteration"] == WRITES_PER_PROC - 1
    for fp in FP_POOL:
        payload = reader.get(fp)
        if payload is not None:
            _assert_payload_untorn(payload)

    # No corruption quarantines, no temp-file litter.
    shard_dir = tmp_path / "runs"
    assert not list(shard_dir.rglob("*.corrupt"))
    assert not list(shard_dir.rglob("*.tmp"))
    assert observed > 0, "reader should have seen live writes"


def test_writer_crash_leaves_no_torn_entry(tmp_path):
    """Kill a writer mid-flight: the cache contains only whole records."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(1)
    victim = ctx.Process(target=_hammer, args=(str(tmp_path), 0, barrier))
    victim.start()
    # Let it write something, then pull the plug without cleanup.
    cache = ResultCache(tmp_path)
    while cache.get(SAME_FP) is None and victim.is_alive():
        pass
    victim.kill()
    victim.join()

    survivor = ResultCache(tmp_path)
    payload = survivor.get(SAME_FP)
    assert payload is not None
    _assert_payload_untorn(payload)
    assert survivor.quarantined == 0
    # Any orphaned temp file must never shadow a real entry.
    for path in (tmp_path / "runs").rglob("*.json"):
        _assert_payload_untorn(json.loads(path.read_text()))


def test_interprocess_visibility(tmp_path):
    """A put from a child process is immediately visible to the parent."""
    ctx = multiprocessing.get_context("fork")

    def _write(root):
        ResultCache(root).put(SAME_FP, {"deps": deps_token(["core"]),
                                        "writer": 7, "iteration": 0,
                                        "bulk": [7000] * 200})

    child = ctx.Process(target=_write, args=(str(tmp_path),))
    child.start()
    child.join()
    assert child.exitcode == 0
    got = ResultCache(tmp_path).get(SAME_FP)
    assert got is not None and got["writer"] == 7
