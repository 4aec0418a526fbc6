"""On-disk content-addressed result cache for simulations.

Layout (one JSON file per completed run, sharded by fingerprint prefix)::

    <root>/
      runs/a3/a3f0…e9.json     completed SystemMetrics payloads

Keys are :meth:`repro.api.RunSpec.fingerprint` digests — pure parameter
addresses since fingerprint schema 2.  *Validity* under code change is
decided per entry by one rule: a payload is served only when it carries
a non-empty ``deps`` map (``{subsystem: content-hash}`` over the
original run's :func:`repro.api.spec_deps`) whose every hash still
matches the current code (:func:`repro.deps.subsystem_hashes`) — so
editing an eval script leaves simulations warm, while editing ``arch/``
invalidates exactly the entries that exercised the architecture.  Any
other payload is stale, named by the pseudo-subsystem ``"<no-deps>"``.
Stale entries count as misses (and into :attr:`ResultCache.stale` /
:attr:`ResultCache.stale_log`, which the sweep engine reads to say why
a spec re-ran and what it used to measure) and are overwritten in place
by the re-run — quarantine stays reserved for corruption.

Writes are atomic (temp file + ``os.replace``); unreadable or torn
entries are *quarantined* (renamed to ``*.corrupt``) and treated as
misses, never crashes — this cache sits under crash-consistency
campaigns, so it had better survive its own torn writes.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.deps import subsystem_hashes

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default location, relative to the working directory.
DEFAULT_CACHE_DIR = os.path.join("results", ".sweep-cache")


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


class ResultCache:
    """Fingerprint-keyed JSON store with hit/miss/quarantine accounting."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        #: entries refused because a recorded dependency went stale.
        self.stale = 0
        #: fingerprint -> {"subsystems": [...], "metrics": ...} for each
        #: fingerprint whose latest :meth:`get` was a stale refusal — the
        #: sweep engine reads this to explain *why* a spec re-ran and
        #: what it used to say.
        self.stale_log: Dict[str, Dict[str, Any]] = {}

    # -- paths ---------------------------------------------------------------

    def path_for(self, fingerprint: str) -> Path:
        return self.root / "runs" / fingerprint[:2] / f"{fingerprint}.json"

    # -- access --------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` (corrupt entries quarantined,
        dependency-stale entries counted and refused)."""
        path = self.path_for(fingerprint)
        self.stale_log.pop(fingerprint, None)
        try:
            with open(path, "r") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError):
            self._quarantine(path)
            self.misses += 1
            return None
        stale = self._stale_subsystems(payload)
        if stale:
            self.stale += 1
            self.stale_log[fingerprint] = {
                "subsystems": stale,
                "metrics": payload.get("metrics"),
            }
            self.misses += 1
            return None
        self.hits += 1
        return payload

    @staticmethod
    def _stale_subsystems(payload: Dict[str, Any]) -> List[str]:
        """Which recorded dependencies no longer match the current code.

        An entry without a non-empty ``deps`` map has nothing that can
        vouch for it and is always stale, as ``["<no-deps>"]``.
        """
        deps = payload.get("deps")
        if not isinstance(deps, dict) or not deps:
            return ["<no-deps>"]
        current = subsystem_hashes()
        return sorted(
            name for name, stored in deps.items() if current.get(name) != stored
        )

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> Path:
        """Atomically persist ``payload`` under ``fingerprint``."""
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = dict(payload)
        record.setdefault("fingerprint", fingerprint)
        record.setdefault("created", time.time())
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{fingerprint[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable entry aside so the slot can be refilled."""
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass
        self.quarantined += 1

    # -- maintenance -----------------------------------------------------------

    def entry_count(self) -> int:
        return sum(1 for _ in (self.root / "runs").glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in (self.root / "runs").glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "stale": self.stale,
        }


def resolve_cache(
    cache: Union["ResultCache", str, Path, None, bool] = "default",
) -> Optional[ResultCache]:
    """Normalise a user-facing cache argument.

    ``"default"``/``True`` → cache at :func:`default_cache_dir`;
    ``None``/``False`` → caching disabled; a path → cache rooted there;
    a :class:`ResultCache` → itself.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    if cache == "default" or cache is True:
        return ResultCache(default_cache_dir())
    return ResultCache(cache)
