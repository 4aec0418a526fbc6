"""On-disk content-addressed result cache.

Layout (one JSON file per completed run, sharded by fingerprint prefix)::

    <root>/
      runs/a3/a3f0…e9.json     completed SystemMetrics payloads
      litmus/41/41bc…77.json   litmus verdicts (repro.litmus)
      …                        any other namespace ("kind")

Keys are :meth:`repro.api.RunSpec.fingerprint` digests — pure parameter
addresses since fingerprint schema 2.  *Validity* under code change is
decided per entry: a payload carrying a ``deps`` map (``{subsystem:
content-hash}``, recorded by the usage probe that watched the original
run) is served only while every named subsystem's current hash
(:func:`repro.deps.subsystem_hashes`) still matches — so editing an eval
script leaves simulations warm, while editing ``arch/`` invalidates
exactly the entries that exercised the architecture.  Entries written
before dependencies were recorded carry only a whole-tree version
stamp (:data:`PRE_DEPS_KEY`) and are always stale: there is no longer a
whole-tree hash to check them against.  Entries with neither
(hand-rolled test payloads) are trusted as-is.
Stale entries count as misses (and into :attr:`ResultCache.stale` /
:attr:`ResultCache.stale_log` for delta reporting) and are overwritten
in place by the re-run — quarantine stays reserved for corruption.

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
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.deps import subsystem_hashes

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The whole-tree version stamp of entries that predate ``deps`` maps.
PRE_DEPS_KEY = "code_version"

#: What :attr:`ResultCache.stale_log` names as the stale "subsystem" of
#: such an entry.
PRE_DEPS_STALE = "<pre-deps>"

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
        #: (kind, fingerprint) -> {"subsystems": [...], "metrics": ...}
        #: for every stale refusal this session — the delta report reads
        #: this to explain *why* a spec re-ran and what it used to say.
        self.stale_log: Dict[Tuple[str, str], Dict[str, Any]] = {}

    # -- paths ---------------------------------------------------------------

    def path_for(self, fingerprint: str, kind: str = "runs") -> Path:
        return self.root / kind / fingerprint[:2] / f"{fingerprint}.json"

    # -- access --------------------------------------------------------------

    def get(self, fingerprint: str, kind: str = "runs") -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` (corrupt entries quarantined,
        dependency-stale entries counted and refused)."""
        path = self.path_for(fingerprint, kind)
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
            self.stale_log[(kind, fingerprint)] = {
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

        An entry with a ``deps`` map is checked subsystem by subsystem;
        one with only the pre-deps version stamp is always stale
        (reported as the pseudo-subsystem :data:`PRE_DEPS_STALE`); one
        with neither is trusted — there is nothing to validate against.
        """
        deps = payload.get("deps")
        if isinstance(deps, dict) and deps:
            current = subsystem_hashes()
            return sorted(
                name
                for name, stored in deps.items()
                if current.get(name) != stored
            )
        if PRE_DEPS_KEY in payload:
            return [PRE_DEPS_STALE]
        return []

    def put(self, fingerprint: str, payload: Dict[str, Any], kind: str = "runs") -> Path:
        """Atomically persist ``payload`` under ``fingerprint``."""
        path = self.path_for(fingerprint, kind)
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

    def entry_count(self, kind: str = "runs") -> int:
        base = self.root / kind
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry (all kinds); returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*/*/*.json"):
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
