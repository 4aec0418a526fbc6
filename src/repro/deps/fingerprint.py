"""Subsystem-granularity content fingerprints.

The package is partitioned into declared *subsystems* — compiler, arch,
check, workloads, eval glue, plus a ``core`` of shared plumbing — and
each gets one sha256 content hash over its source files.  Only a
subsystem some run can depend on is declared; code no simulation
depends on (the crash, litmus and trace drivers among it) hashes into
``eval``.  Cache entries (:mod:`repro.sweep.cache`) record the hashes of
the subsystems their run depends on (:func:`repro.api.spec_deps`), so a
source change invalidates exactly the dependent entries instead of the
whole cache: editing an eval script leaves every simulation warm, while
editing ``compiler/`` re-runs only the instrumented runs.

The partition is *path-prefix declared*, not inferred: every ``.py``
file under ``src/repro`` maps to exactly one subsystem via
:func:`subsystem_for_path` (unmatched files land in ``core``, the
implicit dependency of every run — safe by construction: a file nobody
classified invalidates everything that ran).

Environment knob (honoured by :func:`subsystem_hashes`):

``REPRO_SUBSYSTEM_SALT``
    ``"arch=x,eval=y"`` mixes a salt into the named subsystems only.
    Tests use it to simulate a source edit in one subsystem without
    touching files; naming every subsystem invalidates everything.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: ``"name=salt,name=salt"`` — perturb named subsystem hashes (tests).
SUBSYSTEM_SALT_ENV = "REPRO_SUBSYSTEM_SALT"

#: Every declared subsystem, in stable order.
SUBSYSTEMS: Tuple[str, ...] = (
    "arch",
    "check",
    "compiler",
    "core",
    "eval",
    "workloads",
)

#: First path component under ``src/repro`` -> subsystem.
_DIR_MAP: Dict[str, str] = {
    "compiler": "compiler",
    "arch": "arch",
    "check": "check",
    "workloads": "workloads",
    "trace": "eval",  # crash sources and replay: read by no RunSpec run
    "fault": "eval",
    "litmus": "eval",
    "eval": "eval",
    "sweep": "eval",  # engine/cache/CLI glue: orchestration, not semantics
    "ir": "core",  # every run builds its program in IR and executes it
    "isa": "core",  # the functional machine: everything executes on it
    "deps": "core",
}

#: Top-level files that are not ``core`` plumbing.
_FILE_MAP: Dict[str, str] = {
    "jsonout.py": "eval",  # CLI output convention: never affects results
}


def package_root() -> Path:
    """The installed ``repro`` package directory (``…/src/repro``)."""
    return Path(__file__).resolve().parent.parent


def subsystem_for_path(relpath: str) -> str:
    """Subsystem owning ``relpath`` (POSIX, relative to the package root)."""
    parts = relpath.split("/")
    if len(parts) == 1:
        return _FILE_MAP.get(parts[0], "core")
    return _DIR_MAP.get(parts[0], "core")


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def _digest(entries: Iterable[Tuple[str, bytes]]) -> str:
    digest = hashlib.sha256()
    for relpath, content in entries:
        digest.update(relpath.encode())
        digest.update(b"\0")
        digest.update(content)
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _scan_tree(root: Path) -> Dict[str, str]:
    files = sorted(
        (path.relative_to(root).as_posix(), path.read_bytes())
        for path in root.rglob("*.py")
    )
    buckets: Dict[str, List[Tuple[str, bytes]]] = {s: [] for s in SUBSYSTEMS}
    for relpath, content in files:
        buckets[subsystem_for_path(relpath)].append((relpath, content))
    return {name: _digest(entries) for name, entries in buckets.items()}


def _parse_salt(raw: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, salt = item.partition("=")
        out[name.strip()] = salt
    return out


def _apply_salt(
    hashes: Dict[str, str], salt_raw: Optional[str]
) -> Dict[str, str]:
    if salt_raw:
        hashes = dict(hashes)
        for name, salt in _parse_salt(salt_raw).items():
            if name in hashes:
                hashes[name] = hashlib.sha256(
                    f"{hashes[name]}:{salt}".encode()
                ).hexdigest()[:16]
    return hashes


#: memo: REPRO_SUBSYSTEM_SALT -> hashes
_HASHES: Dict[Optional[str], Dict[str, str]] = {}
_TREE_HASHES: Optional[Dict[str, str]] = None


def subsystem_hashes(package: Optional[Path] = None) -> Dict[str, str]:
    """Current content hash per subsystem (``{name: 16-hex}``).

    With no argument, hashes the installed package with the salt
    override applied, memoised per salt environment — the
    hot path for cache validation.  An explicit ``package`` path hashes
    that tree raw (tests point this at synthetic packages).
    """
    if package is not None:
        return _scan_tree(Path(package))
    global _TREE_HASHES
    salt_raw = os.environ.get(SUBSYSTEM_SALT_ENV)
    cached = _HASHES.get(salt_raw)
    if cached is None:
        if _TREE_HASHES is None:
            _TREE_HASHES = _scan_tree(package_root())
        cached = _HASHES[salt_raw] = _apply_salt(_TREE_HASHES, salt_raw)
    return cached


def deps_token(names: Iterable[str]) -> Dict[str, str]:
    """The validity token a cache entry stores: ``{subsystem: hash}``."""
    hashes = subsystem_hashes()
    return {name: hashes[name] for name in sorted(set(names)) if name in hashes}
