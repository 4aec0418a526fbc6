"""Subsystem-granularity content fingerprints.

The package is partitioned into declared *subsystems* — compiler, arch,
check, workloads, trace, fault, litmus, eval glue, plus a ``core`` of
shared plumbing — and each gets one sha256 content hash over its source
files.  Cache entries (:mod:`repro.sweep.cache`) record the subsystem
hashes their run actually depended on (:mod:`repro.deps.probe`), so a
source change invalidates exactly the dependent entries instead of the
whole cache: editing an eval script leaves every simulation warm, while
editing ``arch/`` re-runs only the runs that exercised the architecture.

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

Delta sweeps (``repro sweep --since <rev>``) compare the working tree's
hashes against :func:`subsystem_hashes_at_rev`, which reads blobs
straight out of git (``ls-tree`` + ``cat-file --batch``) and hashes them
byte-identically to the working-tree scan.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
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
    "fault",
    "litmus",
    "trace",
    "workloads",
)

#: First path component under ``src/repro`` -> subsystem.
_DIR_MAP: Dict[str, str] = {
    "ir": "compiler",
    "compiler": "compiler",
    "arch": "arch",
    "check": "check",
    "workloads": "workloads",
    "trace": "trace",
    "fault": "fault",
    "litmus": "litmus",
    "eval": "eval",
    "sweep": "eval",  # engine/cache/CLI glue: orchestration, not semantics
    "isa": "core",  # the functional machine: everything executes on it
    "deps": "core",
}

#: Top-level files that are not ``core`` plumbing.
_FILE_MAP: Dict[str, str] = {
    "jsonout.py": "eval",  # CLI output convention: never affects results
}


class DepsError(RuntimeError):
    """Subsystem hashing failed (typically: git unavailable / bad rev)."""


def package_root() -> Path:
    """The installed ``repro`` package directory (``…/src/repro``)."""
    return Path(__file__).resolve().parent.parent


def subsystem_for_path(relpath: str) -> str:
    """Subsystem owning ``relpath`` (POSIX, relative to the package root)."""
    parts = relpath.split("/")
    if len(parts) == 1:
        return _FILE_MAP.get(parts[0], "core")
    return _DIR_MAP.get(parts[0], "core")


def subsystem_for_module(module_name: str) -> Optional[str]:
    """Subsystem owning a dotted module name, or ``None`` if foreign.

    ``repro.arch.nvm`` -> ``"arch"``; ``repro.api`` -> ``"core"``;
    ``json`` -> ``None``.
    """
    parts = module_name.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return "core"
    sub = _DIR_MAP.get(parts[1])
    if sub is not None:
        return sub
    return _FILE_MAP.get(parts[1] + ".py", "core")


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


def _bucketed(files: Iterable[Tuple[str, bytes]]) -> Dict[str, str]:
    buckets: Dict[str, List[Tuple[str, bytes]]] = {s: [] for s in SUBSYSTEMS}
    for relpath, content in sorted(files):
        buckets[subsystem_for_path(relpath)].append((relpath, content))
    return {name: _digest(entries) for name, entries in buckets.items()}


def _scan_tree(root: Path) -> Dict[str, str]:
    return _bucketed(
        (path.relative_to(root).as_posix(), path.read_bytes())
        for path in root.rglob("*.py")
    )


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


# ---------------------------------------------------------------------------
# git: subsystem hashes at a revision
# ---------------------------------------------------------------------------

def _git(args: List[str], cwd: Path, input_bytes: Optional[bytes] = None) -> bytes:
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=str(cwd),
            input=input_bytes,
            capture_output=True,
            check=True,
        )
    except FileNotFoundError as err:
        raise DepsError("git executable not found") from err
    except subprocess.CalledProcessError as err:
        detail = err.stderr.decode(errors="replace").strip()
        raise DepsError(f"git {' '.join(args[:2])} failed: {detail}") from err
    return proc.stdout


def _repo_root(package: Path) -> Path:
    out = _git(["rev-parse", "--show-toplevel"], cwd=package)
    return Path(out.decode().strip())


def subsystem_hashes_at_rev(
    rev: str,
    repo_root: Optional[Path] = None,
    package: Optional[Path] = None,
) -> Dict[str, str]:
    """Subsystem hashes of the package as committed at git ``rev``.

    Reads blobs directly from the object store (no checkout) and hashes
    them with the exact byte recipe of the working-tree scan, so equal
    trees produce equal hashes.  Raises :class:`DepsError` when git or
    the revision is unavailable.
    """
    package = Path(package) if package is not None else package_root()
    root = Path(repo_root) if repo_root is not None else _repo_root(package)
    prefix = package.resolve().relative_to(root.resolve()).as_posix()

    listing = _git(["ls-tree", "-r", "-z", rev, "--", prefix], cwd=root)
    entries: List[Tuple[str, str]] = []  # (oid, relpath-within-package)
    for record in listing.split(b"\0"):
        if not record:
            continue
        header, _, path = record.partition(b"\t")
        fields = header.split()
        if len(fields) != 3 or fields[1] != b"blob":
            continue
        relpath = path.decode()
        if not relpath.endswith(".py"):
            continue
        if prefix and relpath.startswith(prefix + "/"):
            relpath = relpath[len(prefix) + 1:]
        entries.append((fields[2].decode(), relpath))

    if not entries:
        return _bucketed([])

    batch_input = "".join(oid + "\n" for oid, _ in entries).encode()
    blob = _git(["cat-file", "--batch"], cwd=root, input_bytes=batch_input)
    files: List[Tuple[str, bytes]] = []
    pos = 0
    for oid, relpath in entries:
        nl = blob.index(b"\n", pos)
        header = blob[pos:nl].split()
        if len(header) < 3 or header[1] != b"blob":
            raise DepsError(f"unexpected cat-file record for {oid}: {header!r}")
        size = int(header[2])
        start = nl + 1
        files.append((relpath, blob[start:start + size]))
        pos = start + size + 1  # trailing newline after each blob
    return _bucketed(files)


def changed_subsystems_since(
    rev: str,
    repo_root: Optional[Path] = None,
    package: Optional[Path] = None,
) -> List[str]:
    """Subsystems whose hash differs between ``rev`` and the present.

    "The present" means :func:`subsystem_hashes` — the working tree with
    the salt override applied — matching exactly what cache
    validation compares entries against, so a delta sweep's re-run set
    agrees with what the cache will actually miss on.
    """
    old = subsystem_hashes_at_rev(rev, repo_root=repo_root, package=package)
    new = subsystem_hashes() if package is None else subsystem_hashes(package)
    return sorted(
        name for name in SUBSYSTEMS if old.get(name) != new.get(name)
    )
