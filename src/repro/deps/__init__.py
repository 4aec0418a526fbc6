"""Subsystem fingerprints: dependency-aware invalidation.

:func:`subsystem_hashes` partitions the package into declared
subsystems and content-hashes each (:mod:`repro.deps.fingerprint`).
Which of them one run depends on is a function of its spec
(:func:`repro.api.spec_deps`).

A cache entry stores ``deps_token(result.deps)`` and stays valid as long
as those subsystems' hashes are unchanged; when one changes, the cache
names it, and every sweep reports which subsystems invalidated each spec
it re-ran (:class:`repro.sweep.engine.SpecStatus`).
"""

from repro.deps.fingerprint import (
    SUBSYSTEM_SALT_ENV,
    SUBSYSTEMS,
    deps_token,
    package_root,
    subsystem_for_path,
    subsystem_hashes,
)

__all__ = [
    "SUBSYSTEM_SALT_ENV",
    "SUBSYSTEMS",
    "deps_token",
    "package_root",
    "subsystem_for_path",
    "subsystem_hashes",
]
