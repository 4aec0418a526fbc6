"""Subsystem fingerprints + usage probes: dependency-aware invalidation.

``repro.deps`` answers two questions the result cache needs:

1. *What version is each part of the code at?* —
   :func:`subsystem_hashes` partitions the package into declared
   subsystems and content-hashes each (:mod:`repro.deps.fingerprint`).
2. *Which parts did this run actually use?* — :class:`UsageProbe` /
   :func:`touch` record the subsystems exercised by one execution
   (:mod:`repro.deps.probe`).

A cache entry stores ``deps_token(probe.subsystems())`` and stays valid
as long as those subsystems' hashes are unchanged; when one changes, the
cache names it, and every sweep reports which subsystems invalidated
each spec it re-ran (:class:`repro.sweep.engine.SpecStatus`).
"""

from repro.deps.fingerprint import (
    SUBSYSTEM_SALT_ENV,
    SUBSYSTEMS,
    deps_token,
    package_root,
    subsystem_for_module,
    subsystem_for_path,
    subsystem_hashes,
)
from repro.deps.probe import UsageProbe, touch

__all__ = [
    "SUBSYSTEM_SALT_ENV",
    "SUBSYSTEMS",
    "UsageProbe",
    "deps_token",
    "package_root",
    "subsystem_for_module",
    "subsystem_for_path",
    "subsystem_hashes",
    "touch",
]
