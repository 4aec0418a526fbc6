"""Subsystem fingerprints + usage probes: dependency-aware invalidation.

``repro.deps`` answers two questions the result cache needs:

1. *What version is each part of the code at?* —
   :func:`subsystem_hashes` partitions the package into declared
   subsystems and content-hashes each (:mod:`repro.deps.fingerprint`).
2. *Which parts did this run actually use?* — :class:`UsageProbe` /
   :func:`touch` record the subsystems exercised by one execution
   (:mod:`repro.deps.probe`).

A cache entry stores ``deps_token(probe.subsystems())`` and stays valid
as long as those subsystems' hashes are unchanged.  Delta sweeps diff
the hashes against a git revision (:func:`changed_subsystems_since`)
to predict — and then verify — exactly which figures a change affects.
"""

from repro.deps.fingerprint import (
    SUBSYSTEM_SALT_ENV,
    SUBSYSTEMS,
    DepsError,
    changed_subsystems_since,
    deps_token,
    package_root,
    subsystem_for_module,
    subsystem_for_path,
    subsystem_hashes,
    subsystem_hashes_at_rev,
)
from repro.deps.probe import UsageProbe, touch

__all__ = [
    "SUBSYSTEM_SALT_ENV",
    "SUBSYSTEMS",
    "DepsError",
    "UsageProbe",
    "changed_subsystems_since",
    "deps_token",
    "package_root",
    "subsystem_for_module",
    "subsystem_for_path",
    "subsystem_hashes",
    "subsystem_hashes_at_rev",
    "touch",
]
