"""A benchmark leftover: the inert :class:`UsageProbe`.

A run's dependencies are a function of its spec
(:func:`repro.api.spec_deps`); nothing records them while the run
executes.  No code enters this class.
"""

from __future__ import annotations


class UsageProbe:
    """Read by no code.  Kept only because the benchmark harness
    (perfbench/tracer.py) patches ``UsageProbe.__enter__`` and
    ``UsageProbe.__exit__`` on this class before its first traced pass;
    drop it with the next change to the benchmark."""

    def __enter__(self) -> "UsageProbe":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None
