"""``repro.trace`` — columnar trace capture + crash-point replay.

Capture one golden interpreted run into a structure-of-arrays
:class:`ExecTrace` (:mod:`repro.trace.record`) and drive the
arch/persistence/checker layers straight from the columns to each crash
point (:mod:`repro.trace.replay`) — the crash source,
:class:`TraceCampaignSource`, behind every fault campaign
(:mod:`repro.fault.campaign`).  Traces live only in memory: each
source captures its own from the program it is built from.  Crash-free
runs are always interpreted.
"""

from repro.trace.record import ExecTrace, TraceRecorder, capture_trace
from repro.trace.replay import TraceCampaignSource, build_replay_system

__all__ = [
    "ExecTrace",
    "TraceRecorder",
    "capture_trace",
    "TraceCampaignSource",
    "build_replay_system",
]
