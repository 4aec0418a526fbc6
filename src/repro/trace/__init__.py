"""``repro.trace`` — columnar trace capture + crash-point replay.

Capture one golden interpreted run into a structure-of-arrays
:class:`ExecTrace` (:mod:`repro.trace.record`), persist it in the sweep
result cache through a versioned, checksummed codec
(:mod:`repro.trace.codec`), and drive the arch/persistence/checker
layers straight from the columns to each crash point
(:mod:`repro.trace.replay`) — the crash source behind every fault
campaign (:mod:`repro.fault.campaign`) and the ``repro trace`` CLI
(:mod:`repro.trace.cli`).  Crash-free runs are always interpreted.
"""

from repro.trace.codec import (
    TRACE_CACHE_KIND,
    TRACE_CODEC_VERSION,
    TraceDecodeError,
    TraceVersionError,
    decode_trace,
    encode_trace,
    load_trace,
    store_trace,
)
from repro.trace.record import (
    ExecTrace,
    TraceRecorder,
    capture_spec_trace,
    capture_trace,
    load_spec_trace,
    trace_fingerprint,
)
from repro.trace.replay import (
    TraceCampaignSource,
    TraceCursor,
    build_replay_system,
    golden_from_trace,
)

__all__ = [
    "ExecTrace",
    "TraceRecorder",
    "capture_trace",
    "capture_spec_trace",
    "load_spec_trace",
    "trace_fingerprint",
    "TRACE_CODEC_VERSION",
    "TRACE_CACHE_KIND",
    "TraceDecodeError",
    "TraceVersionError",
    "encode_trace",
    "decode_trace",
    "load_trace",
    "store_trace",
    "TraceCursor",
    "TraceCampaignSource",
    "build_replay_system",
    "golden_from_trace",
]
