"""Versioned, checksummed codec: traces in the sweep result cache.

An :class:`~repro.trace.record.ExecTrace` serialises to one JSON object:
the five event columns as base64-packed machine arrays (binary density,
JSON transport — the :class:`~repro.sweep.cache.ResultCache` stores JSON
objects), the side tables (retire names, continuations, I/O log, durable
images) as plain JSON, plus

* a **format version** — a decoder facing a different version reports a
  clean miss, so format bumps recapture rather than misread;
* the **byte order** of the producing host — columns are byteswapped on
  load when it differs;
* a **sha256 checksum** over the column bytes and canonicalised side
  tables — a torn or bit-rotted entry fails closed.

Cache integration mirrors the cache's own corrupt-entry contract: entries
that parse but fail the checksum (or are structurally broken) are
*quarantined* via :meth:`ResultCache.quarantine` — renamed aside, counted,
treated as a miss, never a crash.  Traces live under the ``traces``
namespace keyed by :func:`repro.trace.record.trace_fingerprint`.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import sys
from array import array
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.isa.machine import Continuation
from repro.trace.record import ExecTrace

#: Bump on any change to the serialised layout.
#: 2: payload gained the top-level ``deps`` validity token
#:    (``{subsystem: content-hash}``) read by the cache's dependency
#:    validation; version-1 traces predate per-subsystem invalidation
#:    and are recaptured (clean miss).
TRACE_CODEC_VERSION = 2

#: ResultCache namespace for serialised traces.
TRACE_CACHE_KIND = "traces"

#: (payload key, array typecode) for each packed column.
_COLUMNS = (
    ("kinds", "B"),
    ("cores", "i"),
    ("a", "q"),
    ("b", "q"),
    ("c", "q"),
)


class TraceDecodeError(Exception):
    """The payload is corrupt: checksum mismatch, truncated column,
    structural damage.  Callers quarantine the cache entry."""


class TraceVersionError(TraceDecodeError):
    """The payload was written by a different codec version.  Not
    corruption — callers treat it as a miss and recapture."""


def _encode_continuation(cont: Continuation) -> list:
    return [
        cont.func_name,
        cont.label,
        cont.index,
        [
            [name, label, index, list(regs), ret_reg]
            for (name, label, index, regs, ret_reg) in cont.callstack
        ],
    ]


def _decode_continuation(payload: list) -> Continuation:
    func_name, label, index, frames = payload
    return Continuation(
        func_name=func_name,
        label=label,
        index=index,
        callstack=tuple(
            (name, flabel, findex, tuple(regs), ret_reg)
            for (name, flabel, findex, regs, ret_reg) in frames
        ),
    )


def _checksum(columns: Dict[str, bytes], side: Dict[str, Any]) -> str:
    digest = hashlib.sha256()
    for key, _code in _COLUMNS:
        digest.update(key.encode())
        digest.update(b"\0")
        digest.update(columns[key])
        digest.update(b"\0")
    digest.update(
        json.dumps(side, sort_keys=True, separators=(",", ":")).encode()
    )
    return digest.hexdigest()


def _side_tables(trace: ExecTrace) -> Dict[str, Any]:
    """The non-column payload fields covered by the checksum."""
    return {
        "retire_names": list(trace.retire_names),
        "continuations": [
            _encode_continuation(c) for c in trace.continuations
        ],
        "num_cores": trace.num_cores,
        "initial_data": {str(k): v for k, v in trace.initial_data.items()},
        "final_data": {str(k): v for k, v in trace.final_data.items()},
        "io_log": [list(ev) for ev in trace.io_log],
        "total_retired": trace.total_retired,
    }


def encode_trace(trace: ExecTrace) -> Dict[str, Any]:
    """Serialise to a JSON-able payload (the cache-entry body).

    When the trace carries its probed dependency set
    (``meta["deps"]``, recorded by
    :func:`repro.trace.record.load_spec_trace`), the payload gains a
    top-level ``deps`` validity token — the cache refuses the entry once
    any of those subsystems' hashes change, so stale traces recapture
    instead of silently replaying old code's event stream.
    """
    from repro.deps import deps_token

    columns = {
        key: getattr(trace, key).tobytes() for key, _code in _COLUMNS
    }
    side = _side_tables(trace)
    payload: Dict[str, Any] = {
        "kind": "trace",
        "version": TRACE_CODEC_VERSION,
        "byteorder": sys.byteorder,
        "events": len(trace),
        "columns": {
            key: base64.b64encode(raw).decode("ascii")
            for key, raw in columns.items()
        },
        "checksum": _checksum(columns, side),
        "meta": dict(trace.meta),
    }
    dep_names = trace.meta.get("deps")
    if dep_names:
        payload["deps"] = deps_token(dep_names)
    payload.update(side)
    return payload


def decode_trace(payload: Dict[str, Any]) -> ExecTrace:
    """Rebuild an :class:`ExecTrace`; raises on version skew / corruption."""
    version = payload.get("version")
    if version != TRACE_CODEC_VERSION:
        raise TraceVersionError(
            f"trace codec version {version!r}, this decoder speaks "
            f"{TRACE_CODEC_VERSION}"
        )
    try:
        events = payload["events"]
        encoded = payload["columns"]
        columns: Dict[str, bytes] = {}
        arrays: Dict[str, array] = {}
        for key, code in _COLUMNS:
            raw = base64.b64decode(encoded[key].encode("ascii"), validate=True)
            arr = array(code)
            arr.frombytes(raw)
            if payload["byteorder"] != sys.byteorder:
                arr.byteswap()
                raw = arr.tobytes()
            if len(arr) != events:
                raise TraceDecodeError(
                    f"column {key!r} holds {len(arr)} events, header says "
                    f"{events}"
                )
            columns[key] = (
                raw
                if payload["byteorder"] == sys.byteorder
                else base64.b64decode(encoded[key].encode("ascii"))
            )
            arrays[key] = arr
        side = {
            "retire_names": payload["retire_names"],
            "continuations": payload["continuations"],
            "num_cores": payload["num_cores"],
            "initial_data": payload["initial_data"],
            "final_data": payload["final_data"],
            "io_log": payload["io_log"],
            "total_retired": payload["total_retired"],
        }
        if _checksum(columns, side) != payload["checksum"]:
            raise TraceDecodeError("trace checksum mismatch")
        trace = ExecTrace()
        for key, _code in _COLUMNS:
            setattr(trace, key, arrays[key])
        trace.retire_names = [str(n) for n in side["retire_names"]]
        trace.continuations = [
            _decode_continuation(c) for c in side["continuations"]
        ]
        trace.num_cores = int(side["num_cores"])
        trace.initial_data = {
            int(k): v for k, v in side["initial_data"].items()
        }
        trace.final_data = {int(k): v for k, v in side["final_data"].items()}
        trace.io_log = [tuple(ev) for ev in side["io_log"]]
        trace.total_retired = int(side["total_retired"])
        trace.meta = dict(payload.get("meta") or {})
        return trace
    except TraceDecodeError:
        raise
    except (KeyError, TypeError, ValueError, binascii.Error) as err:
        raise TraceDecodeError(f"malformed trace payload: {err}") from err


# ---------------------------------------------------------------------------
# cache integration
# ---------------------------------------------------------------------------

def load_trace(store, fingerprint: str) -> Optional[ExecTrace]:
    """Fetch + decode a cached trace; ``None`` on any kind of miss.

    Version skew is a clean miss (the caller recaptures and overwrites);
    corruption quarantines the entry exactly as :meth:`ResultCache.get`
    quarantines unreadable JSON.

    A warm hit re-broadcasts the trace's recorded dependency set to any
    active :class:`repro.deps.UsageProbe` — the run it feeds never calls
    the workload builder or compiler itself, yet still depends on them,
    and the cache entry produced from it must say so.
    """
    from repro.deps import touch

    if store is None:
        return None
    payload = store.get(fingerprint, kind=TRACE_CACHE_KIND)
    if payload is None:
        return None
    try:
        trace = decode_trace(payload)
    except TraceVersionError:
        return None
    except TraceDecodeError:
        store.quarantine(fingerprint, kind=TRACE_CACHE_KIND)
        return None
    deps = trace.meta.get("deps")
    if deps:
        touch(*deps)
    return trace


def store_trace(store, fingerprint: str, trace: ExecTrace) -> Optional[Path]:
    """Serialise + persist a trace; returns the entry path (or ``None``
    when caching is disabled)."""
    if store is None:
        return None
    return store.put(fingerprint, encode_trace(trace), kind=TRACE_CACHE_KIND)
