"""One argument vocabulary and one output convention for every CLI.

Every ``repro`` subcommand declares its options with the ``argparse``
types below, so a bad value is a usage error (exit 2) that names it,
raised before anything runs: :func:`scale_arg`, :func:`workers_arg`,
:func:`threshold_arg` (at least ``MIN_THRESHOLD``), :func:`int_arg`,
:func:`fraction_arg`, and a non-empty :func:`comma_list` of any of them.
A value only the library can judge (an unknown workload, fault model or
mutant) is refused by the library, and :func:`usage_errors` turns that
refusal into the same usage error.

Human text goes to stdout unless ``--json -`` owns it
(:func:`text_printer`).  Every subcommand that can emit JSON does it
through the same ``--json PATH`` flag and the same schema-versioned
envelope::

    {"schema": 1, "command": "<subcommand>", "data": {...}}

Consumers dispatch on ``command`` and version-check ``schema`` once,
instead of guessing at five ad-hoc layouts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, TypeVar

#: Bump when the envelope layout itself (not a command's data) changes.
ENVELOPE_SCHEMA = 1

T = TypeVar("T")


def _number(text: str, kind: type) -> float:
    try:
        return kind(text)
    except ValueError:
        return math.nan


def int_arg(lo: int, hi: Optional[int] = None) -> Callable[[str], int]:
    """Type: an integer from ``lo`` to ``hi`` (no upper bound if None)."""
    need = f"an integer >= {lo}" if hi is None else f"an integer from {lo} to {hi}"

    def parse(text: str) -> int:
        value = _number(text, int)
        if not (lo <= value and (hi is None or value <= hi)):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    return parse


def workers_arg(text: str) -> int:
    """Type of ``--workers``: 0 (serial) to ``MAX_WORKERS`` processes."""
    from repro.sweep.engine import MAX_WORKERS

    return int_arg(0, MAX_WORKERS)(text)


def scale_arg(text: str) -> float:
    """Type of ``--scale``: a finite number above 0."""
    value = _number(text, float)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number greater than 0, got {text!r}"
        )
    return value


def fraction_arg(text: str) -> float:
    """Type: a number from 0 to 1."""
    value = _number(text, float)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be a number from 0 to 1, got {text!r}")
    return value


def threshold_arg(text: str) -> int:
    """Type of a region threshold, refused in region formation's words."""
    from repro.compiler.regions import MIN_THRESHOLD

    value = _number(text, int)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"threshold {text!r} is not an integer")
    if value < MIN_THRESHOLD:
        raise argparse.ArgumentTypeError(
            f"threshold {value} below minimum {MIN_THRESHOLD}"
        )
    return value


def comma_list(item: Callable[[str], T], noun: str) -> Callable[[str], List[T]]:
    """Type: comma-separated ``item`` values, blanks ignored.  A bad item
    is refused with ``item``'s message and the whole list; so is a list
    of no ``noun``."""

    def parse(text: str) -> List[T]:
        values = []
        for part in filter(None, (p.strip() for p in text.split(","))):
            try:
                values.append(item(part))
            except argparse.ArgumentTypeError as err:
                raise argparse.ArgumentTypeError(f"{err}, got {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"no {noun} in {text!r}")
        return values

    return parse


@contextlib.contextmanager
def usage_errors(parser: argparse.ArgumentParser) -> Iterator[None]:
    """Make a library ``KeyError``, ``ValueError`` or
    ``RegionFormationError`` a usage error (exit 2) with its message."""
    from repro.compiler.regions import RegionFormationError

    try:
        yield
    except (KeyError, ValueError, RegionFormationError) as err:
        parser.error(str(err.args[0] if err.args else err))


def _silent(*args: Any, **kwargs: Any) -> None:
    pass


def text_printer(json_out: Optional[str]) -> Callable[..., None]:
    """``print`` for human text, or a no-op if ``--json -`` owns stdout."""
    return _silent if json_out == "-" else print


def envelope(command: str, data: Any) -> Dict[str, Any]:
    """The standard envelope around one command's payload."""
    return {"schema": ENVELOPE_SCHEMA, "command": command, "data": data}


def write_envelope(
    path: str, command: str, data: Any, written: Optional[str] = None
) -> Dict[str, Any]:
    """Serialise ``envelope(command, data)`` to ``path`` (``-`` = stdout,
    which gets the JSON and nothing else) and return it.  For a file,
    a ``written`` label prints ``"<written> <path>"`` once it is saved."""
    doc = envelope(command, data)
    if path == "-":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        if written:
            print(f"{written} {path}")
    return doc


def add_json_arg(
    parser: argparse.ArgumentParser,
    help: str = "write the machine-readable envelope "
    '({"schema": N, "command": ..., "data": ...}) to PATH '
    "('-' for stdout)",
) -> None:
    """Register the unified ``--json`` flag (parsed into ``json_out``)."""
    parser.add_argument(
        "--json", dest="json_out", metavar="PATH", default=None, help=help
    )
