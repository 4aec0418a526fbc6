"""One machine-readable output convention for every CLI.

Every ``repro`` subcommand that can emit JSON does it through the same
``--json PATH`` flag (``-`` for stdout) and the same schema-versioned
envelope::

    {"schema": 1, "command": "<subcommand>", "data": {...}}

Consumers dispatch on ``command`` and version-check ``schema`` once,
instead of guessing at five ad-hoc layouts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

#: Bump when the envelope layout itself (not a command's data) changes.
ENVELOPE_SCHEMA = 1


def envelope(command: str, data: Any) -> Dict[str, Any]:
    """The standard envelope around one command's payload."""
    return {"schema": ENVELOPE_SCHEMA, "command": command, "data": data}


def write_envelope(path: str, command: str, data: Any) -> Dict[str, Any]:
    """Serialise ``envelope(command, data)`` to ``path`` (``-`` = stdout).

    Returns the document (callers print their own confirmation line for
    file targets; stdout gets the JSON and nothing else).
    """
    doc = envelope(command, data)
    if path == "-":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
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
