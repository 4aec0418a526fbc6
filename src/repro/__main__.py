"""The consolidated command line: ``python -m repro <subcommand>``.

========   ==========================================================
sweep      parallel benchmark sweep with persistent result cache
fault      crash-consistency fault-injection campaign
check      online persistency checker: sanitized runs, mutant matrix
trace      columnar trace capture / campaign replay bench
litmus     persistency litmus tests: generate / run / explore / mutants
profile    workload characterisation tables
report     one-shot full evaluation report (all figures + analyses)
figures    individual paper figures (fig8, fig9, …)
ablations  hardware-parameter ablation sweeps
recovery   recovery-latency analysis over sampled crash points
energy     residual-energy comparison against eADR / BBB
========   ==========================================================

Each subcommand delegates to the ``main`` of one module
(``repro.sweep.cli``, ``repro.fault.cli``, ``repro.check.cli``,
``repro.trace.cli``, ``repro.litmus.cli``, ``repro.eval.profile``,
``repro.eval.make_report``, ``repro.eval.figures``,
``repro.eval.ablations``, ``repro.eval.recovery_analysis``,
``repro.eval.energy``).  This is the only entry point: those modules
have no ``__main__`` of their own.
"""

from __future__ import annotations

import sys
from typing import List, Optional

_USAGE = """\
usage: python -m repro <subcommand> [options]

subcommands:
  sweep      parallel benchmark sweep with persistent result cache
  fault      crash-consistency fault-injection campaign
  check      online persistency checker (sanitized runs / --mutants)
  trace      trace capture|bench (repro.trace)
  litmus     litmus generate|run|explore|mutants (repro.litmus)
  profile    workload characterisation tables
  report     one-shot full evaluation report
  figures    individual paper figures (fig8, fig9, ...)
  ablations  hardware-parameter ablation sweeps
  recovery   recovery-latency analysis over sampled crash points
  energy     residual-energy comparison against eADR / BBB

`python -m repro <subcommand> --help` shows the subcommand's options.
"""


def _dispatch(command: str):
    if command == "sweep":
        from repro.sweep.cli import main
    elif command == "fault":
        from repro.fault.cli import main
    elif command == "check":
        from repro.check.cli import main
    elif command == "trace":
        from repro.trace.cli import main
    elif command == "litmus":
        from repro.litmus.cli import main
    elif command == "profile":
        from repro.eval.profile import main
    elif command == "report":
        from repro.eval.make_report import main
    elif command == "figures":
        from repro.eval.figures import main
    elif command == "ablations":
        from repro.eval.ablations import main
    elif command == "recovery":
        from repro.eval.recovery_analysis import main
    elif command == "energy":
        from repro.eval.energy import main
    else:
        return None
    return main


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help", "help"):
        print(_USAGE, end="")
        return 0
    entry = _dispatch(args[0])
    if entry is None:
        print(f"unknown subcommand {args[0]!r}\n\n{_USAGE}", end="", file=sys.stderr)
        return 2
    return entry(args[1:])


if __name__ == "__main__":
    sys.exit(main())
