#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-cold --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
several fresh interpreter processes, each timed from spawn until the
workload's inputs are ready), then as many whole passes of the workload
as fill ``--seconds`` at the reference host speed (at least one).  ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics (see ``tracer.py``).
Either way the outputs are checked, a ``sim_digest`` of everything
simulated is printed, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every check passed.

Host times are reported in seconds at a reference host speed
(``hostspeed.py``); the raw wall-clock figures are printed above the
JSON line.  Metric definitions are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
from tracer import LAYERS, Patcher, Tracer, tap, target_name  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Scratch space (fresh caches, span dumps) inside the checkout.
WORK_DIR = ROOT / ".perfbench"
#: Set-up processes per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: The tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10

_HERMETIC_ENV = ("REPRO_CODE_VERSION", "REPRO_SUBSYSTEM_SALT")


def _fresh_cache_dir() -> str:
    """An empty cache directory, also made the process default so no
    code path can reach ``results/.sweep-cache`` or a caller's cache."""
    WORK_DIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
    os.environ["REPRO_CACHE_DIR"] = path
    return path


def tail_percentile(values, q: float = 0.9):
    """``(value, percentile)``: the ``q`` quantile, lowered until at least
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(0, min(math.ceil(q * n) - 1, n - 1 - TAIL_SAMPLES))
    return ordered[rank], 100.0 * (rank + 1) / n


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_child(workload: str, seed: int) -> int:
    """Body of one timed set-up process: build the inputs and say so,
    then report this process's host slowdown (untimed, same core)."""
    WORKLOADS[workload]().setup(seed)
    cache_dir = _fresh_cache_dir()
    print("ready", flush=True)
    print(hostspeed.measure_slowdown(repeats=5), flush=True)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int):
    """Per set-up process: (raw seconds, seconds at reference speed),
    timed from spawning a fresh interpreter until it reports the
    workload's inputs ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            slowdown = child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code})")
        raw = ready - start
        samples.append((raw, raw / float(slowdown)))
    return samples


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(workload):
    """One pass on a fresh cache: (result, start, end)."""
    cache_dir = _fresh_cache_dir()
    try:
        start = time.perf_counter()
        result = workload.run_pass(cache_dir)
        end = time.perf_counter()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return result, start, end


def end_to_end(name: str, seed: int, seconds: float):
    workload = WORKLOADS[name]()
    workload.setup(seed)
    setup = measure_setup(name, seed)

    # A fixed pass count for given --seconds keeps the work, and so the
    # peak memory and the latency sample, the same from run to run.
    with hostspeed.SpeedProbe() as probe:
        passes = [
            run_pass(workload)
            for _ in range(max(1, math.ceil(seconds / workload.pass_s)))
        ]
    results = [r for r, _, _ in passes]
    wall = sum(end - start for _, start, end in passes)
    norm_wall = sum(probe.normalize(start, end) for _, start, end in passes)
    ops = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    retired = sum(r.retired for r in results)
    # Per-operation latencies scale by their pass's slowdown: an
    # operation is too short for its own samples to be steady.
    latencies_ms = []
    for r, start, end in passes:
        speed = probe.slowdown(start, end)
        latencies_ms += [1e3 * (e - s) / speed for s, e in r.latencies]
    raw_latencies_ms = [1e3 * (e - s) for r in results for s, e in r.latencies]
    p90, p90_rank = tail_percentile(latencies_ms)
    problems = [p for r in results for p in r.problems]
    digests = {r.sim_digest for r in results}
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct sim digests")

    metrics = {
        "setup_s": (statistics.median(n for _, n in setup), "s"),
        "ops_per_s": (ops / norm_wall, "1/s"),
        "sim_instr_per_s": (retired / norm_wall, "1/s"),
        "sim_p50_ms": (statistics.median(latencies_ms), "ms"),
        "sim_p90_ms": (p90, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "ok_frac": (1.0 - failed / ops if ops else 0.0, "frac"),
        "sim_overhead_pct": (workload.overhead_pct(results[-1]), "%"),
    }
    slowdowns = probe.slowdowns
    print(f"perfbench {name} seed={seed}: {len(passes)} pass(es), {ops} ops, "
          f"{failed} failed, {len(latencies_ms)} latency samples "
          f"(p90 reported at p{p90_rank:.1f})")
    print(f"  host slowdown vs reference: mean {statistics.fmean(slowdowns):.3f} "
          f"(min {min(slowdowns):.3f}, max {max(slowdowns):.3f}, "
          f"{len(slowdowns)} samples)")
    print(f"  raw: wall {wall:.3f} s, ops_per_s {ops / wall:.3f}, "
          f"sim_p50_ms {statistics.median(raw_latencies_ms):.3f}, "
          f"sim_p90_ms {tail_percentile(raw_latencies_ms)[0]:.3f}, "
          f"setup_s {statistics.median(r for r, _ in setup):.4f}")
    print(f"  sim_digest {sorted(digests)[0]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return not problems, ops, failed, metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

class _Collect:
    """What the traced pass gathers besides spans."""

    def __init__(self) -> None:
        self.retired = 0
        self.events = 0
        self.detected = 0
        self.systems = []
        self.sources = []
        self.checkers = []

    def hooks(self):
        from repro.arch.recovery import RecoveryError

        def on_run(args, result, exc):
            if exc is None:
                self.retired += result

        def on_capture(args, result, exc):
            if exc is None:
                self.events += len(result)

        def on_recover(args, result, exc):
            if isinstance(exc, RecoveryError):
                self.detected += 1

        def on_attach(args, result, exc):
            if exc is None:
                self.checkers.append(result)

        return {
            target_name("repro.isa.machine", "Machine.run"): on_run,
            target_name("repro.trace.record", "capture_trace"): on_capture,
            target_name("repro.arch.recovery", "recover"): on_recover,
            target_name("repro.check.checker", "PersistencyChecker.attach"): on_attach,
        }

    def taps(self, patcher: Patcher) -> None:
        """Keep every replay system and campaign source built, for their
        counters after the pass."""
        patcher.patch(
            "repro.trace.replay", "build_replay_system",
            lambda fn: tap(fn, lambda a, r, e: self.systems.append(r)),
        )
        patcher.patch(
            "repro.trace.replay", "TraceCampaignSource.__init__",
            lambda fn: tap(fn, lambda a, r, e: self.sources.append(a[0])),
        )


def _modelled_counters(system_metrics):
    """The ``arch.*`` counters summed over :class:`SystemMetrics`."""
    keys = ("loads", "l1_hits", "l2_hits", "dram_hits", "nvm_fills",
            "proxy_entries", "proxy_merged", "boundaries_skipped",
            "fe_stall_cycles", "sync_stall_cycles", "invalidations",
            "nvm_writes_total", "nvm_writes_redo", "nvm_writes_ckpt",
            "nvm_writes_writeback", "nvm_writes_skipped")
    return {key: sum(getattr(m, key) for m in system_metrics) for key in keys}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats, counters, collect, verdicts, cache_stats,
                  traced_wall, speed, untraced_s, traced_s):
    """Every per-layer metric, as ``{name: (value, unit)}``.  Span times
    are raw host seconds over ``speed``, the traced pass's slowdown."""
    metrics = {}
    for layer in LAYERS:
        s = stats[layer]
        metrics[f"{layer}.calls"] = (s["calls"], "count")
        metrics[f"{layer}.self_s"] = (s["self_s"] / speed, "s")
        metrics[f"{layer}.share"] = (s["self_s"] / traced_wall, "frac")
    isa_self = stats["isa"]["self_s"] / speed
    metrics.update({
        "isa.retired": (collect.retired, "count"),
        "isa.instr_per_s": (_ratio(collect.retired, isa_self), "1/s"),
        "arch.mem.l1_hits": (counters["l1_hits"], "count"),
        "arch.mem.l2_hits": (counters["l2_hits"], "count"),
        "arch.mem.dram_hits": (counters["dram_hits"], "count"),
        "arch.mem.nvm_fills": (counters["nvm_fills"], "count"),
        "arch.mem.l1_hit_frac": (_ratio(counters["l1_hits"], counters["loads"]), "frac"),
        "arch.persist.proxy_entries": (counters["proxy_entries"], "count"),
        "arch.persist.merge_frac": (
            _ratio(counters["proxy_merged"],
                   counters["proxy_merged"] + counters["proxy_entries"]), "frac"),
        "arch.persist.boundaries_skipped": (counters["boundaries_skipped"], "count"),
        "arch.persist.fe_stall_cycles": (counters["fe_stall_cycles"], "cycles"),
        "arch.persist.sync_stall_cycles": (counters["sync_stall_cycles"], "cycles"),
        "arch.persist.invalidations": (counters["invalidations"], "count"),
        "arch.nvm.writes_total": (counters["nvm_writes_total"], "count"),
        "arch.nvm.writes_redo": (counters["nvm_writes_redo"], "count"),
        "arch.nvm.writes_ckpt": (counters["nvm_writes_ckpt"], "count"),
        "arch.nvm.writes_writeback": (counters["nvm_writes_writeback"], "count"),
        "arch.nvm.write_skip_frac": (
            _ratio(counters["nvm_writes_skipped"],
                   counters["nvm_writes_skipped"] + counters["nvm_writes_redo"]),
            "frac"),
        "arch.recovery.detected": (collect.detected, "count"),
        "trace.events": (collect.events, "count"),
        "trace.rebuilds": (sum(s.rebuilds for s in collect.sources), "count"),
        "check.violations": (
            sum(len(c.report.violations) for c in collect.checkers), "count"),
        "litmus.checks": (sum(v.checks for v in verdicts), "count"),
        "litmus.forbidden": (sum(v.forbidden for v in verdicts), "count"),
        "sweep.hits": (cache_stats.get("hits", 0), "count"),
        "sweep.misses": (cache_stats.get("misses", 0), "count"),
        "sweep.stores": (cache_stats.get("stores", 0), "count"),
        "sweep.quarantined": (cache_stats.get("quarantined", 0), "count"),
        "bench.untraced_s": (untraced_s, "s"),
        "bench.trace_overhead": (traced_s / untraced_s, "x"),
        "bench.unattributed_share": (
            1.0 - sum(s["self_s"] for s in stats.values()) / traced_wall,
            "frac"),
    })

    return metrics


def traced(name: str, seed: int):
    workload = WORKLOADS[name]()
    workload.setup(seed)
    collect = _Collect()
    with hostspeed.SpeedProbe() as probe:
        plain, p_start, p_end = run_pass(workload)
        with Patcher() as patcher:
            collect.taps(patcher)
            with Tracer(hooks=collect.hooks()) as tracer:
                result, t_start, t_end = run_pass(workload)
    untraced_s = probe.normalize(p_start, p_end)
    traced_s = probe.normalize(t_start, t_end)
    speed = probe.slowdown(t_start, t_end)
    stats = tracer.stats()
    calls = tracer.calls_by_target()

    if name == "fig8-cold":
        sims = [r.metrics for r in result.outputs["report"].results if r is not None]
    else:
        sims = [system.finish() for system in collect.systems]
    counters = _modelled_counters(sims)
    cache = result.outputs.get("cache")
    cache_stats = cache.stats() if cache is not None else {}
    verdicts = result.outputs.get("verdicts", [])

    metrics = layer_metrics(
        stats, counters, collect, verdicts, cache_stats,
        traced_wall=t_end - t_start, speed=speed,
        untraced_s=untraced_s, traced_s=traced_s,
    )

    problems = list(result.problems)
    if plain.sim_digest != result.sim_digest:
        problems.append("traced and untraced passes simulated differently")
    problems += invariants(name, workload, result, stats, calls)
    WORK_DIR.mkdir(exist_ok=True)
    spans_path = WORK_DIR / f"spans-{name}.npz"
    tracer.dump(spans_path)

    print(f"perfbench {name} seed={seed} traced: {len(tracer)} spans "
          f"(written to {spans_path.relative_to(ROOT)}), "
          f"overhead {traced_s / untraced_s:.2f}x")
    for layer in sorted(LAYERS, key=lambda l: -stats[l]["self_s"]):
        s = stats[layer]
        print(f"  {layer:<14} calls {s['calls']:>9}  self {s['self_s']:8.3f} s  "
              f"share {s['self_s'] / (t_end - t_start):6.1%}")
    print(f"  sim_digest {result.sim_digest}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return not problems, result.ops, result.failed, metrics


def invariants(name, workload, result, stats, calls):
    """Per-layer call counts that expose a patch that missed its import
    site."""
    def count(module, attr):
        return calls[target_name(module, attr)]

    expect = []
    if name == "fig8-cold":
        capri = sum(1 for s in workload.specs if s.effective_config.instrumented)
        expect += [
            ("compiler calls", stats["compiler"]["calls"], capri),
            ("check calls", stats["check"]["calls"], 0),
            ("arch.crash calls", stats["arch.crash"]["calls"], 0),
        ]
    elif name == "campaign-genome":
        points = len(result.outputs["campaign"].outcomes)
        expect += [
            ("capture_crash_state calls",
             count("repro.arch.crash", "capture_crash_state"), points),
            ("recover calls", count("repro.arch.recovery", "recover"), points),
            ("check calls", stats["check"]["calls"], 0),
        ]
    else:
        expect += [
            ("capture_trace calls", count("repro.trace.record", "capture_trace"),
             len(workload.programs)),
            ("recover calls", count("repro.arch.recovery", "recover"), result.ops),
        ]
    return [f"invariant {what}: {got} != {want}"
            for what, got, want in expect if got != want]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for key in _HERMETIC_ENV:
        os.environ.pop(key, None)
    if args.setup_only:
        return setup_child(args.workload, args.seed)

    if args.trace:
        correct, attempted, failed, metrics = traced(args.workload, args.seed)
    else:
        correct, attempted, failed, metrics = end_to_end(
            args.workload, args.seed, args.seconds
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
