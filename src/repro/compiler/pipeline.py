"""The Capri compiler facade: configuration ladder and full pipeline.

:class:`OptConfig` mirrors the accumulative optimisation ladder of the
paper's Figure 9:

======================  =============================================
Config                  Meaning
======================  =============================================
``OptConfig.volatile()``    no instrumentation (baseline binary)
``OptConfig.region()``      region boundaries only (not failure atomic)
``OptConfig.ckpt()``        + register-checkpointing stores
``OptConfig.unrolling()``   + speculative loop unrolling
``OptConfig.pruning()``     + optimal checkpoint pruning
``OptConfig.licm()``        + checkpoint motion out of loops (full Capri)
======================  =============================================

``CapriCompiler.compile`` clones the input module and applies the enabled
passes per function, bottom of Section 4's pipeline:
unroll -> form regions -> insert checkpoints -> prune -> licm.  The CFG,
loops and liveness region formation computes serve every later pass, and
reaching definitions are computed once (see :mod:`repro.compiler.facts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.compiler.clone import clone_module
from repro.compiler.checkpoints import insert_checkpoints
from repro.compiler.licm import move_checkpoints_out_of_loops
from repro.compiler.pruning import prune_checkpoints
from repro.compiler.regions import form_regions_with_facts
from repro.compiler.unrolling import speculative_unroll

#: Default region store threshold (paper Section 3.2: 256 by default).
DEFAULT_THRESHOLD = 256


@dataclass(frozen=True)
class OptConfig:
    """Compiler configuration: threshold plus the enabled pass set."""

    threshold: int = DEFAULT_THRESHOLD
    regions: bool = True
    checkpoints: bool = True
    unroll: bool = True
    prune: bool = True
    licm_opt: bool = True
    #: Upper bound on the speculative unroll factor; the effective factor
    #: is threshold-budgeted per loop (see repro.compiler.unrolling), so
    #: the store threshold — not this cap — is normally the binding limit.
    max_unroll: int = 32
    #: Small-leaf-function inlining (extension beyond the paper: removes
    #: mandatory call boundaries; see repro.compiler.inlining).
    inline: bool = False

    # -- the Figure 9 ladder ------------------------------------------------

    @staticmethod
    def volatile() -> "OptConfig":
        """Uninstrumented baseline (no regions at all)."""
        return OptConfig(
            regions=False, checkpoints=False, unroll=False, prune=False,
            licm_opt=False,
        )

    @staticmethod
    def region(threshold: int = DEFAULT_THRESHOLD) -> "OptConfig":
        return OptConfig(
            threshold=threshold, checkpoints=False, unroll=False,
            prune=False, licm_opt=False,
        )

    @staticmethod
    def ckpt(threshold: int = DEFAULT_THRESHOLD) -> "OptConfig":
        return OptConfig(
            threshold=threshold, unroll=False, prune=False, licm_opt=False
        )

    @staticmethod
    def unrolling(threshold: int = DEFAULT_THRESHOLD) -> "OptConfig":
        return OptConfig(threshold=threshold, prune=False, licm_opt=False)

    @staticmethod
    def pruning(threshold: int = DEFAULT_THRESHOLD) -> "OptConfig":
        return OptConfig(threshold=threshold, licm_opt=False)

    @staticmethod
    def licm(threshold: int = DEFAULT_THRESHOLD) -> "OptConfig":
        """All optimisations: full Capri."""
        return OptConfig(threshold=threshold)

    @staticmethod
    def inlined(threshold: int = DEFAULT_THRESHOLD) -> "OptConfig":
        """Full Capri plus small-function inlining (extension)."""
        return OptConfig(threshold=threshold, inline=True)

    @staticmethod
    def ladder(threshold: int = DEFAULT_THRESHOLD) -> Dict[str, "OptConfig"]:
        """Figure 9's accumulative configurations, in order."""
        return {
            "region": OptConfig.region(threshold),
            "+ckpt": OptConfig.ckpt(threshold),
            "+unrolling": OptConfig.unrolling(threshold),
            "+pruning": OptConfig.pruning(threshold),
            "+licm": OptConfig.licm(threshold),
        }

    @property
    def instrumented(self) -> bool:
        return self.regions

    def with_threshold(self, threshold: int) -> "OptConfig":
        return replace(self, threshold=threshold)


@dataclass
class CompileResult:
    """Output of :meth:`CapriCompiler.compile`."""

    module: Module
    config: OptConfig
    #: Per-function static pass statistics.
    function_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Call sites removed by the inlining extension (0 unless enabled).
    inlined_calls: int = 0

    @property
    def total(self) -> Dict[str, int]:
        """Summed statistics across all functions."""
        out: Dict[str, int] = {}
        for stats in self.function_stats.values():
            for key, value in stats.items():
                out[key] = out.get(key, 0) + value
        return out


class CapriCompiler:
    """Applies the Capri instrumentation pipeline to IR modules."""

    def __init__(self, config: Optional[OptConfig] = None) -> None:
        self.config = config or OptConfig()

    def compile(self, module: Module, validate: bool = False) -> CompileResult:
        """Clone ``module`` and apply the configured passes to every function.

        ``validate=True`` additionally runs the static whole-system-
        persistence verifier (:mod:`repro.compiler.verify_capri`) over the
        instrumented output — checkpoint coverage, region budgets, and
        recovery-block purity — raising on any violation.
        """
        from repro.deps import touch

        touch("compiler")  # usage-probe dependency recording
        cfg = self.config
        out = clone_module(module)
        result = CompileResult(module=out, config=cfg)
        if not cfg.regions:
            verify_module(out)
            return result
        if cfg.inline:
            from repro.compiler.inlining import inline_small_functions

            result.inlined_calls = inline_small_functions(out)
        for func in out.functions.values():
            stats: Dict[str, int] = {}
            if cfg.unroll:
                stats["loops_unrolled"] = speculative_unroll(
                    func, threshold=cfg.threshold, max_unroll=cfg.max_unroll
                )
            regions, facts = form_regions_with_facts(
                func, cfg.threshold, cfg.checkpoints
            )
            stats["regions"] = len(regions)
            if cfg.checkpoints:
                stats["checkpoints_inserted"] = insert_checkpoints(func, facts)
                if cfg.prune:
                    stats["checkpoints_pruned"] = prune_checkpoints(func, facts)
                if cfg.licm_opt:
                    stats["checkpoints_licm"] = move_checkpoints_out_of_loops(
                        func, facts
                    )
            result.function_stats[func.name] = stats
        verify_module(out)
        if validate and cfg.checkpoints:
            from repro.compiler.verify_capri import verify_capri_module

            verify_capri_module(out, cfg.threshold)
        return result
