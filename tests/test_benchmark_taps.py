"""Every ``repro`` name the benchmark harness patches, binds or passes
still resolves.

The harness under ``perfbench/`` wraps functions and methods by name
(``perfbench/tracer.py``'s ``LAYER_TARGETS`` and the taps in
``perfbench/run.py`` and ``perfbench/workloads.py``) and calls a few
entry points with keywords no library code passes.  A renamed or
deleted name there breaks only a traced benchmark run, so these tests
resolve each one the way the harness does and fail first.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attr: str):
    """Look ``module:attr`` up as ``Patcher.patch`` does: methods from the
    class's own ``vars`` (a classmethod unwrapped), functions from the
    module."""
    mod = importlib.import_module(module)
    if "." not in attr:
        return getattr(mod, attr)
    cls_name, name = attr.split(".", 1)
    raw = vars(getattr(mod, cls_name))[name]
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


#: Patched by ``perfbench/run.py`` besides the tracer's targets (its
#: other taps, and ``perfbench/workloads.py``'s, are among those).
HARNESS_TAPS = (
    ("repro.trace.replay", "build_replay_system"),
    ("repro.trace.replay", "TraceCampaignSource.__init__"),
)

#: ``(importing module, name, defining module)``: by-name imports that
#: ``perfbench/test_tracer.py`` reads to see a patch reach every binding.
BY_NAME_BINDINGS = [
    ("repro.fault.campaign", "recover", "repro.arch.recovery"),
    ("repro.fault.campaign", "resume_and_finish", "repro.arch.recovery"),
    ("repro.trace.replay", "capture_crash_state", "repro.arch.crash"),
    ("repro.litmus.matrix", "oracle_snapshots", "repro.litmus.oracle"),
]


def _harness_imports():
    """``(module, name)`` for every ``from repro… import name`` in the
    harness's run and workload scripts."""
    found = set()
    for script in ("run.py", "workloads.py"):
        tree = ast.parse((PERFBENCH / script).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "repro"
            ):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


def test_every_patched_name_resolves():
    targets = [(module, attr) for _, module, attr in _load_tracer().LAYER_TARGETS]
    for module, attr in targets + list(HARNESS_TAPS):
        assert callable(_resolve(module, attr)), f"{module}:{attr}"


def test_usage_probe_keeps_its_own_enter_and_exit():
    from repro.deps.probe import UsageProbe

    assert {"__enter__", "__exit__"} <= set(vars(UsageProbe))


@pytest.mark.parametrize("module, name, origin", BY_NAME_BINDINGS)
def test_by_name_binding_is_the_original(module, name, origin):
    bound = getattr(importlib.import_module(module), name)
    assert bound is getattr(importlib.import_module(origin), name)


def test_every_harness_import_resolves():
    imports = _harness_imports()
    assert imports  # the scan found the harness's imports at all
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}:{name}"


def test_campaign_config_accepts_replay():
    from repro.fault.campaign import CampaignConfig

    assert CampaignConfig(replay=True).replay is True


@pytest.mark.parametrize(
    "module, function",
    [
        ("repro.fault.campaign", "run_workload_campaign"),
        ("repro.litmus.matrix", "run_litmus_program"),
    ],
)
def test_entry_point_takes_cache_keyword(module, function):
    fn = getattr(importlib.import_module(module), function)
    assert "cache" in inspect.signature(fn).parameters
