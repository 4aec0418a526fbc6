"""Every sweep explains itself: why each spec re-ran, and what moved.

A miss on a dependency-stale cache entry carries the stale subsystems
and the entry's old ``exec_cycles`` onto the spec's
:class:`~repro.sweep.engine.SpecStatus`.  Edits are simulated with
``REPRO_SUBSYSTEM_SALT`` (perturbs one subsystem's hash without touching
files), so these tests exercise the same path a real source edit would.
"""

import json

from repro.api import RunSpec
from repro.compiler import OptConfig
from repro.sweep.cache import ResultCache
from repro.sweep.engine import run_specs

TINY = 0.05


def spec(**kw) -> RunSpec:
    base = dict(workload="ssca2", scale=TINY, config=OptConfig.licm(64))
    base.update(kw)
    return RunSpec(**base)


def specs():
    """Two Capri specs plus their shared volatile baseline."""
    return [spec(), spec(config=OptConfig.licm(256))]


def warm(tmp_path):
    report = run_specs(specs(), cache=tmp_path)
    assert report.failures == 0 and report.simulations == 3
    return report


class TestDeltaReport:
    def test_cold_sweep_reports_new(self, tmp_path):
        report = warm(tmp_path)
        for status in report.statuses:
            assert status.state == "ok"
            assert status.stale_subsystems == []
            assert status.old_exec_cycles is None
            assert status.new_exec_cycles > 0
            assert not status.resimulated
        text = report.summary()
        assert "re-simulated" not in text
        assert "figures unchanged" in text

    def test_warm_unchanged_sweep_is_all_warm(self, tmp_path):
        cold = warm(tmp_path)
        report = run_specs(specs(), cache=tmp_path)
        assert report.simulations == 0
        assert {s.state for s in report.statuses} == {"cached"}
        assert all(not s.stale_subsystems for s in report.statuses)
        assert [s.new_exec_cycles for s in report.statuses] == [
            s.new_exec_cycles for s in cold.statuses
        ]
        assert "figures unchanged" in report.summary()

    def test_dependent_edit_resimulates_and_explains(
        self, tmp_path, monkeypatch
    ):
        warm(tmp_path)
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "arch=x")
        report = run_specs(specs(), cache=tmp_path)
        # Every spec (the baseline included) simulated on the
        # architecture, so every entry went stale and re-ran.
        assert report.simulations == len(report.statuses) == 3
        for status in report.statuses:
            assert status.resimulated
            assert status.stale_subsystems == ["arch"]
            # A salt is not a real code change: the re-run reproduces
            # the old figure exactly, and the report says so.
            assert status.old_exec_cycles == status.new_exec_cycles
            assert not status.moved
            assert status.line().endswith("(stale: arch)")
        text = report.summary()
        assert "re-simulated 3 stale entries (arch)" in text
        assert "figures unchanged" in text
        assert "CHANGED" not in text

    def test_compiler_edit_resimulates_only_capri_specs(
        self, tmp_path, monkeypatch
    ):
        warm(tmp_path)
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "compiler=x")
        report = run_specs(specs(), cache=tmp_path)
        by_role = {}
        for status in report.statuses:
            by_role.setdefault(status.role, []).append(status)
        assert [s.state for s in by_role["baseline"]] == ["cached"]
        assert by_role["baseline"][0].stale_subsystems == []
        for status in by_role["run"]:
            assert status.resimulated
            assert status.stale_subsystems == ["compiler"]
            assert status.old_exec_cycles == status.new_exec_cycles
        assert report.simulations == 2

    def test_non_dependent_edit_reruns_nothing(self, tmp_path, monkeypatch):
        warm(tmp_path)
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "eval=x")
        report = run_specs(specs(), cache=tmp_path)
        assert report.simulations == 0
        assert {s.state for s in report.statuses} == {"cached"}
        assert all(not s.stale_subsystems for s in report.statuses)

    def test_moved_figure_prints_a_changed_line(self, tmp_path):
        cold = warm(tmp_path)
        # Rewrite one entry as an older build would have left it: a
        # different arch hash and a different figure.
        status = cold.statuses[-1]
        path = ResultCache(tmp_path).path_for(status.fingerprint)
        payload = json.loads(path.read_text())
        payload["deps"]["arch"] = "0" * 16
        payload["metrics"]["exec_cycles"] = 12345.0
        path.write_text(json.dumps(payload))

        report = run_specs(specs(), cache=tmp_path)
        rerun = [s for s in report.statuses if s.resimulated]
        assert [s.fingerprint for s in rerun] == [status.fingerprint]
        assert rerun[0].moved and rerun[0].old_exec_cycles == 12345.0
        new = rerun[0].new_exec_cycles
        assert (
            f"12345 -> {new:.0f} cycles  (arch)" in report.summary()
        )
        assert "figures unchanged" not in report.summary()

    def test_to_dict_round_trips_outcomes(self, tmp_path, monkeypatch):
        warm(tmp_path)
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "arch=x")
        report = run_specs(specs(), cache=tmp_path)
        for status in report.statuses:
            doc = json.loads(json.dumps(status.to_dict()))
            assert doc["state"] == "ok"
            assert doc["role"] == status.role
            assert doc["shared"] is False
            assert doc["stale_subsystems"] == ["arch"]
            assert doc["old_exec_cycles"] == doc["new_exec_cycles"]
            assert doc["fingerprint"] == status.fingerprint


class TestDeltaCLI:
    ARGS = ["--benchmarks", "ssca2", "--thresholds", "64", "--scale", str(TINY)]

    def test_progress_and_summary_name_the_stale_subsystem(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.sweep.cli import main as sweep_main

        args = [*self.ARGS, "--cache-dir", str(tmp_path)]
        assert sweep_main([*args, "--quiet"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "arch=x")
        assert sweep_main(args) == 0
        captured = capsys.readouterr()
        progress = captured.err.strip().splitlines()
        assert len(progress) == 2
        assert all(line.endswith("(stale: arch)") for line in progress)
        assert "re-simulated 2 stale entries (arch)" in captured.out
        assert "figures unchanged" in captured.out

    def test_json_envelope_carries_delta(self, tmp_path, monkeypatch, capsys):
        from repro.sweep.cli import main as sweep_main

        out_path = tmp_path / "sweep.json"
        args = [*self.ARGS, "--cache-dir", str(tmp_path / "cache"), "--quiet"]
        assert sweep_main([*args, "--json", str(out_path)]) == 0
        cold = json.loads(out_path.read_text())["data"]["specs"]
        assert [(e["role"], e["state"]) for e in cold] == [
            ("baseline", "ok"),
            ("run", "ok"),
        ]
        assert all(not e["stale_subsystems"] for e in cold)

        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "arch=x")
        assert sweep_main([*args, "--json", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["command"] == "sweep"
        entries = payload["data"]["specs"]
        assert len(entries) == 2
        for entry, before in zip(entries, cold):
            assert set(entry) >= {
                "state", "role", "shared", "stale_subsystems",
                "old_exec_cycles", "new_exec_cycles",
            }
            assert entry["stale_subsystems"] == ["arch"]
            assert entry["old_exec_cycles"] == before["new_exec_cycles"]
            assert entry["new_exec_cycles"] == before["new_exec_cycles"]
