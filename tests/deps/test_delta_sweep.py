"""Delta sweeps: ``run_specs(..., since=rev)`` / ``repro sweep --since``."""

import pytest

from repro.api import RunSpec
from repro.compiler import OptConfig
from repro.deps import DepsError
from repro.deps import fingerprint as fingerprint_mod
from repro.sweep.engine import run_specs

TINY = 0.05


def spec(**kw) -> RunSpec:
    base = dict(workload="ssca2", scale=TINY, config=OptConfig.licm(64))
    base.update(kw)
    return RunSpec(**base)


@pytest.fixture
def fake_rev(monkeypatch):
    """Pin the rev diff so these tests need no git history."""

    def set_changed(names):
        monkeypatch.setattr(
            fingerprint_mod,
            "changed_subsystems_since",
            lambda rev, repo_root=None, package=None: list(names),
        )

    return set_changed


class TestDeltaReport:
    def test_no_delta_without_since(self, tmp_path):
        report = run_specs([spec()], cache=tmp_path)
        assert report.delta is None

    def test_cold_sweep_reports_new(self, tmp_path, fake_rev):
        fake_rev([])
        report = run_specs(
            [spec()], cache=tmp_path, since="HEAD~1"
        )
        delta = report.delta
        assert delta is not None and delta.since == "HEAD~1"
        assert {e.outcome for e in delta.entries} == {"new"}
        assert not delta.changed_figures
        assert "new" in delta.summary()

    def test_warm_unchanged_sweep_is_all_warm(self, tmp_path, fake_rev):
        specs = [spec(), spec(config=OptConfig.licm(256))]
        run_specs(specs, cache=tmp_path)
        fake_rev([])
        report = run_specs(
            specs, cache=tmp_path, since="HEAD"
        )
        assert report.simulations == 0
        assert {e.outcome for e in report.delta.entries} == {"warm"}
        assert "figures unchanged" in report.delta.summary()

    def test_dependent_edit_resimulates_and_explains(
        self, tmp_path, fake_rev, monkeypatch
    ):
        specs = [spec()]
        run_specs(specs, cache=tmp_path)
        # Simulate an arch/ edit: hash moves, entries depending on arch
        # go stale, and the rev diff names the same subsystem.
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "arch=edited")
        fake_rev(["arch"])
        report = run_specs(
            specs, cache=tmp_path, since="HEAD~1"
        )
        delta = report.delta
        assert delta.changed_subsystems == ["arch"]
        resim = delta.by_outcome("resimulated")
        # The run and its derived baseline both exercised arch.
        assert len(resim) == len(delta.entries) == 2
        for entry in resim:
            assert "arch" in entry.stale_subsystems
            assert entry.old_exec_cycles is not None
            assert entry.new_exec_cycles is not None
            # A salt is not a real code change: the re-run reproduces
            # the old figure exactly, and the report says so.
            assert entry.value_changed is False
        assert "re-runs reproduced old values" in delta.summary()

    def test_non_dependent_edit_reruns_nothing(
        self, tmp_path, fake_rev, monkeypatch
    ):
        specs = [spec()]
        run_specs(specs, cache=tmp_path)
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "litmus=edited")
        fake_rev(["litmus"])
        report = run_specs(
            specs, cache=tmp_path, since="HEAD~1"
        )
        assert report.simulations == 0
        assert {e.outcome for e in report.delta.entries} == {"warm"}

    def test_to_dict_round_trips_outcomes(self, tmp_path, fake_rev):
        fake_rev(["eval"])
        report = run_specs(
            [spec()], cache=tmp_path, since="HEAD~1"
        )
        doc = report.delta.to_dict()
        assert doc["since"] == "HEAD~1"
        assert doc["changed_subsystems"] == ["eval"]
        assert all(
            set(e) >= {"spec", "outcome", "stale_subsystems", "value_changed"}
            for e in doc["entries"]
        )

    def test_bad_rev_surfaces_deps_error(self, tmp_path):
        with pytest.raises(DepsError):
            run_specs(
                [spec()],
                cache=tmp_path,
                since="no-such-rev-xyzzy",
            )


class TestDeltaCLI:
    def test_since_flag_prints_delta_summary(
        self, tmp_path, fake_rev, capsys
    ):
        from repro.sweep.cli import main as sweep_main

        args = [
            "--benchmarks",
            "ssca2",
            "--thresholds",
            "64",
            "--scale",
            str(TINY),
            "--cache-dir",
            str(tmp_path),
            "--quiet",
        ]
        assert sweep_main(args) == 0
        capsys.readouterr()
        fake_rev([])
        assert sweep_main([*args, "--since", "HEAD"]) == 0
        out = capsys.readouterr().out
        assert "delta since HEAD" in out
        assert "warm" in out

    def test_since_bad_rev_is_a_usage_error(self, tmp_path, capsys):
        from repro.sweep.cli import main as sweep_main

        with pytest.raises(SystemExit) as exc:
            sweep_main(
                [
                    "--benchmarks",
                    "ssca2",
                    "--thresholds",
                    "64",
                    "--scale",
                    str(TINY),
                    "--cache-dir",
                    str(tmp_path),
                    "--quiet",
                    "--since",
                    "no-such-rev-xyzzy",
                ]
            )
        assert exc.value.code == 2
        capsys.readouterr()

    def test_json_envelope_carries_delta(self, tmp_path, fake_rev, capsys):
        import json

        from repro.sweep.cli import main as sweep_main

        out_path = tmp_path / "sweep.json"
        fake_rev(["eval"])
        rc = sweep_main(
            [
                "--benchmarks",
                "ssca2",
                "--thresholds",
                "64",
                "--scale",
                str(TINY),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--quiet",
                "--since",
                "HEAD~1",
                "--json",
                str(out_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["command"] == "sweep"
        assert payload["data"]["delta"]["changed_subsystems"] == ["eval"]
