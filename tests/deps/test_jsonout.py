"""The unified ``--json`` envelope."""

import argparse
import json

import pytest

from repro.jsonout import (
    ENVELOPE_SCHEMA,
    add_json_arg,
    envelope,
    write_envelope,
)


class TestEnvelope:
    def test_shape(self):
        doc = envelope("sweep", {"x": 1})
        assert doc == {
            "schema": ENVELOPE_SCHEMA,
            "command": "sweep",
            "data": {"x": 1},
        }

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_envelope(str(path), "fault", {"ok": True})
        payload = json.loads(path.read_text())
        assert payload["schema"] == ENVELOPE_SCHEMA
        assert payload["command"] == "fault"
        assert payload["data"] == {"ok": True}

    def test_write_to_stdout(self, capsys):
        write_envelope("-", "check", {"runs": []})
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "check"


class TestFlagResolution:
    def _parser(self):
        parser = argparse.ArgumentParser(prog="t")
        add_json_arg(parser)
        return parser

    def test_json_flag(self):
        args = self._parser().parse_args(["--json", "out.json"])
        assert args.json_out == "out.json"

    def test_default_is_none(self):
        args = self._parser().parse_args([])
        assert args.json_out is None


class TestCommandIntegration:
    """Every repro subcommand speaks the same envelope."""

    def test_fault_json(self, tmp_path, capsys, monkeypatch):
        from repro.fault.cli import main as fault_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "fault.json"
        rc = fault_main(
            [
                "--workload",
                "stream-write",
                "--scale",
                "0.05",
                "--sample",
                "3",
                "--no-minimize",
                "--json",
                str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == ENVELOPE_SCHEMA
        assert payload["command"] == "fault"
        assert payload["data"]["counts"]["ok"] >= 1

    def test_check_json_stdout(self, capsys):
        from repro.check.cli import main as check_main

        rc = check_main(
            ["--workload", "stream-write", "--scale", "0.3", "--json", "-"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["command"] == "check"
        assert payload["data"]["mode"] == "sanitized"
        assert payload["data"]["failures"] == 0

    def test_litmus_run_json(self, tmp_path, capsys, monkeypatch):
        from repro.litmus.cli import main as litmus_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "litmus.json"
        rc = litmus_main(["run", "--seeds", "1", "--json", str(out)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == ENVELOPE_SCHEMA
        assert payload["command"] == "litmus"
        assert payload["data"]["mode"] == "run"
        assert payload["data"]["forbidden"] == 0
        assert payload["data"]["verdicts"][0]["crash_points"] > 0

    def test_litmus_generate_json_stdout(self, capsys):
        from repro.litmus.cli import main as litmus_main

        rc = litmus_main(["generate", "--seeds", "0,1", "--json", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["command"] == "litmus"
        assert payload["data"]["mode"] == "generate"
        assert len(payload["data"]["programs"]) == 2
