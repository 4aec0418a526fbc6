"""Subsystem partition + per-subsystem content hashing (repro.deps)."""

import subprocess

import pytest

from repro.deps import (
    SUBSYSTEMS,
    DepsError,
    changed_subsystems_since,
    deps_token,
    package_root,
    subsystem_for_module,
    subsystem_for_path,
    subsystem_hashes,
    subsystem_hashes_at_rev,
)


def _in_git_checkout() -> bool:
    try:
        subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"],
            cwd=package_root(),
            capture_output=True,
            check=True,
        )
        return True
    except (OSError, subprocess.CalledProcessError):
        return False


class TestPartition:
    @pytest.mark.parametrize(
        "relpath, subsystem",
        [
            ("arch/system.py", "arch"),
            ("ir/module.py", "compiler"),
            ("compiler/pipeline.py", "compiler"),
            ("sweep/engine.py", "eval"),
            ("eval/figures.py", "eval"),
            ("isa/machine.py", "core"),
            ("deps/probe.py", "core"),
            ("api.py", "core"),
            ("jsonout.py", "eval"),
            ("check/checker.py", "check"),
            ("fault/campaign.py", "fault"),
            ("trace/codec.py", "trace"),
            ("workloads/registry.py", "workloads"),
            ("service/daemon.py", "core"),  # retired subsystem: old revs still hash
        ],
    )
    def test_path_mapping(self, relpath, subsystem):
        assert subsystem_for_path(relpath) == subsystem

    def test_unknown_top_level_falls_back_to_core(self):
        assert subsystem_for_path("new_layer/thing.py") == "core"

    @pytest.mark.parametrize(
        "module, subsystem",
        [
            ("repro", "core"),
            ("repro.api", "core"),
            ("repro.jsonout", "eval"),
            ("repro.ir.module", "compiler"),
            ("repro.arch.persistence", "arch"),
            ("repro.sweep.cache", "eval"),
            ("os.path", None),
            ("reprotastic", None),
        ],
    )
    def test_module_mapping(self, module, subsystem):
        assert subsystem_for_module(module) == subsystem

    def test_every_source_file_lands_in_a_declared_subsystem(self):
        root = package_root()
        for path in root.rglob("*.py"):
            rel = path.relative_to(root).as_posix()
            assert subsystem_for_path(rel) in SUBSYSTEMS, rel


class TestHashes:
    def test_covers_every_subsystem(self):
        hashes = subsystem_hashes()
        assert set(hashes) == set(SUBSYSTEMS)
        assert all(len(h) == 16 for h in hashes.values())

    def test_deterministic(self):
        assert subsystem_hashes() == subsystem_hashes()

    def test_single_subsystem_edit_moves_only_its_hash(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "arch").mkdir(parents=True)
        (pkg / "eval").mkdir()
        (pkg / "arch" / "a.py").write_text("x = 1\n")
        (pkg / "eval" / "b.py").write_text("y = 2\n")
        before = subsystem_hashes(package=pkg)
        (pkg / "arch" / "a.py").write_text("x = 3\n")
        after = subsystem_hashes(package=pkg)
        assert before["arch"] != after["arch"]
        assert before["eval"] == after["eval"]
        assert before["core"] == after["core"]  # both empty

    def test_salting_every_subsystem_moves_all_hashes(self, monkeypatch):
        def salt_all(tag):
            return ",".join(f"{name}={tag}" for name in SUBSYSTEMS)

        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", salt_all("vA"))
        a = subsystem_hashes()
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", salt_all("vB"))
        b = subsystem_hashes()
        assert all(a[name] != b[name] for name in SUBSYSTEMS)

    def test_salt_perturbs_named_subsystems_only(self, monkeypatch):
        base = subsystem_hashes()
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "arch=zap")
        salted = subsystem_hashes()
        assert salted["arch"] != base["arch"]
        for name in SUBSYSTEMS:
            if name != "arch":
                assert salted[name] == base[name]

    def test_deps_token_filters_unknown_names(self):
        token = deps_token(["arch", "core", "no-such-layer"])
        assert set(token) == {"arch", "core"}
        hashes = subsystem_hashes()
        assert token["arch"] == hashes["arch"]


@pytest.mark.skipif(
    not _in_git_checkout(), reason="needs the repository's git history"
)
class TestGitRev:
    def test_head_hashes_match_clean_working_tree_scan(self):
        # Any difference between HEAD and the working tree is exactly the
        # uncommitted edits — changed_subsystems_since reports those.
        at_head = subsystem_hashes_at_rev("HEAD")
        assert set(at_head) == set(SUBSYSTEMS)
        changed = changed_subsystems_since("HEAD")
        current = subsystem_hashes()
        for name in SUBSYSTEMS:
            if name in changed:
                assert at_head[name] != current[name]
            else:
                assert at_head[name] == current[name]

    def test_bad_rev_raises_deps_error(self):
        with pytest.raises(DepsError):
            subsystem_hashes_at_rev("no-such-rev-xyzzy")
