"""The ``repro lint`` CLI: formats, exit codes, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

BAD_SOURCE = "try:\n    pass\nexcept:\n    pass\n"


@pytest.fixture
def bad_tree(tmp_path):
    path = tmp_path / "repro" / "util" / "fake.py"
    path.parent.mkdir(parents=True)
    path.write_text(BAD_SOURCE, encoding="utf-8")
    return tmp_path


def run_cli(*args):
    return main(["lint", *args])


class TestExitCodes:
    def test_findings_exit_1(self, bad_tree, capsys):
        assert run_cli(str(bad_tree), "--rule", "EXC001") == 1
        out = capsys.readouterr().out
        assert "EXC001" in out and "1 finding(s)" in out

    def test_clean_exit_0(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert run_cli(str(tmp_path), "--rule", "EXC001") == 0

    def test_unknown_rule_exit_2(self, tmp_path, capsys):
        assert run_cli(str(tmp_path), "--rule", "NOPE999") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_bad_target_exit_2(self, tmp_path, capsys):
        target = tmp_path / "notes.txt"
        target.write_text("hi", encoding="utf-8")
        assert run_cli(str(target)) == 2


class TestOutput:
    def test_json_format_is_machine_readable(self, bad_tree, capsys):
        assert run_cli(str(bad_tree), "--rule", "EXC001", "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "EXC001"
        assert payload["rules"] == ["EXC001"]

    def test_list_rules(self, capsys):
        assert run_cli("--list-rules") == 0
        out = capsys.readouterr().out
        for rule_id in ("RND001", "CLK001", "LCK001", "EXC001", "ANN001", "OBS001"):
            assert rule_id in out


class TestRepositoryTree:
    """The acceptance criteria: the shipped tree lints clean, deterministically."""

    def test_src_is_lint_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True and payload["files"] > 50

    def test_two_runs_produce_identical_json(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        main(["lint", "src", "--format", "json"])
        first = capsys.readouterr().out
        main(["lint", "src", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
