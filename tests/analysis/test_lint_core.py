"""The lint framework itself: findings, suppression, cache, baseline, registry."""

from __future__ import annotations

import json

import pytest

from repro.analysis.core import (
    Baseline,
    Finding,
    available_rules,
    load_module,
    rule_class,
    rule_classes,
    run_lint,
)


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


class TestFinding:
    def test_ordering_is_by_location(self):
        a = Finding("a.py", 1, "X001", "m")
        b = Finding("a.py", 2, "X001", "m")
        c = Finding("b.py", 1, "X001", "m")
        assert sorted([c, b, a]) == [a, b, c]

    def test_fingerprint_excludes_line(self):
        a = Finding("a.py", 1, "X001", "m")
        b = Finding("a.py", 99, "X001", "m")
        assert a.fingerprint == b.fingerprint

    def test_format_and_dict_round_trip(self):
        finding = Finding("pkg/mod.py", 7, "RND001", "boom")
        assert finding.format() == "pkg/mod.py:7: RND001 boom"
        assert finding.to_dict() == {
            "path": "pkg/mod.py",
            "line": 7,
            "rule": "RND001",
            "message": "boom",
        }


class TestRegistry:
    def test_builtin_rules_are_registered(self):
        ids = available_rules()
        for expected in (
            "RND001", "CLK001", "LCK001", "LCK002",
            "EXC001", "EXC002", "EXC003",
            "ANN001", "ANN002",
            "REG001", "REG002", "REG003",
        ):
            assert expected in ids

    def test_rule_classes_declare_metadata(self):
        for cls in rule_classes():
            assert cls.id and cls.name and cls.description

    def test_unknown_rule_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown rule"):
            rule_class("NOPE999")


class TestModuleLoading:
    def test_module_name_from_repro_root(self, tmp_path):
        path = write(tmp_path, "repro/engine/fake.py", "x = 1\n")
        info = load_module(path)
        assert info.module == "repro.engine.fake"

    def test_module_name_outside_repro_tree(self, tmp_path):
        path = write(tmp_path, "standalone.py", "x = 1\n")
        assert load_module(path).module == "standalone"

    def test_cache_serves_unchanged_files(self, tmp_path):
        path = write(tmp_path, "m.py", "x = 1\n")
        first = load_module(path)
        assert load_module(path) is first

    def test_cache_invalidates_on_content_change(self, tmp_path):
        path = write(tmp_path, "m.py", "x = 1\n")
        first = load_module(path)
        path.write_text("x = 1  # changed\n", encoding="utf-8")
        second = load_module(path)
        assert second is not first
        assert "changed" in second.source

    def test_noqa_parsing(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "a = 1  # repro: noqa\n"
            "b = 2  # repro: noqa[CLK001]\n"
            "c = 3  # repro: noqa[CLK001, RND001]\n"
            "d = 4\n",
        )
        info = load_module(path)
        assert info.suppressed(1, "ANYTHING")
        assert info.suppressed(2, "CLK001") and not info.suppressed(2, "RND001")
        assert info.suppressed(3, "RND001")
        assert not info.suppressed(4, "CLK001")


class TestRunLint:
    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        write(tmp_path, "bad.py", "def broken(:\n")
        report = run_lint([tmp_path], rules=["EXC001"], root=tmp_path)
        assert [f.rule for f in report.findings] == ["parse-error"]

    def test_non_python_target_is_rejected(self, tmp_path):
        target = write(tmp_path, "notes.txt", "hello")
        with pytest.raises(ValueError, match="neither a directory nor a .py"):
            run_lint([target], rules=["EXC001"])

    def test_pycache_is_skipped(self, tmp_path):
        write(tmp_path, "__pycache__/junk.py", "try:\n    pass\nexcept:\n    pass\n")
        report = run_lint([tmp_path], rules=["EXC001"], root=tmp_path)
        assert report.files == 0 and report.clean

    def test_report_paths_are_relative_to_root(self, tmp_path):
        write(tmp_path, "pkg/mod.py", "try:\n    pass\nexcept:\n    pass\n")
        report = run_lint([tmp_path], rules=["EXC001"], root=tmp_path)
        assert report.findings[0].path == "pkg/mod.py"

    def test_suppressed_findings_are_counted_not_reported(self, tmp_path):
        write(
            tmp_path,
            "m.py",
            "try:\n    pass\nexcept:  # repro: noqa[EXC001]\n    pass\n",
        )
        report = run_lint([tmp_path], rules=["EXC001"], root=tmp_path)
        assert report.clean and report.suppressed == 1


class TestBaseline:
    SOURCE = "try:\n    pass\nexcept:\n    pass\n"

    def test_round_trip_absorbs_existing_findings(self, tmp_path):
        write(tmp_path, "m.py", self.SOURCE)
        report = run_lint([tmp_path], rules=["EXC001"], root=tmp_path)
        assert len(report.findings) == 1
        baseline = Baseline.from_findings(report.findings)
        again = run_lint([tmp_path], rules=["EXC001"], baseline=baseline, root=tmp_path)
        assert again.clean and again.baselined == 1

    def test_baseline_is_a_budget_not_a_blanket(self, tmp_path):
        write(tmp_path, "m.py", self.SOURCE)
        report = run_lint([tmp_path], rules=["EXC001"], root=tmp_path)
        baseline = Baseline.from_findings(report.findings)
        # A second occurrence of the same fingerprint exceeds the budget.
        write(tmp_path, "m.py", self.SOURCE + "\ntry:\n    pass\nexcept:\n    pass\n")
        again = run_lint([tmp_path], rules=["EXC001"], baseline=baseline, root=tmp_path)
        assert len(again.findings) == 1 and again.baselined == 1

    def test_save_and_load(self, tmp_path):
        baseline = Baseline({"EXC001::m.py::bare `except:`": 2})
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.counts == baseline.counts
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").counts == {}
