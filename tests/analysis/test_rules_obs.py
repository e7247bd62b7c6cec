"""OBS001: no ``print()`` in library code — fixture-driven rule tests."""

from __future__ import annotations

import textwrap

from repro.analysis.core import available_rules, run_lint


def lint_snippet(tmp_path, relpath, source, rules=("OBS001",)):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([path], rules=list(rules), root=tmp_path).findings


class TestNoPrintInLibraryRule:
    def test_registered(self):
        assert "OBS001" in available_rules()

    def test_print_in_library_module_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/engine/fake.py",
            """
            def report(x):
                print(x)
            """,
        )
        assert [f.rule for f in findings] == ["OBS001"]
        assert "repro.obs.get_logger" in findings[0].message

    def test_cli_module_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/cli.py",
            """
            def main():
                print("usage: ...")
            """,
        )
        assert findings == ()

    def test_textplot_module_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/util/textplot.py",
            """
            def render():
                print("|####|")
            """,
        )
        assert [f.rule for f in findings] == ["OBS001"]

    def test_non_repro_file_out_of_scope(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "scripts/tool.py",
            """
            print("hello")
            """,
        )
        assert findings == ()

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/experiments/fake.py",
            """
            def main():
                print("the artefact")  # repro: noqa[OBS001] - stdout is the artefact
            """,
        )
        assert findings == ()

    def test_docstring_example_not_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/service/fake.py",
            '''
            """Example::

                print(payload["mean_makespan"])
            """

            def quiet():
                return None
            ''',
        )
        assert findings == ()

    def test_shadowed_print_method_not_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/service/fake.py",
            """
            def report(printer):
                printer.print("ok")
            """,
        )
        assert findings == ()

    def test_repo_library_tree_is_print_clean(self):
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        report = run_lint([src], rules=["OBS001"], root=src.parent)
        assert report.findings == ()
