"""CLI tests for the service subcommands: ``serve`` wiring, ``submit``, ``store``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import Scenario, Session
from repro.service import create_server

SPEC = "one-fail-adaptive k=48 reps=3 seed=11"


@pytest.fixture
def server(tmp_path):
    server = create_server(port=0, store_dir=tmp_path / "store", quiet=True)
    server.start_background()
    yield server
    server.close()


class TestSubmitCommand:
    def test_submit_round_trip(self, capsys, server):
        assert main(["submit", SPEC, "--url", server.url]) == 0
        output = capsys.readouterr().out
        assert "new runs" in output
        assert Scenario.parse(SPEC).content_hash() in output

    def test_resubmit_reports_cached_json(self, capsys, server):
        assert main(["submit", SPEC, "--url", server.url, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cached"] is False
        assert first["new_runs"] == 3
        assert main(["submit", SPEC, "--url", server.url, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cached"] is True
        assert second["new_runs"] == 0
        assert second["cached_runs"] == 3

    def test_no_wait_prints_job_id(self, capsys, server):
        assert main(["submit", SPEC, "--url", server.url, "--no-wait", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["job_id"].startswith("job-")
        assert payload["hash"] == Scenario.parse(SPEC).content_hash()

    def test_overrides_apply_before_submission(self, capsys, server):
        assert main(["submit", SPEC, "--url", server.url, "--reps", "2", "--seed", "99",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 2
        assert payload["scenario"]["seed"] == 99

    def test_unreachable_server_is_clean_error(self, capsys):
        assert main(["submit", SPEC, "--url", "http://127.0.0.1:9", "--timeout", "2"]) == 2
        assert "service error" in capsys.readouterr().err

    def test_bad_spec_is_clean_error(self, capsys, server):
        assert main(["submit", "no-such-protocol k=10", "--url", server.url]) == 2
        assert "error" in capsys.readouterr().err


class TestStoreCommand:
    def test_lists_scenarios_on_record(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        Session(store_dir=store_dir).run(Scenario.parse(SPEC))
        assert main(["store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert Scenario.parse(SPEC).content_hash() in output
        assert "3/3" in output

    def test_json_records(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        Session(store_dir=store_dir).run(Scenario.parse(SPEC))
        assert main(["store", str(store_dir), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["hash"] == Scenario.parse(SPEC).content_hash()
        assert records[0]["solved_fraction"] == 1.0

    def test_empty_store_directory(self, capsys, tmp_path):
        assert main(["store", str(tmp_path)]) == 0
        assert "no scenarios on record" in capsys.readouterr().out

    def test_missing_directory_is_clean_error(self, capsys, tmp_path):
        assert main(["store", str(tmp_path / "absent")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_lists_sqlite_store_via_spec(self, capsys, tmp_path):
        spec = f"sqlite:{tmp_path / 'store.db'}"
        Session(store_dir=spec).run(Scenario.parse(SPEC))
        assert main(["store", spec]) == 0
        output = capsys.readouterr().out
        assert Scenario.parse(SPEC).content_hash() in output
        assert "3/3" in output

    def test_missing_sqlite_store_is_clean_error(self, capsys, tmp_path):
        assert main(["store", f"sqlite:{tmp_path / 'absent.db'}"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestStoreMigrateCommand:
    def test_migrate_jsonl_to_sqlite_then_serves_cached(self, capsys, tmp_path):
        src = tmp_path / "src"
        dst = f"sqlite:{tmp_path / 'dst.db'}"
        Session(store_dir=src).run(Scenario.parse(SPEC))
        assert main(["store", "migrate", str(src), dst]) == 0
        assert "migrated 3 replication(s) across 1 scenario(s)" in capsys.readouterr().out
        # The migrated store serves the scenario with zero new simulations.
        assert main(["run", SPEC, "--store", dst, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["new_runs"] == 0
        assert payload["cached_runs"] == 3

    def test_migrate_is_idempotent(self, capsys, tmp_path):
        src = tmp_path / "src"
        dst = f"sqlite:{tmp_path / 'dst.db'}"
        Session(store_dir=src).run(Scenario.parse(SPEC))
        assert main(["store", "migrate", str(src), dst, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["store", "migrate", str(src), dst, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["replications_copied"] == 3
        assert second["replications_copied"] == 0

    def test_migrate_cleans_lock_sidecars(self, capsys, tmp_path):
        src = tmp_path / "src"
        Session(store_dir=src).run(Scenario.parse(SPEC))
        assert list(src.glob("*.jsonl.lock"))
        assert main(["store", "migrate", str(src), f"sqlite:{tmp_path / 'dst.db'}"]) == 0
        assert not list(src.glob("*.jsonl.lock"))

    def test_migrate_missing_source_is_clean_error(self, capsys, tmp_path):
        assert main(["store", "migrate", str(tmp_path / "absent"), str(tmp_path / "d")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_migrate_usage_error(self, capsys, tmp_path):
        assert main(["store", "migrate", str(tmp_path)]) == 2
        assert "usage" in capsys.readouterr().err

    def test_migrate_to_running_server(self, capsys, tmp_path, server):
        src = tmp_path / "src"
        Session(store_dir=src).run(Scenario.parse(SPEC))
        assert main(["store", "migrate", str(src), server.url]) == 0
        assert "migrated 3 replication(s)" in capsys.readouterr().out
        assert main(["submit", SPEC, "--url", server.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cached"] is True
        assert payload["new_runs"] == 0


class TestStoreCompactCommand:
    def test_compact_reports_and_preserves(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        Session(store_dir=store_dir).run(Scenario.parse(SPEC))
        assert main(["store", "compact", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "compacted 1 scenario(s)" in out
        assert "1 lock file(s) removed" in out
        assert main(["run", SPEC, "--store", str(store_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["new_runs"] == 0


class TestRunWithSqliteStore:
    def test_run_resumes_from_sqlite_spec(self, capsys, tmp_path):
        spec = f"sqlite:{tmp_path / 'results.db'}"
        assert main(["run", SPEC, "--store", spec, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["new_runs"] == 3
        assert main(["run", SPEC, "--store", spec, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["new_runs"] == 0
        assert second["cached_runs"] == 3


class TestServeParser:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0", "--store", "s", "--job-workers", "2"])
        assert args.port == 0
        assert args.job_workers == 2
        assert args.func.__name__ == "_cmd_serve"

    @pytest.mark.parametrize("command", ["serve", "run"])
    def test_batch_flags_are_gone(self, command, capsys):
        from repro.cli import build_parser

        for flag in ("--batch", "--no-batch"):
            argv = [command, flag] if command == "serve" else [command, "one-fail-adaptive", flag]
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
