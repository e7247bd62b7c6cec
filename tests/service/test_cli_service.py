"""CLI tests for the service subcommands: ``serve`` wiring, ``submit``, ``store``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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
    @pytest.mark.parametrize(
        "form",
        ["{tmp}/store", "chaos:jsonl:{tmp}/store?seed=1", "chaos:sqlite:{tmp}/store.db?seed=1"],
        ids=["dir", "chaos-jsonl", "chaos-sqlite"],
    )
    def test_lists_scenarios_on_record(self, capsys, tmp_path, form):
        spec = form.format(tmp=tmp_path)
        Session(store_dir=spec).run(Scenario.parse(SPEC))
        assert main(["store", spec]) == 0
        output = capsys.readouterr().out
        assert Scenario.parse(SPEC).content_hash() in output
        assert "3/3" in output

    def test_lists_a_service_store_by_url(self, capsys, tmp_path, monkeypatch, server):
        server.session.run(Scenario.parse(SPEC))
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["store", server.url, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [record["hash"] for record in records] == [Scenario.parse(SPEC).content_hash()]
        assert list(workdir.iterdir()) == []

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

    def test_unreachable_service_is_clean_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["store", "http://127.0.0.1:9"]) == 2
        assert "repro: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        # Appends make no sidecar; this one is an earlier version's.
        (src / f"{Scenario.parse(SPEC).content_hash()}.jsonl.lock").touch()
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
        # Appends make no sidecar; this one is an earlier version's.
        (store_dir / f"{Scenario.parse(SPEC).content_hash()}.jsonl.lock").touch()
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


class TestStoreSpecErrors:
    @pytest.mark.parametrize("spec", ["jsonl:", "sqlite:", "chaos:"])
    def test_run_refuses_a_scheme_without_location(self, capsys, tmp_path, monkeypatch, spec):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "one-fail-adaptive k=8 reps=1", "--store", spec]) == 2
        error = capsys.readouterr().err
        assert error == f"repro: error: store spec {spec!r} names no location\n"
        assert list(tmp_path.iterdir()) == []

    def test_serve_refuses_it_before_listening(self, tmp_path):
        # A child process: a server that does listen would serve until the
        # timeout instead of hanging the test run.
        src = Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", "sqlite:"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert "store spec 'sqlite:' names no location" in result.stderr
        assert list(tmp_path.iterdir()) == []


class TestRunWithServiceStore:
    def test_run_pushes_to_the_service_and_resumes_from_it(
        self, capsys, tmp_path, monkeypatch, server
    ):
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["run", SPEC, "--store", server.url, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["new_runs"] == 3
        assert main(["submit", SPEC, "--url", server.url, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cached"] is True
        assert main(["run", SPEC, "--store", server.url, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["new_runs"] == 0
        assert list(workdir.iterdir()) == []


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
