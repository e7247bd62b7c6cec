"""Tests for the unified command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.engine.dispatch import available_engines
from repro.protocols.aloha import SlottedAloha
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.scenarios.spec import build_protocol


class TestBuildProtocol:
    """Protocol construction from spec strings.

    (The deprecated ``repro.cli.build_protocol`` wrapper is gone;
    :func:`repro.scenarios.spec.build_protocol` is the one place protocol
    construction lives, and the CLI assembles spec strings for it.)
    """

    def test_paper_protocols_default_parameters(self):
        assert isinstance(build_protocol("one-fail-adaptive", k=100), OneFailAdaptive)
        assert isinstance(build_protocol("exp-backon-backoff", k=100), ExpBackonBackoff)

    def test_delta_override(self):
        assert build_protocol("one-fail-adaptive(delta=2.9)", k=10).delta == 2.9
        assert build_protocol("exp-backon-backoff(delta=0.2)", k=10).delta == 0.2

    def test_knowledge_protocols_receive_k(self):
        lfa = build_protocol("log-fails-adaptive(xi_t=0.1)", k=499)
        assert isinstance(lfa, LogFailsAdaptive)
        assert lfa.epsilon == pytest.approx(1 / 500)
        assert lfa.xi_t == 0.1
        aloha = build_protocol("slotted-aloha", k=77)
        assert isinstance(aloha, SlottedAloha)
        assert aloha.k == 77

    def test_backoff_family(self):
        assert build_protocol("loglog-iterated-backoff", k=10).name == "loglog-iterated-backoff"
        assert build_protocol("exponential-backoff", k=10).name == "exponential-backoff"

    def test_cli_wrappers_removed(self):
        import repro.cli

        assert not hasattr(repro.cli, "build_protocol")
        assert not hasattr(repro.cli, "build_arrivals")


class TestSimulateCommand:
    def test_runs_and_prints_result(self, capsys):
        assert main(["simulate", "one-fail-adaptive k=200 seed=4"]) == 0
        output = capsys.readouterr().out
        assert "steps per node" in output
        assert "One-Fail Adaptive" in output
        assert "hash" not in output

    def test_windowed_protocol(self, capsys):
        assert main(["simulate", "exp-backon-backoff k=100"]) == 0
        assert "window" in capsys.readouterr().out

    def test_engine_override(self, capsys):
        assert main(["simulate", "one-fail-adaptive k=30 engine=slot"]) == 0
        assert "slot" in capsys.readouterr().out

    def test_unknown_protocol_is_clean_error(self, capsys):
        assert main(["simulate", "not-a-protocol k=10"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_poisson_arrivals(self, capsys):
        assert main(["simulate", "one-fail-adaptive k=16 arrivals=poisson(rate=0.2)"]) == 0
        output = capsys.readouterr().out
        assert "PoissonArrival" in output
        assert "mean latency" in output

    def test_bursty_arrivals(self, capsys):
        assert main(["simulate", "one-fail-adaptive k=16 arrivals=bursty(bursts=2,gap=50)"]) == 0
        assert "BurstyArrival" in capsys.readouterr().out

    def test_arrivals_reject_specialised_engine(self, capsys):
        assert main(["simulate", "one-fail-adaptive k=16 arrivals=poisson(rate=0.2) "
                     "engine=fair"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: engine 'fair' cannot serve arrival processes")
        assert err.count("\n") == 1

    def test_replications_belong_to_run(self, capsys):
        assert main(["simulate", "one-fail-adaptive k=16 reps=3"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "repro run" in err

    def test_scenario_file(self, capsys, tmp_path):
        from repro.scenarios import Scenario

        path = tmp_path / "cell.toml"
        path.write_text(Scenario.parse("exp-backon-backoff k=50 seed=3").to_toml(),
                        encoding="utf-8")
        assert main(["simulate", str(path)]) == 0
        assert "Exp Back-on/Back-off" in capsys.readouterr().out

    def test_retired_flags_are_refused(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--protocol", "one-fail-adaptive", "--k", "16"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --protocol" in capsys.readouterr().err


class TestOtherCommands:
    def test_protocols_listing(self, capsys):
        assert main(["protocols"]) == 0
        output = capsys.readouterr().out
        assert "one-fail-adaptive" in output
        assert "required knowledge" in output

    def test_figure1_forwarding(self, capsys):
        assert main(["figure1", "--max-k", "100", "--runs", "1", "--quiet"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_table1_forwarding(self, capsys):
        assert main(["table1", "--max-k", "100", "--runs", "1", "--quiet"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_figure1_workers_flag(self, capsys):
        assert main(["figure1", "--max-k", "100", "--runs", "1", "--quiet",
                     "--workers", "2"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_dynamic_forwarding(self, capsys):
        assert main(["dynamic", "--k", "16", "--runs", "1"]) == 0
        output = capsys.readouterr().out
        assert "mean latency" in output
        assert "poisson" in output

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["table1", "--max-k", "5"], "max_k=5 is smaller than the smallest size, 10"),
            (["table1", "--runs", "0"], "runs must be positive, got 0"),
            (["table1", "--workers", "-1"], "workers must be >= 0"),
            (["figure1", "--runs", "0"], "runs must be positive, got 0"),
            (["dynamic", "--k", "1"], "k must be at least 2, got 1"),
        ],
    )
    def test_bad_experiment_value_is_clean_error(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunCommand:
    def test_spec_string_scenario(self, capsys):
        assert main(["run", "one-fail-adaptive(delta=2.72) k=100 reps=2 seed=5"]) == 0
        output = capsys.readouterr().out
        assert "hash" in output
        assert "new runs" in output
        assert "mean makespan" in output

    def test_json_output(self, capsys):
        import json

        assert main(["run", "one-fail-adaptive k=100 reps=2 seed=5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["new_runs"] == 2
        assert payload["cached_runs"] == 0
        assert payload["engine"] == "fair"
        assert len(payload["results"]) == 2
        assert payload["hash"]

    def test_store_reports_cache_hits_on_rerun(self, capsys, tmp_path):
        import json

        spec = "one-fail-adaptive k=80 reps=3 seed=9"
        assert main(["run", spec, "--store", str(tmp_path), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["run", spec, "--store", str(tmp_path), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["new_runs"] == 3
        assert second["new_runs"] == 0
        assert second["cached_runs"] == 3
        assert second["results"] == first["results"]

    def test_toml_file_scenario(self, capsys, tmp_path):
        from repro.scenarios import Scenario

        scenario = Scenario.parse("exp-backon-backoff k=50 reps=2 seed=3")
        path = tmp_path / "cell.toml"
        path.write_text(scenario.to_toml(), encoding="utf-8")
        assert main(["run", str(path)]) == 0
        assert "exp-backon-backoff" in capsys.readouterr().out

    def test_replication_and_seed_overrides(self, capsys):
        import json

        assert main(["run", "one-fail-adaptive k=60", "--reps", "4", "--seed", "11",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["replications"] == 4
        assert payload["scenario"]["seed"] == 11

    def test_unknown_protocol_is_clean_error(self, capsys):
        assert main(["run", "not-a-protocol k=10"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_malformed_scenario_is_clean_error(self, capsys):
        assert main(["run", "one-fail-adaptive k=10 nonsense=1"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_unknown_arrivals_is_clean_error(self, capsys):
        assert main(["simulate", "one-fail-adaptive k=8 arrivals=nope"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_collision_detection_protocol_without_it_is_clean_error(self, capsys, command):
        assert main([command, "binary-splitting k=4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: 'binary-splitting' needs collision detection")
        assert "channel=cd" in err
        assert err.count("\n") == 1
        assert main([command, "binary-splitting k=4 channel=cd"]) == 0


class TestMachineReadableSimulate:
    def test_simulate_json_payload(self, capsys):
        import json

        assert main(["simulate", "one-fail-adaptive k=120", "--seed", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "fair"
        assert payload["seed"] == 6
        assert payload["makespan"] >= 120
        assert "scenario_hash" not in payload
        assert payload["scenario"] == "one-fail-adaptive k=120 seed=6"

    @pytest.mark.parametrize(
        "text,engine",
        [
            ("one-fail-adaptive k=120", "fair"),
            ("exp-backon-backoff k=90", "window"),
            ("one-fail-adaptive k=32 arrivals=poisson(rate=0.2)", "slot"),
        ],
    )
    def test_json_equals_the_library_run(self, text, engine, capsys):
        import json

        from repro.engine.dispatch import simulate
        from repro.scenarios import Scenario

        assert main(["simulate", text, "--seed", "9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        scenario = Scenario.parse(text)
        assert payload.pop("scenario") == scenario.replace(seed=9).format()
        expected = simulate(
            scenario.build_protocol(), scenario.k, seed=9,
            arrivals=scenario.build_arrivals(),
        )
        assert expected.engine == engine
        assert payload == json.loads(json.dumps(expected.to_dict()))

    @pytest.mark.parametrize("engine", available_engines())
    def test_engine_token_takes_every_engine(self, engine, capsys):
        """Every ``engine=`` selector runs; a new engine needs a row here."""
        import json

        protocol, resolved = {
            "auto": ("one-fail-adaptive", "fair"),
            "fair": ("one-fail-adaptive", "fair"),
            "slot": ("one-fail-adaptive", "slot"),
            "window": ("exp-backon-backoff", "window"),
        }[engine]
        assert main(["simulate", f"{protocol} k=24 engine={engine}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["engine"] == resolved

    def test_parser_takes_a_scenario_seed_and_json(self):
        parser = build_parser()
        sim_parser = next(
            action for action in parser._subparsers._group_actions
        ).choices["simulate"]
        options = {action.dest for action in sim_parser._actions} - {"help"}
        assert options == {"scenario", "seed", "json"}
