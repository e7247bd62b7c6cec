"""Unified command-line interface: ``python -m repro <command>``.

Subcommands:

* ``simulate``  — run one replication of a scenario (the same spec string or
  ``.toml``/``.json`` file ``run`` takes) with exactly its seed, as
  :func:`~repro.engine.dispatch.simulate` does, and print the result;
  ``--json`` emits ``SimulationResult.to_dict()`` plus the scenario string;
* ``run``       — execute a declarative scenario (a compact spec string or a
  ``.toml``/``.json`` scenario file) through a
  :class:`~repro.scenarios.session.Session`, optionally backed by a
  persistent ``--store`` (a JSONL directory, a store spec like
  ``sqlite:results.db``, or a service URL) that serves completed
  replications on re-run;
* ``serve``     — run the simulation service (:mod:`repro.service`): a
  threaded HTTP/JSON server with a dedup'ing FIFO job queue over one shared
  session;
* ``submit``    — submit a scenario to a running service (``--url``) instead
  of simulating locally; waits for completion and prints the result;
* ``store``     — inspect and manage result stores (any spec, or a running
  service URL): ``repro store <spec>`` lists the scenarios on record,
  ``repro store migrate <src> <dst>`` copies missing replications between
  any two stores via :func:`repro.scenarios.federation.sync`, and ``repro
  store compact <spec>`` reclaims space and removes lock litter;
* ``trace``     — summarise a span trace log (:mod:`repro.obs`): per-stage
  latency breakdown and the slowest traces, from the ``trace.jsonl`` the
  service writes next to its store;
* ``protocols`` — list the protocols and the knowledge they need;
* ``lint``      — run the invariant checker (:mod:`repro.analysis`) over the
  source tree: seeded-randomness discipline, monotonic-clock discipline,
  lock discipline, exception hygiene, annotation coverage and no ``print()``
  in library code; exits non-zero on findings so it can gate CI;
* ``figure1``, ``table1``, ``dynamic`` — reproduce Figure 1 and Table 1 and
  run the dynamic-arrivals experiment (:mod:`repro.experiments`), printing
  what those modules render and writing ``--output-dir`` artefacts.

This is the only module that reads the command line or writes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ProtocolSpec
    from repro.scenarios.store import StoreBackend
    from repro.service.wire import JobStatus

from repro.engine.dispatch import simulate
from repro.experiments.config import DEFAULT_RUNS, ExperimentConfig, paper_k_values
from repro.experiments.dynamic import run_dynamic_experiment
from repro.experiments.export import write_json, write_markdown, write_series_dat, write_sweep_csv
from repro.experiments.figure1 import reproduce_figure1
from repro.experiments.table1 import reproduce_table1
from repro.scenarios.scenario import Scenario
from repro.scenarios.session import ResultSet, Session
from repro.scenarios.spec import PROTOCOLS, SpecError
from repro.util.tables import format_text_table

__all__ = ["main"]


def _print_result_set(result_set: ResultSet) -> None:
    """Human-readable summary of a scenario execution."""
    scenario = result_set.scenario
    rows: list[list[object]] = [
        ["scenario", result_set.scenario.format()],
        ["hash", result_set.scenario_hash],
        ["engine", result_set.engine_used],
        ["replications", scenario.replications],
        ["new runs", result_set.new_runs],
        ["cached runs", result_set.cached_runs],
        ["solved", f"{len(result_set.solved_results)}/{scenario.replications}"],
    ]
    if result_set.makespans:
        rows.append(["mean makespan (slots)", f"{result_set.mean_makespan:.1f}"])
        rows.append(["mean steps per node", f"{result_set.mean_ratio:.3f}"])
    rows.append(["elapsed (s)", f"{result_set.elapsed_seconds:.3f}"])
    print(format_text_table(["metric", "value"], rows))


def _scenario_error(error: Exception) -> int:
    """Report a bad scenario/spec as a one-line CLI error (exit code 2)."""
    message = error.args[0] if error.args else error
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _cmd_simulate(args: argparse.Namespace) -> int:
    # One replication run with exactly the scenario's seed, as
    # simulate(..., seed=scenario.seed) would; a cell of replications, whose
    # seeds derive from the root seed, is `repro run`'s.
    try:
        scenario = _load_scenario(args.scenario, seed=args.seed)
        if scenario.replications != 1:
            raise ValueError(
                f"repro simulate runs one replication, got reps={scenario.replications}; "
                "use repro run for a cell of replications"
            )
        protocol = scenario.build_protocol()
        result = simulate(
            protocol,
            scenario.k,
            seed=scenario.seed,
            engine=scenario.engine,
            channel=scenario.build_channel(),
            arrivals=scenario.build_arrivals(),
            max_slots=scenario.max_slots(),
        )
    except (SpecError, KeyError, ValueError, OSError) as error:
        return _scenario_error(error)
    if args.json:
        payload = result.to_dict()
        payload["scenario"] = scenario.format()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.solved else 1
    rows = [
        ["protocol", protocol.label],
        ["k", scenario.k],
        ["seed", scenario.seed],
        ["engine", result.engine],
        ["arrivals", result.metadata.get("arrivals", "BatchArrival")],
        ["solved", result.solved],
        ["makespan (slots)", result.makespan if result.makespan is not None else "-"],
        ["steps per node", f"{result.steps_per_node:.3f}" if result.solved else "-"],
        ["collisions", result.collisions],
        ["silent slots", result.silences],
    ]
    latencies = result.metadata.get("latencies")
    if latencies:
        rows.append(["mean latency (slots)", f"{sum(latencies) / len(latencies):.1f}"])
    print(format_text_table(["metric", "value"], rows))
    return 0 if result.solved else 1


def _load_scenario(
    text: str, replications: int | None = None, seed: int | None = None
) -> Scenario:
    """Resolve the scenario argument shared by ``simulate``, ``run`` and ``submit``.

    ``text`` is a compact spec string or a ``.toml``/``.json`` file path;
    ``replications``/``seed`` override the loaded values.
    """
    path = Path(text)
    if path.suffix.lower() in (".toml", ".json") or path.is_file():
        scenario = Scenario.from_file(path)
    else:
        scenario = Scenario.parse(text)
    overrides: dict[str, object] = {}
    if replications is not None:
        overrides["replications"] = replications
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        scenario = scenario.replace(**overrides)
    return scenario


def _cmd_run(args: argparse.Namespace) -> int:
    # Every scenario-level failure — bad spec, unknown component name, missing
    # file, invalid parameter — reports as a one-line CLI error, not a
    # traceback, as in `simulate` and `submit`.
    try:
        scenario = _load_scenario(args.scenario, args.replications, args.seed)
        session = Session(store_dir=args.store, workers=args.workers)
        result_set = session.run(scenario)
    except (SpecError, KeyError, ValueError, OSError) as error:
        return _scenario_error(error)
    if args.json:
        print(json.dumps(result_set.to_dict(), indent=2, sort_keys=True))
    else:
        _print_result_set(result_set)
    return 0 if result_set.all_solved else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    try:
        return serve(
            host=args.host,
            port=args.port,
            store_dir=args.store,
            workers=args.workers,
            job_workers=args.job_workers,
            quiet=args.quiet,
            max_queue=args.max_queue,
            obs=args.obs,
        )
    except (OSError, ValueError) as error:  # e.g. port in use, a bad store spec
        return _scenario_error(error)


def _submit_progress_printer() -> Callable[[JobStatus], None]:
    """Progress callback for ``submit --wait``: one stderr line per change.

    Lines go to stderr so stdout stays exactly the result table (or the
    ``--json`` payload, which skips progress entirely).
    """

    def on_progress(status: JobStatus) -> None:
        print(
            f"repro: job {status.id}: {status.state} "
            f"{status.done}/{status.total} replication(s)",
            file=sys.stderr,
        )

    return on_progress


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.wire import JOB_FAILED

    client = ServiceClient(args.url, timeout=args.timeout)
    if args.cancel is not None:
        try:
            payload = client.cancel(args.cancel)
        except ServiceError as error:
            print(f"repro: service error: {error}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            verb = "cancelled" if payload.get("cancelled") else "cancelling"
            print(f"job {args.cancel}: {verb}")
        return 0
    if args.scenario is None:
        print("repro: error: a scenario (or --cancel JOB_ID) is required", file=sys.stderr)
        return 2
    try:
        scenario = _load_scenario(args.scenario, args.replications, args.seed)
    except (SpecError, KeyError, ValueError, OSError) as error:
        return _scenario_error(error)
    try:
        status = client.submit(scenario, deadline=args.deadline)
        # The disposition flags are per-submission, not per-job: a later
        # status poll never carries them, so capture them now.
        cached, deduplicated = status.cached, status.deduplicated
        if not args.wait:
            payload = {
                "job_id": status.id,
                "hash": status.hash,
                "state": status.state,
                "cached": cached,
                "deduplicated": deduplicated,
            }
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                rows = [[key, value] for key, value in payload.items()]
                print(format_text_table(["field", "value"], rows))
            return 0
        if not status.finished:
            on_progress = None if args.json else _submit_progress_printer()
            status = client.wait(status.id, timeout=args.timeout, on_progress=on_progress)
        if status.state == JOB_FAILED:
            print(f"repro: job {status.id} failed: {status.error}", file=sys.stderr)
            return 1
        payload = client.result(status.hash)
    except ServiceError as error:
        print(f"repro: service error: {error}", file=sys.stderr)
        return 2
    if args.json:
        payload["cached"] = cached
        payload["deduplicated"] = deduplicated
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            ["scenario", payload["scenario_string"]],
            ["hash", payload["hash"]],
            ["job", f"{status.id} ({'cached' if cached else status.state})"],
            ["engine", payload["engine"]],
            ["new runs", payload["new_runs"]],
            ["cached runs", payload["cached_runs"]],
            ["solved", f"{payload['solved_runs']}/{len(payload['results'])}"],
        ]
        if payload.get("mean_makespan") is not None:
            rows.append(["mean makespan (slots)", f"{payload['mean_makespan']:.1f}"])
            rows.append(["mean steps per node", f"{payload['mean_steps_per_node']:.3f}"])
        rows.append(["elapsed (s)", f"{payload['elapsed_seconds']:.3f}"])
        print(format_text_table(["metric", "value"], rows))
    return 0 if payload["solved_runs"] == len(payload["results"]) else 1


def _open_existing_store(spec: str) -> StoreBackend:
    """Open the store a ``repro store`` command reads, never creating it.

    Raises ``ValueError`` when the spec's local file or directory does not
    exist; a service URL is left to its requests.
    """
    from repro.scenarios.store import open_store, store_path

    path = store_path(spec)
    if path is not None and not path.exists():
        raise ValueError(f"store directory {path} does not exist")
    return open_store(spec)


def _cmd_store(args: argparse.Namespace) -> int:
    targets: list[str] = args.target
    if targets[0] == "migrate":
        return _store_migrate(targets[1:], json_output=args.json)
    if targets[0] == "compact":
        return _store_compact(targets[1:], json_output=args.json)
    if len(targets) != 1:
        print("repro: error: usage: repro store <spec> | migrate <src> <dst> | "
              "compact <spec>", file=sys.stderr)
        return 2
    return _store_list(targets[0], json_output=args.json)


def _store_list(spec: str, json_output: bool) -> int:
    from repro.service.client import ServiceError

    try:
        records = _open_existing_store(spec).summaries()
    except (ValueError, ServiceError) as error:
        return _scenario_error(error)
    if json_output:
        print(json.dumps([record.to_dict() for record in records], indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"store {spec}: no scenarios on record")
        return 0
    rows = [
        [
            record.hash,
            record.scenario.format(),
            f"{record.replications_on_record}/{record.scenario.replications}",
            f"{record.solved_runs} ({record.solved_fraction:.0%})",
        ]
        for record in records
    ]
    print(format_text_table(["hash", "scenario", "reps on record", "solved"], rows))
    return 0


def _store_migrate(targets: list[str], json_output: bool) -> int:
    """``repro store migrate <src> <dst>``: federation sync + lock cleanup."""
    from repro.scenarios.federation import sync
    from repro.scenarios.store import JsonlStore, open_store
    from repro.service.reliability import RetryPolicy

    if len(targets) != 2:
        print("repro: error: usage: repro store migrate <src> <dst>", file=sys.stderr)
        return 2
    try:
        endpoints = (_open_existing_store(targets[0]), open_store(targets[1]))
        report = sync(*endpoints, retry=RetryPolicy())
    except Exception as error:  # noqa: BLE001 - surfaced as a one-line CLI error
        return _scenario_error(error)
    # Migration is an offline moment: clear accumulated lock-sidecar litter
    # on both local JSONL endpoints (unsafe only under live writers).
    for store in endpoints:
        if isinstance(store, JsonlStore):
            store.clean_locks()
    if json_output:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"migrated {report.replications_copied} replication(s) across "
            f"{report.scenarios_copied} scenario(s) "
            f"({report.scenarios_examined} examined) "
            f"from {report.source} to {report.destination}"
        )
    if report.scenarios_failed:
        print(
            f"repro: warning: {report.scenarios_failed} scenario(s) failed to "
            "copy (sync is idempotent — rerun to resume with just those)",
            file=sys.stderr,
        )
        return 1
    return 0


def _store_compact(targets: list[str], json_output: bool) -> int:
    """``repro store compact <spec>``: reclaim space, drop lock litter."""
    if len(targets) != 1:
        print("repro: error: usage: repro store compact <spec>", file=sys.stderr)
        return 2
    try:
        report = _open_existing_store(targets[0]).compact()
    except ValueError as error:
        return _scenario_error(error)
    if json_output:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"compacted {report.scenarios} scenario(s): "
            f"{report.records_dropped} stale record(s) dropped, "
            f"{report.lock_files_removed} lock file(s) removed, "
            f"{report.runs_evicted} run(s) evicted"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_trace, summarize_trace

    path = Path(args.file)
    if not path.is_file():
        print(f"repro: error: trace log {path} does not exist", file=sys.stderr)
        return 2
    events = read_trace(path)
    summary = summarize_trace(events)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if not events:
        print(f"trace {path}: no events on record")
        return 0
    print(f"trace {path}: {summary['events']} event(s) across {summary['traces']} trace(s)")
    stage_rows = [
        [
            stage["stage"],
            stage["count"],
            f"{stage['total_s']:.4f}",
            f"{stage['mean_s']:.4f}",
            f"{stage['max_s']:.4f}",
        ]
        for stage in summary["stages"]
    ]
    print(format_text_table(["stage", "count", "total (s)", "mean (s)", "max (s)"], stage_rows))
    if summary["slowest"]:
        print()
        print("slowest traces:")
        slow_rows = [
            [
                entry["trace"],
                entry["root"],
                entry["spans"],
                f"{entry['dur_s']:.4f}",
                _format_attrs(entry.get("attrs", {})),
            ]
            for entry in summary["slowest"]
        ]
        print(
            format_text_table(
                ["trace", "root span", "spans", "duration (s)", "attrs"], slow_rows
            )
        )
    return 0


def _format_attrs(attrs: dict[str, object]) -> str:
    """Render span attrs as a compact ``k=v`` list for the trace table."""
    return " ".join(f"{key}={value}" for key, value in sorted(attrs.items())) or "-"


def _sweep_options(args: argparse.Namespace) -> dict[str, object]:
    """The ``figure1``/``table1`` flags as ``reproduce_*`` keyword arguments.

    Progress is one stderr line per finished (protocol, k) cell, so stdout
    stays exactly the report.
    """

    def progress(spec: ProtocolSpec, k: int, done: int, total: int) -> None:
        if done == total:
            print(f"[{args.command}] {spec.label}: k={k} ({total} runs done)", file=sys.stderr)

    config = ExperimentConfig(
        k_values=paper_k_values(args.max_k), runs=args.runs, seed=args.seed, workers=args.workers
    )
    return {"config": config, "progress": None if args.quiet else progress, "store_dir": args.store}


def _cmd_figure1(args: argparse.Namespace) -> int:
    try:
        options = _sweep_options(args)
    except ValueError as error:
        return _scenario_error(error)
    figure = reproduce_figure1(**options)
    print("Figure 1 — number of steps to solve static k-selection, per number of nodes k")
    print()
    print(figure.render_table())
    print()
    print(figure.render_plot())
    if args.output_dir is not None:
        csv_path = write_sweep_csv(figure.sweep, args.output_dir / "figure1_runs.csv")
        dat_paths = write_series_dat(figure.sweep, args.output_dir / "figure1_series")
        json_path = write_json(figure.sweep, args.output_dir / "figure1_summary.json")
        print()
        print(f"wrote {csv_path}, {json_path} and {len(dat_paths)} gnuplot series files")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    try:
        options = _sweep_options(args)
    except ValueError as error:
        return _scenario_error(error)
    table = reproduce_table1(**options)
    print("Table 1 — ratio steps/nodes as a function of the number of nodes k (measured)")
    print()
    print(table.render())
    print()
    print("Measured vs paper:")
    print()
    print(table.render_comparison())
    if args.output_dir is not None:
        write_markdown(*table.rows(), args.output_dir / "table1_measured.md")
        write_markdown(*table.comparison_rows(), args.output_dir / "table1_comparison.md")
        write_sweep_csv(table.sweep, args.output_dir / "table1_runs.csv")
        write_json(table.sweep, args.output_dir / "table1_summary.json")
        print()
        print(f"wrote artefacts to {args.output_dir}")
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    # The header follows the run, so a bad value leaves stdout empty.
    try:
        result = run_dynamic_experiment(
            k=args.k, runs=args.runs, seed=args.seed, workers=args.workers, store_dir=args.store
        )
    except ValueError as error:
        return _scenario_error(error)
    print(f"Dynamic k-selection with k = {args.k} messages, {args.runs} runs per cell")
    print("(node-level simulation; latency = delivery slot - arrival slot)")
    print()
    print(result.render())
    return 0


def _cmd_protocols(_: argparse.Namespace) -> int:
    rows = []
    for name, cls in sorted(PROTOCOLS.items()):
        knowledge = ", ".join(sorted(cls.requires_knowledge)) or "none"
        rows.append([name, cls.label, knowledge])
    print(format_text_table(["name", "label", "required knowledge"], rows))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.core import available_rules, rule_class, run_lint

    if args.list_rules:
        rows = []
        for rule_id in available_rules():
            cls = rule_class(rule_id)
            rows.append([rule_id, cls.name, cls.description])
        print(format_text_table(["id", "name", "description"], rows))
        return 0

    try:
        report = run_lint(args.paths or ["src"], rules=args.rule or None)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(report.to_json())
    else:
        for finding in report.findings:
            print(finding.format())
        summary = (
            f"{len(report.findings)} finding(s) in {report.files} file(s) "
            f"({len(report.rules)} rule(s)"
        )
        if report.suppressed:
            summary += f", {report.suppressed} suppressed"
        print(summary + ")")
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Unbounded Contention Resolution in Multiple-Access Channels'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sim = subparsers.add_parser(
        "simulate",
        help="run one replication of a scenario (spec string or .toml/.json file)",
        description="Run one replication of a scenario with exactly its seed, as "
        "simulate(..., seed=seed) does, and print the result.  The scenario is a "
        "compact spec string, e.g. \"one-fail-adaptive k=1000 seed=4 "
        "arrivals=poisson(rate=0.2)\", or the path of a .toml/.json scenario file; "
        "a scenario with reps other than 1 belongs to repro run.",
    )
    sim.add_argument("scenario", help="scenario spec string or path to a .toml/.json file")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    sim.add_argument("--json", action="store_true", help="print a machine-readable JSON result")
    sim.set_defaults(func=_cmd_simulate)

    run = subparsers.add_parser(
        "run",
        help="execute a declarative scenario (spec string or .toml/.json file)",
        description="Execute a scenario through a Session.  The scenario is either a "
        "compact spec string — e.g. \"one-fail-adaptive(delta=2.72) k=1000 reps=10 "
        "seed=7\" — or the path of a .toml/.json scenario file.  With --store, "
        "completed replications are persisted and served from the store on re-run "
        "(a repeated invocation reports 0 new runs).",
    )
    run.add_argument("scenario", help="scenario spec string or path to a .toml/.json file")
    run.add_argument(
        "--store",
        default=None,
        help="persistent result store: a directory (JSONL), a backend spec "
        "like jsonl:dir / sqlite:results.db, or a service URL",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU); results are identical for any value",
    )
    run.add_argument(
        "--replications", "--reps", type=int, default=None, help="override the replication count"
    )
    run.add_argument("--seed", type=int, default=None, help="override the root seed")
    run.add_argument("--json", action="store_true", help="print the machine-readable result set")
    run.set_defaults(func=_cmd_run)

    serve = subparsers.add_parser(
        "serve",
        help="run the simulation service (threaded HTTP server + job queue)",
        description="Run the always-on simulation service: POST /scenarios to submit, "
        "GET /jobs/<id> for progress, GET /results/<hash> for completed payloads, "
        "GET /store for the store listing, GET /healthz for liveness.  With --store, "
        "completed scenarios are persisted and repeat submissions are answered "
        "synchronously from the store (cached: true, zero new simulations).",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765, help="listen port (0 = ephemeral)")
    serve.add_argument(
        "--store",
        default=None,
        help="persistent result store: a directory (JSONL) or a backend spec "
        "like jsonl:dir / sqlite:results.db (sqlite supports ?ttl=&max_rows= "
        "eviction for always-on servers)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="simulation worker processes per job (0 = one per CPU)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=1, help="concurrently executing jobs (FIFO start order)"
    )
    serve.add_argument("--quiet", action="store_true", help="suppress per-request log lines")
    serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="bound on accepted-but-unstarted jobs; a full queue answers "
        "503 + Retry-After instead of accepting unbounded work",
    )
    serve.add_argument(
        "--obs",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="metrics + span tracing (--no-obs freezes the counters "
        "and writes no trace log; GET /metrics still answers)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit a scenario to a running service instead of simulating locally",
        description="Submit a scenario (compact spec string or .toml/.json file) to a "
        "repro service and print the result.  Identical concurrent submissions attach "
        "to one in-flight job; scenarios already on the server's store are answered "
        "without simulating.",
    )
    submit.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario spec string or path to a .toml/.json file",
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8765", help="service base URL (repro serve)"
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-job wall-clock budget in seconds; the server cancels the "
        "job if it outlives this (completed replications stay stored)",
    )
    submit.add_argument(
        "--cancel",
        metavar="JOB_ID",
        default=None,
        help="cancel the given job instead of submitting (DELETE /jobs/<id>)",
    )
    submit.add_argument(
        "--replications", "--reps", type=int, default=None, help="override the replication count"
    )
    submit.add_argument("--seed", type=int, default=None, help="override the root seed")
    submit.add_argument(
        "--wait",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="wait for completion and print the result (--no-wait prints the job id)",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, help="seconds to wait for completion"
    )
    submit.add_argument("--json", action="store_true", help="print the machine-readable payload")
    submit.set_defaults(func=_cmd_submit)

    store = subparsers.add_parser(
        "store",
        help="inspect or manage a result store (list / migrate / compact)",
        description="Inspect and manage result stores.  'repro store <spec>' lists the "
        "scenarios on record with content hashes, replications and solved fractions; "
        "'repro store migrate <src> <dst>' copies the replications <dst> is missing "
        "from <src> (idempotent); 'repro store compact <spec>' drops stale records, "
        "lock litter and evicted rows.  A spec is a directory (JSONL), jsonl:dir, "
        "sqlite:file.db, chaos:<spec>?seed=N, or an http(s):// service URL, for "
        "every subcommand.",
    )
    store.add_argument(
        "target",
        nargs="+",
        help="store spec to list, or: migrate <src> <dst> | compact <spec>",
    )
    store.add_argument("--json", action="store_true", help="print machine-readable records")
    store.set_defaults(func=_cmd_store)

    trace = subparsers.add_parser(
        "trace",
        help="summarise a span trace log (per-stage latency, slowest traces)",
        description="Summarise the JSONL span trace log the service writes next to "
        "its store (trace.jsonl for a JSONL store, <file>.db.trace.jsonl for "
        "SQLite): per-stage latency breakdown sorted by total time, plus the "
        "slowest traces by root-span duration.  Torn lines are skipped, so the "
        "log of a live or crashed server reads fine.",
    )
    trace.add_argument("file", help="path to a trace JSONL file")
    trace.add_argument("--json", action="store_true", help="print the machine-readable summary")
    trace.set_defaults(func=_cmd_trace)

    protocols = subparsers.add_parser("protocols", help="list the protocols")
    protocols.set_defaults(func=_cmd_protocols)

    lint = subparsers.add_parser(
        "lint",
        help="check the source tree against the repository invariants",
        description="Run the invariant checker over the source tree: seeded-randomness "
        "discipline (RND001), monotonic-clock discipline (CLK001), lock discipline "
        "(LCK001/LCK002), exception hygiene (EXC001-003), annotation coverage "
        "(ANN001/ANN002) and no print() in library code (OBS001).  Exits 0 "
        "when clean, 1 on findings, 2 on usage errors.  Suppress a single line with "
        "'# repro: noqa[RULE-ID]'; every other finding fails.",
    )
    lint.add_argument(
        "paths", nargs="*", help="files or directories to lint (default: src)"
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this rule id (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list the rules and exit"
    )
    lint.set_defaults(func=_cmd_lint)

    # The experiments: figure1 and table1 sweep the paper's five protocols,
    # dynamic puts two of them under dynamic arrivals.
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU); results are identical for any value",
    )
    experiment.add_argument(
        "--store",
        default=None,
        help="Session result store (directory or spec like sqlite:results.db): completed "
        "cells are persisted there and served from it on re-run (resumable sweeps)",
    )
    for name, func, summary in (
        ("figure1", _cmd_figure1, "reproduce Figure 1: mean steps per (protocol, k), "
         "as a table and an ASCII log-log plot"),
        ("table1", _cmd_table1, "reproduce Table 1: steps/k ratios, measured and the paper's"),
    ):
        sweep = subparsers.add_parser(name, parents=[experiment], help=summary, description=summary)
        sweep.add_argument("--max-k", type=int, default=None, help="largest network size to sweep")
        sweep.add_argument("--runs", type=int, default=DEFAULT_RUNS, help="runs per (protocol, k)")
        sweep.add_argument("--seed", type=int, default=2011, help="root seed of the sweep")
        sweep.add_argument(
            "--output-dir",
            type=Path,
            default=None,
            help="directory for the CSV, JSON and table or plot artefacts (omit to skip writing)",
        )
        sweep.add_argument("--quiet", action="store_true", help="suppress progress output")
        sweep.set_defaults(func=func)
    summary = "dynamic-arrivals experiment: makespan and latency under Poisson and bursty arrivals"
    dynamic = subparsers.add_parser(
        "dynamic", parents=[experiment], help=summary, description=summary
    )
    dynamic.add_argument("--k", type=int, default=64, help="messages injected per run")
    dynamic.add_argument("--runs", type=int, default=5, help="repetitions per cell")
    dynamic.add_argument("--seed", type=int, default=23, help="root seed")
    dynamic.set_defaults(func=_cmd_dynamic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
