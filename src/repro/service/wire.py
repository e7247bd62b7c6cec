"""The service wire protocol: job states, payload shapes, body parsing.

Everything the server emits and the client consumes lives here, so the two
sides cannot drift apart: the job lifecycle constants, the
:class:`JobStatus` view a client sees of a server-side job, and the scenario
body parser behind ``POST /scenarios`` (which accepts the same three forms
the ``repro run`` CLI does — a compact spec string, a scenario JSON object,
or a TOML document).

Everything is plain stdlib ``json`` over HTTP; no schema library, no
framing.  Error responses are ``{"error": "<message>"}`` with a 4xx/5xx
status code, success responses are the documented payload dicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.scenarios.scenario import Scenario
from repro.scenarios.spec import SpecError

__all__ = [
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobStatus",
    "parse_results_body",
    "parse_scenario_body",
    "dump_results_body",
]

#: Job lifecycle: queued → running → done | failed | cancelled.  Cached
#: submissions are born ``done``; deduplicated submissions share the original
#: job's state; ``cancelled`` covers both explicit cancellation
#: (``DELETE /jobs/<id>``) and an expired per-job deadline.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)
TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)


@dataclass(frozen=True)
class JobStatus:
    """Client-side view of one server job (the ``GET /jobs/<id>`` payload).

    ``done``/``total`` count replications, so a progress bar falls straight
    out of the ratio; ``cached`` marks jobs answered synchronously from the
    result store with zero new simulations; ``deduplicated`` marks
    submissions that attached to an already in-flight job for the same
    scenario hash.
    """

    id: str
    hash: str
    scenario: str
    state: str
    done: int
    total: int
    cached: bool = False
    deduplicated: bool = False
    error: str | None = None
    attempts: int = 1
    deadline: float | None = None

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    @classmethod
    def from_wire(cls, payload: dict[str, object]) -> "JobStatus":
        deadline = payload.get("deadline")
        return cls(
            id=str(payload["id"]),
            hash=str(payload["hash"]),
            scenario=str(payload["scenario"]),
            state=str(payload["state"]),
            done=int(payload["done"]),  # type: ignore[arg-type]
            total=int(payload["total"]),  # type: ignore[arg-type]
            cached=bool(payload.get("cached", False)),
            deduplicated=bool(payload.get("deduplicated", False)),
            error=payload.get("error"),  # type: ignore[arg-type]
            attempts=int(payload.get("attempts", 1)),  # type: ignore[arg-type]
            deadline=float(deadline) if deadline is not None else None,  # type: ignore[arg-type]
        )


def parse_scenario_body(body: bytes, content_type: str | None = None) -> Scenario:
    """Parse a ``POST /scenarios`` body into a :class:`Scenario`.

    The ``Content-Type`` header picks the format when present
    (``application/json``, ``application/toml``/``text/toml``,
    ``text/plain`` for the compact spec string); without one the body is
    sniffed — a leading ``{`` means JSON, an embedded newline next to a
    ``=`` means TOML, anything else is treated as a compact spec string.
    Raises :class:`~repro.scenarios.spec.SpecError` or :class:`ValueError`
    on malformed input (the server maps both to HTTP 400).
    """
    text = body.decode("utf-8").strip()
    if not text:
        raise SpecError("empty scenario body")
    kind = (content_type or "").split(";", 1)[0].strip().lower()
    if kind == "application/json":
        return Scenario.from_json(text)
    if kind in ("application/toml", "text/toml"):
        return Scenario.from_toml(text)
    if kind == "text/plain":
        return Scenario.parse(text)
    if text.startswith("{"):
        return Scenario.from_json(text)
    if "\n" in text and "=" in text:
        return Scenario.from_toml(text)
    return Scenario.parse(text)


def parse_results_body(body: bytes) -> tuple[Scenario, list["StoredRun"]]:
    """Parse a ``POST /results/<hash>`` federation-ingest body.

    The body is ``{"scenario": <scenario dict>, "runs": [{"replication",
    "seed", "elapsed_seconds", "result"}, ...]}`` — the same per-run shape
    the JSONL store records, which is what :func:`dump_results_body`
    produces on the sending side.  Raises :class:`ValueError`/
    :class:`KeyError` on malformed input, a replication given twice
    included (the server maps both to 400).
    """
    from repro.engine.result import SimulationResult
    from repro.scenarios.store import StoredRun

    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("results body must be a JSON object")
    scenario = Scenario.from_dict(payload["scenario"])
    raw_runs = payload["runs"]
    if not isinstance(raw_runs, list):
        raise ValueError("results body 'runs' must be a list")
    runs = [
        StoredRun(
            replication=int(record["replication"]),
            seed=int(record["seed"]),
            elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
            result=SimulationResult.from_dict(record["result"]),
        )
        for record in raw_runs
    ]
    if len({run.replication for run in runs}) != len(runs):
        raise ValueError("results body gives a replication more than once")
    return scenario, runs


def dump_results_body(scenario: Scenario, runs: "list[StoredRun]") -> bytes:
    """Encode a federation-ingest body (inverse of :func:`parse_results_body`)."""
    return dump_json(
        {
            "scenario": scenario.to_dict(),
            "runs": [
                {
                    "replication": run.replication,
                    "seed": run.seed,
                    "elapsed_seconds": run.elapsed_seconds,
                    "result": run.result.to_dict(),
                }
                for run in runs
            ],
        }
    )


def dump_json(payload: object) -> bytes:
    """Canonical wire encoding (sorted keys, UTF-8) used by both sides."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")
