"""The ``service-mix`` workload: closed-loop clients against ``repro serve``.

The server runs in a child process (``server_child.py``) over a fresh JSONL
store whose 40-scenario pool is warmed during set-up.  Two clients in this
process run a closed loop, each sending its next operation only after the
previous one completed.  Operation ``i`` is a seeded draw: 90% resubmit a
pool scenario (which must come back ``cached``), 10% submit a scenario never
seen before, then poll ``GET /jobs/<id>`` every 2 ms until it is done and
fetch its results.  Fresh scenario seeds lie past the pool's, so they never
collide with it.  The timed loop runs as 1-second windows with a
calibration between each two (``windowed_loop``); each window, and each
operation in it, is put at the reference speed (``calibrate``) before the
run's throughput and latency percentiles are taken over all of them
(``pooled``).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from urllib.parse import urlsplit

import calibrate
import tracer
from spec import ROOT, WORK

POOL_SIZE = 40
FRESH_SHARE = 0.10
PROTOCOLS = ("one-fail-adaptive", "exp-backon-backoff")
KS = (64, 256)
REPS = 3
POLL_S = 0.002
CLIENTS = 2
WINDOW_S = 1.0
DIGEST_OPS = 256
OP_TIMEOUT_S = 30.0
SETUP_REPEATS = 5
TERMINAL = ("done", "failed", "cancelled")
_ERRORS = (OSError, http.client.HTTPException, ValueError, KeyError, TypeError)


class Mix:
    """The seeded operation schedule and warm pool of one run.

    The draws are stratified so that every seed sees the same composition:
    each block of 10 operations holds exactly one fresh submission, and each
    run of 4 blocks cycles through every (protocol, k) pair in a seeded
    order; the pool holds 10 scenarios of each pair.
    """

    BLOCK = round(1 / FRESH_SHARE)
    PAIRS = tuple((protocol, k) for protocol in PROTOCOLS for k in KS)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.base = seed * 1_000_000
        self.pool = [self._text(self.PAIRS[slot % len(self.PAIRS)], self.base + slot)
                     for slot in range(POOL_SIZE)]

    @staticmethod
    def _text(pair: tuple[str, int], seed: int) -> str:
        return f"{pair[0]} k={pair[1]} reps={REPS} seed={seed}"

    def op(self, index: int) -> tuple[str, int | None, str]:
        """``(kind, pool slot or None, scenario text)`` of operation ``index``."""
        block, position = divmod(index, self.BLOCK)
        if position == random.Random(f"{self.seed}:fresh:{block}").randrange(self.BLOCK):
            cycle, turn = divmod(block, len(self.PAIRS))
            pairs = list(self.PAIRS)
            random.Random(f"{self.seed}:pairs:{cycle}").shuffle(pairs)
            return "fresh", None, self._text(pairs[turn], self.base + POOL_SIZE + index)
        slot = random.Random(f"{self.seed}:slot:{index}").randrange(POOL_SIZE)
        return "cached", slot, self.pool[slot]


class Client:
    """One HTTP request per connection, as the HTTP/1.0 server serves them."""

    def __init__(self, url: str, recorder: tracer.Recorder | None = None) -> None:
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.recorder = recorder

    def call(self, method: str, path: str, body: str | None = None,
             traced: bool = False) -> tuple[int, dict]:
        span = self.recorder.begin("client.request") if traced and self.recorder else None
        connection = http.client.HTTPConnection(self.host, self.port, timeout=OP_TIMEOUT_S)
        try:
            headers = {"Content-Type": "text/plain"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            if span is not None:
                span.attrs["port"] = connection.sock.getsockname()[1]
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
            if span is not None:
                self.recorder.end(span)
        return response.status, payload

    def wait_done(self, job_id: str, started: float) -> tuple[dict, int]:
        """Poll the job at the fixed interval until it is terminal."""
        polls = 0
        while True:
            time.sleep(POLL_S)
            _, payload = self.call("GET", f"/jobs/{job_id}")
            polls += 1
            job = payload["job"]
            if job["state"] in TERMINAL or time.perf_counter() - started > OP_TIMEOUT_S:
                return job, polls

    def fresh(self, text: str, record: dict) -> None:
        """Submit a new scenario, wait for it, fetch and check its results."""
        started = time.perf_counter()
        status, payload = self.call("POST", "/scenarios", text, traced=True)
        record["post_end"] = time.perf_counter()
        if status != 202:
            record["problems"].append(f"fresh submit answered {status}: {payload}")
            return
        job, record["polls"] = self.wait_done(payload["job"]["id"], started)
        record["done_seen"] = time.perf_counter()
        record["latency"] = record["done_seen"] - started
        record["job"], record["hash"] = job["id"], job["hash"]
        if job["state"] != "done":
            record["problems"].append(f"fresh job {job['id']} ended {job['state']}: {job['error']}")
            return
        status, result = self.call("GET", f"/results/{job['hash']}", traced=True)
        runs = result.get("results", [])
        if status != 200 or result.get("solved_runs") != REPS or len(runs) != REPS:
            record["problems"].append(f"fresh job {job['id']}: {result.get('solved_runs')}/{REPS} solved")
            return
        record["slots"] = sum(run["slots_simulated"] for run in runs)
        record["makespans"] = [run["makespan"] for run in runs]

    def cached(self, text: str, expected: dict, record: dict) -> None:
        started = time.perf_counter()
        status, payload = self.call("POST", "/scenarios", text, traced=True)
        record["latency"] = time.perf_counter() - started
        record["hash"], record["makespans"] = expected["hash"], expected["makespans"]
        if status != 200 or payload.get("cached") is not True or payload.get("hash") != expected["hash"]:
            record["problems"].append(f"pool resubmission not served cached: {status} {payload}")


class ServerChild:
    """``server_child.py`` over a fresh store; ``stop`` drains and reaps it."""

    def __init__(self, trace: bool) -> None:
        self.store = tempfile.mkdtemp(dir=WORK)
        self.stats_path = f"{self.store}.stats.json"
        self.log = open(f"{self.store}.log", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server_child.py"),
             self.store, self.stats_path, "1" if trace else "0"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        self.stats: dict | None = None
        self.url = self.process.stdout.readline().strip()
        if not self.url:
            self.stop()
            raise RuntimeError(f"server child exited with {self.process.returncode}")

    def stop(self) -> dict:
        if self.stats is not None:
            return self.stats
        try:
            self.process.stdin.close()
            self.process.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.log.close()
        try:
            with open(self.stats_path, encoding="utf-8") as handle:
                self.stats = json.load(handle)
        except (OSError, ValueError):
            self.stats = {"rss_kb": 0}
        shutil.rmtree(self.store, ignore_errors=True)
        return self.stats


def boot(mix: Mix, trace: bool) -> tuple[ServerChild, float, list[dict]]:
    """Start a server and warm its pool; returns it, the set-up time and the pool."""
    started = time.perf_counter()
    server = ServerChild(trace)
    try:
        client = Client(server.url)
        status, _ = client.call("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        jobs = []
        for text in mix.pool:
            status, payload = client.call("POST", "/scenarios", text)
            if status not in (200, 202):
                raise RuntimeError(f"pool submit answered {status}: {payload}")
            jobs.append(payload["job"])
        pool = []
        for job in jobs:
            done, _ = client.wait_done(job["id"], time.perf_counter())
            if done["state"] != "done":
                raise RuntimeError(f"pool job {job['id']} ended {done['state']}")
            _, result = client.call("GET", f"/results/{done['hash']}")
            if result.get("solved_runs") != REPS:
                raise RuntimeError(f"pool job {job['id']}: {result.get('solved_runs')}/{REPS} solved")
            pool.append({"hash": done["hash"],
                         "makespans": [run["makespan"] for run in result["results"]]})
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, pool


def closed_loop(url: str, mix: Mix, pool: list[dict], seconds: float,
                recorder: tracer.Recorder | None = None,
                first_index: int = 0) -> tuple[list[dict], float, float]:
    """Run the clients for ``seconds`` from operation ``first_index`` on.

    Returns the op records and the loop's time window.
    """
    records: list[dict] = []
    next_index = iter(range(first_index, 10**9))
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def client_loop(client_id: int) -> None:
        client = Client(url, recorder)
        while time.perf_counter() < deadline:
            with lock:
                index = next(next_index)
            kind, slot, text = mix.op(index)
            record = {"index": index, "kind": kind, "client": client_id, "problems": [], "polls": 0}
            op_span = recorder.begin(f"op.{kind}") if recorder is not None else None
            op_started = time.perf_counter()
            try:
                if slot is None:
                    client.fresh(text, record)
                else:
                    client.cached(text, pool[slot], record)
            except _ERRORS as error:
                record["problems"].append(f"{type(error).__name__}: {error}")
            finally:
                if op_span is not None:
                    op_span.attrs["record"] = record
                    recorder.end(op_span)
            record["finished"] = time.perf_counter()
            record["duration"] = record["finished"] - op_started
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client_loop, args=(n,)) for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, started, time.perf_counter()


def digest(records: list[dict], limit: int) -> str:
    """Digest of the first ``limit`` ops' scenario hashes and makespans."""
    first = sorted((r for r in records if r["index"] < limit), key=lambda r: r["index"])
    text = ";".join(f"{r['index']}:{r['kind']}:{r.get('hash')}:{r.get('makespans')}" for r in first)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def windowed_loop(url: str, mix: Mix, pool: list[dict], seconds: float) -> list[dict]:
    """The timed closed loop, run as ``WINDOW_S`` windows with calibrations between.

    Each window is a closed loop of its own that carries on the operation
    schedule where the last one stopped, and is bracketed by
    ``calibrate.slowness()`` measurements taken while the server is idle.
    """
    width = min(WINDOW_S, seconds)
    windows: list[dict] = []
    slow = calibrate.slowness()
    done = 0
    while not windows or sum(w["seconds"] for w in windows) < seconds - width / 2:
        records, start, end = closed_loop(url, mix, pool, width, first_index=done)
        done += len(records)
        after = calibrate.slowness()
        windows.append({"records": records, "seconds": end - start, "slow": (slow + after) / 2})
        slow = after
    return windows


def pooled(windows: list[dict], scaled: bool = True) -> dict[str, float]:
    """The end-to-end timings of the whole closed loop.

    Throughput is taken over the sum of the windows and each percentile over
    every operation of the run.  ``scaled`` first puts each window, and each
    operation in it, at the reference speed by the window's calibrations.
    """
    power = calibrate.WORK_POWER if scaled else 0.0
    ops = [(record, window["slow"] ** power)
           for window in windows for record in window["records"] if not record["problems"]]
    seconds = sum(window["seconds"] / window["slow"] ** power for window in windows)
    cached = [record["latency"] * 1000 / slow for record, slow in ops if record["kind"] == "cached"]
    fresh = [record["latency"] * 1000 / slow for record, slow in ops if record["kind"] == "fresh"]
    return {
        "wall_s": CLIENTS * seconds / max(len(ops), 1),
        "slots_per_s": sum(record.get("slots", 0) for record, _ in ops) / seconds,
        "req_per_s": len(ops) / seconds,
        "cached_p50_ms": tracer.percentile(cached, 50),
        "cached_p99_ms": tracer.percentile(cached, 99),
        "fresh_p50_ms": tracer.percentile(fresh, 50),
        "fresh_p90_ms": tracer.percentile(fresh, 90),
    }


def _e2e_metrics(windows: list[dict], setup_s: float, child_kb: int, scaled: bool = True) -> dict:
    metrics = pooled(windows, scaled)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + child_kb) / 1024
    return metrics


def _mean_op_s(records: list[dict], window: float) -> float:
    """Mean closed-loop op time: each client is busy for the whole window."""
    return CLIENTS * window / max(len(records), 1)


def _merge(client_spans: list, server_spans: list, start: float, end: float) -> list:
    """Join the server's spans to the client ops they served.

    A server request span becomes the child of the client request on the
    same TCP port whose interval contains its start, clipped to end with it.
    For a fresh op, the job's run span becomes a child of the op, between a
    synthetic queue-wait
    span (submit answered -> run started) and a synthetic poll-wait span
    (run ended -> client saw it done).  Poll requests stay outside the ops:
    they overlap the run and are not on the path to the result.
    """
    window = [span for span in server_spans if start <= span.start <= end]
    by_port: dict[int, list] = {}
    for span in client_spans:
        if span.name == "client.request" and "port" in span.attrs:
            by_port.setdefault(span.attrs["port"], []).append(span)
    runs = {}
    for span in window:
        if span.name == "http.server":
            for request in by_port.get(span.attrs["port"], ()):
                if request.start <= span.start <= request.end:
                    # Work the server does after the client has read the
                    # response is off this request's path: clip it, and keep
                    # the measured time for http.server.p50_ms.
                    span.attrs["server_s"] = span.duration
                    span.end = min(span.end, request.end)
                    span.parent = request
                    break
        elif span.name == "jobs.run":
            runs[span.attrs["job"]] = span
    synthetic = []
    for op in client_spans:
        record = op.attrs.get("record") if op.name == "op.fresh" else None
        run = runs.get(record.get("job")) if record and "done_seen" in record else None
        if run is None:
            continue
        run.parent = op
        queue = tracer.Span("jobs.queue_wait", record["post_end"], op)
        queue.end = run.start
        poll = tracer.Span("client.poll_wait", run.end, op)
        poll.end = record["done_seen"]
        synthetic += [queue, poll]
    return client_spans + window + synthetic


def run(seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS,
        digest_ops: int = DIGEST_OPS) -> dict:
    """Run the workload with the clients and the server child on one CPU.

    Split over two CPUs, every request wakes the other one from idle, and
    on a VM that wake-up waits on the host's scheduler.  On one CPU the
    hand-off is a local switch and the calibrations time the CPU that does
    all of the work; interleaved runs of both placements spread less from
    seed to seed on one CPU.
    """
    with calibrate.pinned():
        return _run(seed, seconds, trace, setup_repeats, digest_ops)


def _run(seed: int, seconds: float, trace: bool, setup_repeats: int, digest_ops: int) -> dict:
    mix = Mix(seed)
    servers: list[ServerChild] = []
    try:
        setup_times, scaled_setups = [], []
        for _ in range(setup_repeats):
            for server in servers:
                server.stop()
            slow = calibrate.slowness()
            server, elapsed, pool = boot(mix, trace=False)
            servers.append(server)
            setup_times.append(elapsed)
            scaled_setups.append(elapsed / slow**calibrate.WORK_POWER)
        main = servers[-1]
        loop_seconds = seconds / 2 if trace else seconds
        windows = windowed_loop(main.url, mix, pool, loop_seconds)
        records = [record for window in windows for record in window["records"]]
        child_kb = main.stop()["rss_kb"]
        summary = {"digests": [digest(records, digest_ops)], "budget": None}
        if not trace:
            metrics = _e2e_metrics(windows, statistics.median(scaled_setups), child_kb)
            summary["unscaled"] = _e2e_metrics(
                windows, statistics.median(setup_times), child_kb, scaled=False)
        else:
            traced_server, _, pool = boot(mix, trace=True)
            servers.append(traced_server)
            recorder = tracer.Recorder()
            traced, t_start, t_end = closed_loop(traced_server.url, mix, pool, loop_seconds, recorder)
            server_spans, counts = tracer.Recorder.load(traced_server.stop()["trace"])
            spans = _merge(recorder.spans, server_spans, t_start, t_end)
            roots = [span for span in recorder.spans if span.name.startswith("op.")]
            wall, parts = tracer.budget(roots, spans)
            metrics = tracer.layer_metrics(spans, counts)
            metrics.update(tracer.budget_metrics(wall, parts))
            fresh = [r for r in traced if r["kind"] == "fresh" and not r["problems"]]
            metrics["client.polls_per_fresh"] = (
                sum(r["polls"] for r in fresh) / len(fresh) if fresh else 0.0
            )
            untraced_s = sum(window["seconds"] for window in windows)
            metrics["trace.overhead_frac"] = (
                _mean_op_s(traced, t_end - t_start) / _mean_op_s(records, untraced_s) - 1
            )
            summary["budget"] = {"wall_s": wall, "self_s": parts}
            records = records + traced
    finally:
        for server in servers:
            server.stop()
    for record in records:
        for problem in record["problems"]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)  # noqa: T201
    summary.update(
        attempted=len(records),
        failed=sum(1 for r in records if r["problems"]),
        metrics=metrics,
        clients={str(n): sum(1 for r in records if r["client"] == n) for n in range(CLIENTS)},
    )
    return summary
