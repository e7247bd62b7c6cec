#!/usr/bin/env sh
# Fast benchmark smoke target: checks that fair runs take the compiled slot
# loop, exercises each benchmark harness path that is cheap enough for CI (the
# parallel-execution fidelity checks) without running the full sweeps, then a
# Session-store smoke run proving that
# a repeated scenario execution is served entirely from the result store, a
# store-migration smoke (JSONL -> SQLite federation, re-served with 0 new
# simulations), and a simulation-service smoke (cached resubmission over
# HTTP).  The smoke-marked benchmark set includes bench_faults.py
# (crash-recovery time + zero-duplicate chaos assertions ->
# benchmark_results/BENCH_faults.json), and the chaos-marked test subset
# re-runs the deterministic fault-injection suite.
# Usage:  sh scripts/bench_smoke.sh
set -eu
cd "$(dirname "$0")/.."

# --- Invariant lint ----------------------------------------------------------
# The tree must satisfy the machine-checked invariants (seeded randomness,
# monotonic-clock discipline, lock discipline, exception hygiene, registry
# contracts) before any benchmark numbers are worth reporting.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli lint
echo "invariant lint ok: src/ is clean"

# --- Compiled fair kernel ----------------------------------------------------
# One k=1e5 One-fail Adaptive run must take FairEngine's compiled slot loop.
# A compiler that rejects a flag would otherwise leave every fair sweep on
# the ~80x slower Python loop with nothing failing.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -c '
from repro import OneFailAdaptive, simulate
from repro.obs import REGISTRY

result = simulate(OneFailAdaptive(), k=100_000, seed=1)
runs = REGISTRY.snapshot()["repro_fair_runs_total"]["series"]
compiled = runs.get("{path=\"compiled\"}", 0)
python = runs.get("{path=\"python\"}", 0)
assert result.solved and compiled == 1 and python == 0, f"fair runs by path: {runs}"
print("compiled fair kernel ok: k=1e5 OFA run took the compiled loop (%d slots)"
      % result.slots_simulated)
'

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest benchmarks -q -m smoke --override-ini addopts= -p no:cacheprovider "$@"

# --- Chaos smoke -------------------------------------------------------------
# The deterministic fault-injection subset: journal replay after crashes,
# retry/resume under injected store faults, bounded-queue 503 backoff.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest tests -q -m chaos --override-ini addopts= -p no:cacheprovider

# --- Session-store smoke -----------------------------------------------------
# First invocation populates the store; the second must report 0 new
# simulations (every replication served from the JSONL store).
STORE_DIR="$(mktemp -d)"
SERVICE_STORE_DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$STORE_DIR" "$SERVICE_STORE_DIR"
}
trap cleanup EXIT
SCENARIO="one-fail-adaptive(delta=2.72) k=256 reps=5 seed=2011"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro run "$SCENARIO" \
    --store "$STORE_DIR" --json > /dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro run "$SCENARIO" \
    --store "$STORE_DIR" --json \
  | python -c '
import json, sys
payload = json.load(sys.stdin)
assert payload["new_runs"] == 0, f"expected 0 new runs on re-run, got {payload}"
assert payload["cached_runs"] == 5, f"expected 5 cached runs, got {payload}"
print("session-store smoke ok: re-run served %d cached runs, %d new simulations"
      % (payload["cached_runs"], payload["new_runs"]))
'

# --- Store-migration smoke ---------------------------------------------------
# Federate the JSONL store populated above into a fresh SQLite store, then
# re-run against the SQLite spec: every replication must come from the
# migrated cell, with 0 new simulations.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro store migrate \
    "$STORE_DIR" "sqlite:$STORE_DIR/store.db" > /dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro run "$SCENARIO" \
    --store "sqlite:$STORE_DIR/store.db" --json \
  | python -c '
import json, sys
payload = json.load(sys.stdin)
assert payload["new_runs"] == 0, f"expected 0 new runs after migration, got {payload}"
assert payload["cached_runs"] == 5, f"expected 5 migrated runs, got {payload}"
print("store-migrate smoke ok: sqlite store served %d migrated runs, %d new simulations"
      % (payload["cached_runs"], payload["new_runs"]))
'

# --- Simulation-service smoke ------------------------------------------------
# Boot `repro serve` on a free port, submit a fresh scenario end-to-end, then
# resubmit it: the second submission must report cached=true with 0 new
# simulations (served straight from the server's result store).
PORT="$(python -c 'import socket
s = socket.socket()
s.bind(("127.0.0.1", 0))
print(s.getsockname()[1])
s.close()')"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro serve \
    --port "$PORT" --store "$SERVICE_STORE_DIR" --quiet &
SERVER_PID=$!
URL="http://127.0.0.1:$PORT"
python -c "
import time, urllib.request
for _ in range(100):
    try:
        urllib.request.urlopen('$URL/healthz', timeout=1).read()
        break
    except OSError:
        time.sleep(0.1)
else:
    raise SystemExit('repro serve did not come up on $URL')
"
SERVICE_SCENARIO="one-fail-adaptive(delta=2.72) k=128 reps=4 seed=2011"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro submit "$SERVICE_SCENARIO" \
    --url "$URL" --json > /dev/null

# --- Metrics smoke -----------------------------------------------------------
# While the server is mid-round-trip, GET /metrics must serve Prometheus text
# covering each instrumented layer (http, jobs, session, store, engine).
python -c "
import urllib.request
with urllib.request.urlopen('$URL/metrics', timeout=5) as response:
    content_type = response.headers.get('Content-Type', '')
    text = response.read().decode('utf-8')
assert response.status == 200, f'GET /metrics returned {response.status}'
assert 'version=0.0.4' in content_type, f'unexpected Content-Type {content_type!r}'
for family in ('repro_http_requests_total', 'repro_jobs_submitted_total',
               'repro_session_cache_lookups_total', 'repro_store_append_seconds',
               'repro_engine_runs_total'):
    assert '# TYPE ' + family in text, 'missing metric family ' + family
print('metrics smoke ok: /metrics serves Prometheus text'
      ' (%d lines, all layers covered)' % len(text.splitlines()))
"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro submit "$SERVICE_SCENARIO" \
    --url "$URL" --json \
  | python -c '
import json, sys
payload = json.load(sys.stdin)
assert payload["cached"] is True, f"expected cached resubmission, got {payload}"
assert payload["new_runs"] == 0, f"expected 0 new runs on resubmit, got {payload}"
assert payload["cached_runs"] == 4, f"expected 4 cached runs, got {payload}"
print("service smoke ok: cached resubmission served %d runs, %d new simulations"
      % (payload["cached_runs"], payload["new_runs"]))
'
