#!/usr/bin/env sh
# Fast benchmark smoke target: checks that both kernels compile warning-free,
# that fair runs take the compiled slot loop and windowed runs the compiled
# window loop, that the kernels' own PCG64 seeding and the library's seed
# derivation equal numpy's for a three-word seed, that a rejection-heavy
# window schedule draws the bins numpy's bounded uint32 draw does, exercises
# each benchmark harness path that is cheap enough for CI (the
# parallel-execution fidelity checks) without running the full sweeps, then a
# single-run smoke (`repro simulate <spec> --json` equals the library's
# simulate() run, and the retired seed_policy key exits 2), a
# Session-store smoke run proving that
# a repeated scenario execution is served entirely from the result store, an
# experiment-command smoke (`repro table1` re-served from its store prints
# the same report, `repro figure1 --output-dir` writes its artefacts), a
# store-migration smoke (JSONL -> SQLite federation, re-served with 0 new
# simulations), a group-commit smoke (a cold k <= 1e3 Table 1 sweep makes one
# store append per cell and leaves no lock sidecar), a held-descriptor smoke (a Table 1 sweep into a JSONL and a
# chaos-wrapped JSONL store leaves no descriptor open once the stores are
# closed, and both re-serve it), and a simulation-service smoke (cached resubmission over
# HTTP, a bad component parameter refused with HTTP 400, then the server's
# store listed by URL).  The smoke-marked benchmark set includes bench_faults.py
# (crash-recovery time + zero-duplicate chaos assertions ->
# benchmark_results/BENCH_faults.json), and the chaos-marked test subset
# re-runs the deterministic fault-injection suite.
# Usage:  sh scripts/bench_smoke.sh
set -eu
cd "$(dirname "$0")/.."

# --- Invariant lint ----------------------------------------------------------
# The tree must satisfy the machine-checked invariants (seeded randomness,
# monotonic-clock discipline, lock discipline, exception hygiene) before any
# benchmark numbers are worth reporting.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli lint
echo "invariant lint ok: src/ is clean"

# --- Kernel warnings ---------------------------------------------------------
# Both kernels and the seed functions must compile warning-free as strict C99
# (plus unsigned __int128).  Each includes pcg64.h, so the header is checked
# through every include.  These flags only check the sources; the library
# itself is built with native._CFLAGS.
for kernel in src/repro/engine/fair_kernel.c src/repro/engine/window_kernel.c \
        src/repro/engine/pcg64.c; do
    cc -std=c99 -O2 -Wall -Wextra -Werror -c -o /dev/null "$kernel"
done
echo "kernel warnings ok: both kernels and pcg64.c compile with -Wall -Wextra -Werror"

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

# --- Compiled window kernel --------------------------------------------------
# Likewise one k=1e5 Exp Back-on/Back-off run must run its window loop in C,
# not on the numpy reference (~2-3x slower per ball, several times the memory).
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -c '
from repro import ExpBackonBackoff, simulate
from repro.obs import REGISTRY

result = simulate(ExpBackonBackoff(), k=100_000, seed=1)
runs = REGISTRY.snapshot()["repro_window_runs_total"]["series"]
compiled = runs.get("{path=\"compiled\"}", 0)
python = runs.get("{path=\"python\"}", 0)
assert result.solved and compiled == 1 and python == 0, f"window runs by path: {runs}"
print("compiled window kernel ok: k=1e5 EBB run took the compiled window loop (%d slots)"
      % result.slots_simulated)
'

# --- Kernel-owned random stream ---------------------------------------------
# The kernels seed PCG64 from the run's seed themselves.  A three-word seed
# (2^64 + 1) must give OFA and EBB runs at k=1e4 on the compiled paths equal
# to the Python paths' runs, which draw through numpy; and the library's seed
# derivation must equal numpy's.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -c '
import types
import repro.engine.native as native
from repro import ExpBackonBackoff, OneFailAdaptive, simulate
from repro.obs import REGISTRY
from repro.util.rng import derive_seeds, spawned_seeds

seed = 2**64 + 1
for protocol, family in ((OneFailAdaptive(), "repro_fair_runs_total"),
                         (ExpBackonBackoff(), "repro_window_runs_total")):
    compiled = simulate(protocol, k=10_000, seed=seed)
    runs = REGISTRY.snapshot()[family]["series"]
    assert runs.get("{path=\"compiled\"}", 0) == 1, f"{protocol.name} runs by path: {runs}"
    loader, native.KERNEL = native.KERNEL, types.SimpleNamespace(get=lambda: None)
    python = simulate(protocol, k=10_000, seed=seed)
    native.KERNEL = loader
    assert compiled.to_dict() == python.to_dict(), f"{protocol.name}: {compiled} != {python}"
    print("kernel stream ok: %s k=1e4 seed=2^64+1 compiled run equals the numpy-drawn run "
          "(makespan %d)" % (protocol.name, compiled.makespan))
derived = native.derive_seeds(seed, 10)
assert derived is not None and list(derived) == derive_seeds(seed, 10)
assert derived == spawned_seeds(seed, 10), f"{derived} != numpy"
print("seed derivation ok: the library derives the seeds numpy derives for root 2^64+1")
'

# --- Rejection-heavy window stream -------------------------------------------
# 641 * 6,700,417 = 2^32 + 1, so in a window of 6,700,417 slots about one
# bounded uint32 draw in 641 takes Lemire's rejection step.  A k=1e6+1 run on
# a schedule of such windows must take the compiled window loop and equal the
# numpy-drawn run of the Python loop.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -c '
import types
import repro.engine.native as native
from repro import simulate
from repro.obs import REGISTRY
from repro.protocols.base import WindowedProtocol

LENGTH, WINDOWS = 6_700_417, 20


class Listed(WindowedProtocol):
    name = "smoke-rejection-heavy"

    def window_lengths(self):
        yield from [LENGTH] * WINDOWS


assert (2**32 - LENGTH) % LENGTH == LENGTH - 1
k, seed = 10**6 + 1, 2**64 + 1
compiled = simulate(Listed(), k=k, seed=seed, max_slots=LENGTH * WINDOWS)
runs = REGISTRY.snapshot()["repro_window_runs_total"]["series"]
assert runs.get("{path=\"compiled\"}", 0) == 1, f"window runs by path: {runs}"
loader, native.KERNEL = native.KERNEL, types.SimpleNamespace(get=lambda: None)
python = simulate(Listed(), k=k, seed=seed, max_slots=LENGTH * WINDOWS)
native.KERNEL = loader
assert compiled.solved and compiled.to_dict() == python.to_dict(), f"{compiled} != {python}"
print("rejection-heavy stream ok: k=1e6+1 run on 6,700,417-slot windows, compiled equals "
      "numpy-drawn (makespan %d, %d windows)" % (compiled.makespan, compiled.metadata["windows"]))
'

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest benchmarks -q -m smoke --override-ini addopts= -p no:cacheprovider "$@"

# --- Chaos smoke -------------------------------------------------------------
# The deterministic fault-injection subset: journal replay after crashes,
# retry/resume under injected store faults, bounded-queue 503 backoff.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest tests -q -m chaos --override-ini addopts= -p no:cacheprovider

# --- Single-run smoke --------------------------------------------------------
# `repro simulate` runs one replication with exactly the scenario's seed: its
# --json payload, minus the scenario string, must equal simulate()'s result.
# The retired seed_policy key must be refused as a bad scenario (exit 2).
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro simulate \
    "one-fail-adaptive k=64 seed=3 arrivals=poisson(rate=0.2)" --json \
  | PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -c '
import json, sys
from repro import OneFailAdaptive, PoissonArrival, simulate

payload = json.load(sys.stdin)
payload.pop("scenario")
result = simulate(OneFailAdaptive(), 64, seed=3, arrivals=PoissonArrival(k=64, rate=0.2))
expected = json.loads(json.dumps(result.to_dict()))
assert payload == expected, f"repro simulate printed {payload}, simulate() gave {expected}"
print("single-run smoke ok: repro simulate --json equals simulate() (makespan %d)"
      % payload["makespan"])
'
STATUS=0
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro run \
    "one-fail-adaptive k=8 seed_policy=sequential" > /dev/null 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "expected exit 2 for seed_policy=sequential, got $STATUS"; exit 1; }
echo "single-run smoke ok: a seed_policy scenario exits 2"

# --- Session-store smoke -----------------------------------------------------
# First invocation populates the store; the second must report 0 new
# simulations (every replication served from the JSONL store).
STORE_DIR="$(mktemp -d)"
SERVICE_STORE_DIR="$(mktemp -d)"
LIST_DIR="$(mktemp -d)"
DESCRIPTOR_DIR="$(mktemp -d)"
EXPERIMENT_DIR="$(mktemp -d)"
GROUP_DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$STORE_DIR" "$SERVICE_STORE_DIR" "$LIST_DIR" "$DESCRIPTOR_DIR" "$EXPERIMENT_DIR" \
        "$GROUP_DIR"
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

# --- Experiment-command smoke ------------------------------------------------
# The experiment commands are subcommands of the one `repro` parser: `repro
# table1` run twice into one store must print the same report (the second
# time served from the store), `repro figure1 --output-dir` must write its
# CSV, JSON and gnuplot files, and `repro table1 --help` must name itself.
for run in first second; do
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro table1 --max-k 100 --runs 2 \
        --quiet --store "$EXPERIMENT_DIR/store" > "$EXPERIMENT_DIR/$run.txt"
done
cmp -s "$EXPERIMENT_DIR/first.txt" "$EXPERIMENT_DIR/second.txt" \
    || { echo "repro table1 printed another report when served from its store"; exit 1; }
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro figure1 --max-k 100 --runs 2 \
    --quiet --output-dir "$EXPERIMENT_DIR/figure1" > /dev/null
for artefact in figure1_runs.csv figure1_summary.json figure1_series/ofa.dat \
        figure1_series/ebb.dat figure1_series/llib.dat figure1_series/lfa-xt2.dat \
        figure1_series/lfa-xt10.dat; do
    [ -s "$EXPERIMENT_DIR/figure1/$artefact" ] \
        || { echo "repro figure1 --output-dir wrote no $artefact"; exit 1; }
done
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro table1 --help \
    > "$EXPERIMENT_DIR/help.txt"
head -n 1 "$EXPERIMENT_DIR/help.txt" | grep -q '^usage: repro table1' \
    || { echo "repro table1 --help does not start with usage: repro table1"; exit 1; }
echo "experiment-command smoke ok: repro table1 re-served its report from the store," \
    "repro figure1 wrote its artefacts, repro table1 --help names itself"

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

# --- Held-descriptor smoke ---------------------------------------------------
# A JSONL store keeps each cell's descriptor open between appends.  A k <= 1e3 Table 1 sweep into a jsonl: store and a chaos:jsonl:
# store in one process must leave the process's descriptor count where it
# started once each store is closed (where /proc/self/fd exists), and each
# store must then re-serve the whole grid with 0 fresh replications.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -c '
import os, sys
from repro.experiments.config import ExperimentConfig, paper_k_values
from repro.experiments.table1 import reproduce_table1
from repro.scenarios.store import open_store

root = sys.argv[1]
fds = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else None
before = len(os.listdir(fds)) if fds else None
config = ExperimentConfig(k_values=paper_k_values(1000), runs=10, seed=2011, workers=1)
for spec in (f"jsonl:{root}/plain", f"chaos:jsonl:{root}/chaos?seed=7"):
    store = open_store(spec)
    cells = reproduce_table1(config, store_dir=store).sweep.cells
    fresh = sum(cell.new_runs for cell in cells.values())
    store.close()
    if fds:
        after = len(os.listdir(fds))
        assert after == before, f"{spec}: {after - before} descriptors left open after close()"
    store = open_store(spec)
    again = reproduce_table1(config, store_dir=store).sweep.cells
    store.close()
    assert sum(cell.new_runs for cell in again.values()) == 0, f"{spec} re-simulated"
    print("descriptor smoke ok: %s stored %d replications, re-served them all%s"
          % (spec.split(":")[0], fresh, "" if fds else " (no /proc/self/fd: count skipped)"))
' "$DESCRIPTOR_DIR"

# --- Group-commit smoke ------------------------------------------------------
# A cold Table 1 sweep at k <= 1e3 with 10 runs (150 runs, 384K slots) is
# one batch of finished runs, under the native.SLOTS_PER_CALL slots after
# which the serial executor hands a batch over, so it reaches a fresh JSONL
# store in one append per cell: 15 cells, no lock sidecar (appends lock the
# cell itself), 15 observations of repro_store_append_seconds, and the
# sweep served again simulates nothing.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -c '
import sys
from pathlib import Path
from repro.experiments.config import ExperimentConfig, paper_k_values
from repro.experiments.table1 import reproduce_table1
from repro.obs import REGISTRY

root = Path(sys.argv[1])
config = ExperimentConfig(k_values=paper_k_values(1000), runs=10, seed=2011, workers=1)
cells = reproduce_table1(config, store_dir=str(root)).sweep.cells
fresh = sum(cell.new_runs for cell in cells.values())
stored = sorted(path.name for path in root.iterdir())
appends = REGISTRY.snapshot()["repro_store_append_seconds"]["series"]
count = sum(series["count"] for series in appends.values())
assert fresh == 150, f"the cold sweep simulated {fresh} runs, not 150"
assert len(stored) == 15 and all(name.endswith(".jsonl") for name in stored), stored
assert count == 15, f"the cold sweep made {count} store appends, not one per cell (15)"
again = reproduce_table1(config, store_dir=str(root)).sweep.cells
assert sum(cell.new_runs for cell in again.values()) == 0, "the served sweep re-simulated"
print("group-commit smoke ok: a cold Table 1 sweep stored %d runs in %d cells with %d appends,"
      " no lock sidecar, and was served again with 0 new simulations" % (fresh, len(stored), count))
' "$GROUP_DIR"

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

# --- Bad-parameter smoke -----------------------------------------------------
# A scenario whose component parameter is out of range must be refused when
# it is submitted (HTTP 400), not accepted and then failed mid-job.
python -c "
import urllib.error, urllib.request
request = urllib.request.Request(
    '$URL/scenarios', data=b'one-fail-adaptive(delta=-1) k=10',
    headers={'Content-Type': 'text/plain'}, method='POST')
try:
    status = urllib.request.urlopen(request, timeout=10).status
except urllib.error.HTTPError as error:
    status = error.code
assert status == 400, f'expected HTTP 400 for delta=-1, got {status}'
print('bad-parameter smoke ok: POST one-fail-adaptive(delta=-1) k=10 answered 400')
"

# --- Service store listing by URL --------------------------------------------
# `repro store <url>` lists the server's cells over GET /store.  Run from an
# empty directory, it must list the scenario just submitted and create
# nothing there (a URL is never a local directory named `http:`).
ROOT="$(pwd)"
(cd "$LIST_DIR" && PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m repro store "$URL" --json) \
  | PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -c '
import json, os, sys
from repro.scenarios import Scenario
records = json.load(sys.stdin)
expected = Scenario.parse(sys.argv[1]).content_hash()
hashes = [record["hash"] for record in records]
assert expected in hashes, f"repro store <url> listed {hashes}, not {expected}"
litter = os.listdir(sys.argv[2])
assert not litter, f"repro store <url> created {litter} in its working directory"
print("store-by-url smoke ok: repro store <url> listed %d cell(s), created nothing"
      % len(records))
' "$SERVICE_SCENARIO" "$LIST_DIR"
