"""The descriptors a JsonlStore keeps open between appends.

An append keeps the cell's descriptor, which it also locks, open for the
next one.  These cases hold the store to what an append that opens the
cell every time guarantees: every record lands in the file at the cell's
path, whoever else compacts, cleans, appends or tears the tail in between,
a forked child never locks through its parent's descriptor, and the
descriptors kept open stay bounded and are released by ``close()``.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time

import pytest

from repro.engine.result import SimulationResult
from repro.scenarios import JsonlStore, Scenario, StoredRun
from repro.scenarios import store as store_module

fcntl = pytest.importorskip("fcntl")

SPEC = "one-fail-adaptive k=32 reps=4 seed=3"


def scenario(text: str = SPEC) -> Scenario:
    return Scenario.parse(text)


def make_run(replication: int) -> StoredRun:
    seed = scenario().seeds()[replication]
    result = SimulationResult(
        solved=True, makespan=100 + replication, k=32, slots_simulated=100 + replication,
        successes=32, collisions=1, silences=2, protocol="one-fail-adaptive", engine="fair",
        seed=seed, metadata={},
    )
    return StoredRun(replication=replication, seed=seed, elapsed_seconds=0.01, result=result)


def records(store: JsonlStore, cell: Scenario | None = None) -> tuple[int, list[int]]:
    """(header lines, replications in file order); raises on a torn line."""
    headers, replications = 0, []
    with store.path_for(cell or scenario()).open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["kind"] == "scenario":
                headers += 1
            else:
                replications.append(record["replication"])
    return headers, replications


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


def exit_code(child: int, timeout: float = 30.0) -> int:
    """The forked ``child``'s exit code; it is killed if it runs past ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pid, status = os.waitpid(child, os.WNOHANG)
        if pid:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(child, 9)
    os.waitpid(child, 0)
    raise AssertionError("the forked child hung")


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count descriptors in"
)


@pytest.fixture(autouse=True)
def _collect_garbage() -> None:
    """Release the descriptors earlier tests' unreachable stores still hold.

    Otherwise a garbage collection that lands between two counts closes
    them and moves the count by descriptors that are not this test's.
    """
    gc.collect()


class TestEveryAppendLandsInTheCell:
    def test_appends_after_compaction_are_kept(self, tmp_path):
        """Compaction renames a new file over the cell: the held cell
        descriptor would write to the unlinked one."""
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        store.compact()
        store.append(scenario(), [make_run(1)])
        store.append(scenario(), [make_run(2)])
        assert sorted(store.load(scenario())) == [0, 1, 2]
        assert records(store) == (1, [0, 1, 2])

    def test_appends_after_another_instance_compacts_are_kept(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        JsonlStore(tmp_path).compact()
        store.append(scenario(), [make_run(1)])
        store.append(scenario(), [make_run(2)])
        assert sorted(JsonlStore(tmp_path).load(scenario())) == [0, 1, 2]

    def test_an_append_by_another_instance_in_between_is_kept(self, tmp_path):
        store, other = JsonlStore(tmp_path), JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        other.append(scenario(), [make_run(1)])
        store.append(scenario(), [make_run(2)])
        assert records(store) == (1, [0, 1, 2])

    def test_a_torn_tail_written_by_a_third_party_is_healed(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        with store.path_for(scenario()).open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "run", "replica')
        store.append(scenario(), [make_run(1)])
        lines = store.path_for(scenario()).read_text(encoding="utf-8").splitlines()
        assert lines[-2] == '{"kind": "run", "replica'
        assert json.loads(lines[-1])["replication"] == 1
        assert sorted(store.load(scenario())) == [0, 1]

    def test_a_deleted_cell_is_recreated_with_its_header(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        store.path_for(scenario()).unlink()
        store.append(scenario(), [make_run(1)])
        assert records(store) == (1, [1])

    def test_cleaning_the_locks_in_between_changes_nothing(self, tmp_path):
        """Removing an earlier version's lock sidecar between two appends
        leaves the next record to the cell at the path, which is also the
        file the store locks."""
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        (tmp_path / f"{store.path_for(scenario()).name}.lock").touch()
        assert store.clean_locks() == 1
        store.append(scenario(), [make_run(1)])
        held = store._open[scenario().content_hash()].cell
        assert os.fstat(held).st_ino == os.stat(store.path_for(scenario())).st_ino
        assert records(store) == (1, [0, 1])
        assert not list(tmp_path.glob("*.lock"))

    def test_a_writer_waiting_through_a_compaction_appends_to_the_new_cell(self, tmp_path):
        """Compaction renames the new cell over the path while it holds the
        old one's lock.  A writer that waited on that lock through its held
        descriptor finds the old file unlinked and writes to the new one."""
        writer, compactor = JsonlStore(tmp_path), JsonlStore(tmp_path)
        writer.append(scenario(), [make_run(0)])
        old_inode = os.stat(writer.path_for(scenario())).st_ino
        appending = threading.Thread(
            target=writer.append, args=(scenario(), [make_run(1)]), daemon=True
        )
        waited = []
        parse = compactor._parse_runs

        def parse_while_the_writer_waits(path):
            appending.start()
            time.sleep(0.3)
            waited.append(appending.is_alive())
            return parse(path)

        compactor._parse_runs = parse_while_the_writer_waits
        compactor.compact()
        appending.join(timeout=30)
        assert not appending.is_alive()
        assert waited == [True], "the writer did not wait for the compaction's lock"
        path = writer.path_for(scenario())
        assert os.stat(path).st_ino != old_inode
        held = writer._open[scenario().content_hash()].cell
        assert os.fstat(held).st_ino == os.stat(path).st_ino
        assert records(writer) == (1, [0, 1])


class TestDescriptors:
    def test_a_forked_child_appends_through_its_own_descriptors(self, tmp_path):
        """The parent holds the cell's flock through its kept descriptor.  A
        child locking through the inherited one would share the parent's
        lock and write at once; through its own it waits for the release."""
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        held = store._open[scenario().content_hash()]
        fcntl.flock(held.cell, fcntl.LOCK_EX)
        try:
            child = os.fork()
            if child == 0:  # pragma: no cover - runs in the child
                code = 1
                try:
                    store.append(scenario(), [make_run(1)])
                    code = 0
                finally:
                    os._exit(code)
            time.sleep(0.3)
            assert records(store) == (1, [0]), "the child wrote under the parent's lock"
        finally:
            fcntl.flock(held.cell, fcntl.LOCK_UN)
        assert exit_code(child) == 0
        store.append(scenario(), [make_run(2)])
        assert records(store) == (1, [0, 1, 2])

    @needs_proc
    def test_more_cells_than_the_bound_keep_only_the_bound_open(self, tmp_path):
        store = JsonlStore(tmp_path)
        before = open_descriptors()
        cells = [scenario(f"one-fail-adaptive k={k} reps=2 seed=3")
                 for k in range(2, 2 + store_module._OPEN_CELLS + 8)]
        for cell in cells:
            store.append(cell, [make_run(0)])
        assert len(store._open) == store_module._OPEN_CELLS
        assert open_descriptors() - before == store_module._OPEN_CELLS
        for cell in cells:
            assert records(store, cell) == (1, [0])
        assert not list(tmp_path.glob("*.lock"))

    @needs_proc
    def test_close_releases_every_descriptor(self, tmp_path):
        before = open_descriptors()
        store = JsonlStore(tmp_path)
        for k in (8, 16, 64):
            store.append(scenario(f"one-fail-adaptive k={k} reps=2 seed=3"), [make_run(0)])
        assert open_descriptors() > before
        store.close()
        assert open_descriptors() == before
        store.append(scenario(), [make_run(1)])
        assert records(store) == (1, [1])
        store.close()
        assert open_descriptors() == before

    @needs_proc
    def test_a_collected_store_releases_its_descriptors(self, tmp_path):
        before = open_descriptors()
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])
        del store
        assert open_descriptors() == before

    def test_a_failed_write_reopens_and_rereads_the_tail(self, tmp_path, monkeypatch):
        store = JsonlStore(tmp_path)
        store.append(scenario(), [make_run(0)])

        def full_disk(descriptor, data):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(store_module.os, "write", full_disk)
            with pytest.raises(OSError):
                store.append(scenario(), [make_run(1)])
        assert scenario().content_hash() not in store._open
        store.append(scenario(), [make_run(2)])
        assert records(store) == (1, [0, 2])
