"""Integration tests: a real server on an ephemeral port, driven by the client."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.scenarios import Scenario, Session
from repro.service import (
    JOB_DONE,
    JobManager,
    ReproServer,
    ServiceClient,
    ServiceError,
    create_server,
)

SPEC = "one-fail-adaptive k=48 reps=3 seed=11"


@pytest.fixture
def server(tmp_path):
    """A serving ReproServer on an ephemeral port, with a persistent store."""
    server = create_server(port=0, store_dir=tmp_path / "store", quiet=True)
    server.start_background()
    yield server
    server.close()


@pytest.fixture
def client(server) -> ServiceClient:
    return ServiceClient(server.url, timeout=30.0)


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["jobs"] == {
            "queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0,
        }
        assert payload["store"] is not None
        assert payload["queue"] == {"depth": 0, "limit": None, "accepting": True}
        assert payload["journal"] == {"backlog": 0}
        assert payload["last_failure"] is None
        totals = payload["totals"]
        assert totals["submitted"] == totals["rejected"] == totals["retried"] == 0

    def test_submit_wait_result_round_trip(self, client):
        status = client.submit(SPEC)
        assert status.total == 3
        status = client.wait(status.id, timeout=60.0)
        assert status.state == JOB_DONE
        assert status.done == 3
        payload = client.result(status.hash)
        assert payload["new_runs"] == 3
        assert payload["solved_runs"] == 3
        assert payload["hash"] == Scenario.parse(SPEC).content_hash()

    def test_resubmission_is_cached_with_zero_new_simulations(self, client):
        first = client.submit(SPEC)
        client.wait(first.id, timeout=60.0)
        second = client.submit(SPEC)
        assert second.cached is True
        assert second.state == JOB_DONE
        assert second.id != first.id
        payload = client.result(second.hash)
        assert payload["new_runs"] == 0
        assert payload["cached_runs"] == 3

    def test_submit_scenario_object_as_json(self, client):
        status = client.submit(Scenario.parse(SPEC))
        status = client.wait(status.id, timeout=60.0)
        assert status.state == JOB_DONE
        assert status.hash == Scenario.parse(SPEC).content_hash()

    def test_submit_toml_body(self, server, client):
        body = Scenario.parse(SPEC).to_toml().encode("utf-8")
        request = urllib.request.Request(
            server.url + "/scenarios", data=body, headers={"Content-Type": "application/toml"}
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            payload = json.loads(response.read())
        assert payload["hash"] == Scenario.parse(SPEC).content_hash()
        client.wait(payload["job"]["id"], timeout=60.0)

    def test_store_listing_after_completion(self, client):
        assert client.store_records() == []
        status = client.submit(SPEC)
        client.wait(status.id, timeout=60.0)
        records = client.store_records()
        assert len(records) == 1
        assert records[0]["hash"] == status.hash
        assert records[0]["replications_on_record"] == 3

    def test_jobs_listing(self, client):
        status = client.submit(SPEC)
        client.wait(status.id, timeout=60.0)
        jobs = client.jobs()
        assert [job.id for job in jobs] == [status.id]

    def test_client_run_convenience(self, client):
        payload = client.run(SPEC, timeout=60.0)
        assert payload["solved_runs"] == 3

    def test_results_served_from_store_across_restart(self, tmp_path, client, server):
        status = client.submit(SPEC)
        client.wait(status.id, timeout=60.0)
        # A fresh server over the same store knows nothing of the old jobs but
        # still serves the hash — straight from the JSONL store.
        fresh = create_server(port=0, store_dir=tmp_path / "store", quiet=True)
        fresh.start_background()
        try:
            payload = ServiceClient(fresh.url).result(status.hash)
            assert payload["new_runs"] == 0
            assert payload["cached_runs"] == 3
        finally:
            fresh.close()


class TestErrors:
    @pytest.mark.parametrize(
        "spec",
        [
            "definitely-not-a-protocol k=10",
            "exp-backon-backoff k=10 engine=fair",
            "one-fail-adaptive k=10 channel=cd engine=fair",
            "one-fail-adaptive k=10 arrivals=poisson(rate=0.2) engine=fair",
            "exp-backon-backoff k=10 channel=cd max_slots_factor=2.5",
            "one-fail-adaptive k=10 max_slots_factor=1000000000000000000",
            "one-fail-adaptive(delta=-1) k=10",
            "one-fail-adaptive(bogus=1) k=10",
            "one-fail-adaptive k=10 arrivals=poisson(rate=5)",
            "one-fail-adaptive k=10 arrivals=poisson",
            "one-fail-adaptive k=10 arrivals=bursty(bursts=3)",
            "one-fail-adaptive k=10 channel=cd(acknowledgements=false)",
            "one-fail-adaptive k=10 seed=1.5",
            "one-fail-adaptive k=10 seed=abc",
            "one-fail-adaptive k=10 seed=-1",
            "one-fail-adaptive k=10 seed=true",
            "binary-splitting k=4",
        ],
        ids=[
            "unknown-protocol", "wrong-kind", "wrong-channel", "wrong-arrivals",
            "float-slot-factor", "slot-cap-beyond-int64",
            "bad-delta", "unknown-protocol-parameter", "rate-above-one", "rate-missing",
            "bursts-not-dividing-k", "ack-less-channel",
            "float-seed", "text-seed", "negative-seed", "bool-seed",
            "collision-detection-protocol-without-it",
        ],
    )
    def test_bad_scenario_spec_is_400(self, client, spec):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-404")
        assert excinfo.value.status == 404

    def test_unknown_result_hash_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.result("feedfacecafebeef")
        assert excinfo.value.status == 404

    def test_traversal_hash_is_404_and_stays_inside_store(self, server, tmp_path):
        # A secret JSONL *outside* the store root must not be reachable via
        # a crafted /results/<hash> path (urllib normalises "..", so issue
        # the raw request by hand).
        outside = tmp_path / "outside.jsonl"
        outside.write_text('{"kind": "scenario"}\n', encoding="utf-8")
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        connection.request("GET", "/results/../outside")
        response = connection.getresponse()
        assert response.status == 404
        connection.close()

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("/nope")
        assert excinfo.value.status == 404

    def test_unreachable_server_is_service_error(self):
        unreachable = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError):
            unreachable.health()


class TestResultsIngest:
    """The federation receive path: ``POST /results/<hash>``."""

    @staticmethod
    def _runs_from_session(tmp_path):
        from repro.scenarios import open_store

        scenario = Scenario.parse(SPEC)
        store = open_store(tmp_path / "donor")
        Session(store_dir=store).run(scenario)
        return scenario, [run for _, run in sorted(store.load(scenario).items())]

    def test_push_then_submit_is_cached(self, tmp_path, client):
        scenario, runs = self._runs_from_session(tmp_path)
        payload = client.push_runs(scenario, runs)
        assert payload == {
            "hash": scenario.content_hash(),
            "received": 3,
            "added": 3,
            "rejected": 0,
        }
        status = client.submit(scenario)
        assert status.cached is True
        assert client.result(scenario.content_hash())["new_runs"] == 0

    def test_repeat_push_adds_nothing(self, tmp_path, client):
        scenario, runs = self._runs_from_session(tmp_path)
        assert client.push_runs(scenario, runs)["added"] == 3
        assert client.push_runs(scenario, runs)["added"] == 0

    def test_seed_invalid_runs_are_rejected_not_stored(self, tmp_path, client):
        from dataclasses import replace

        scenario, runs = self._runs_from_session(tmp_path)
        forged = [replace(runs[0], seed=runs[0].seed + 1)]
        payload = client.push_runs(scenario, forged)
        assert payload["added"] == 0
        assert payload["rejected"] == 1
        assert client.store_records() == []

    def test_repeated_replication_is_400_and_stores_nothing(self, tmp_path, client):
        from dataclasses import replace

        from repro.service.wire import dump_results_body

        scenario, runs = self._runs_from_session(tmp_path)
        forged = replace(runs[0], seed=runs[0].seed + 1)
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                f"/results/{scenario.content_hash()}",
                body=dump_results_body(scenario, [runs[0], forged]),
                content_type="application/json",
            )
        assert excinfo.value.status == 400
        assert "more than once" in str(excinfo.value)
        assert client.store_records() == []

    def test_hash_mismatch_is_400(self, tmp_path, client):
        from repro.service.wire import dump_results_body

        scenario, runs = self._runs_from_session(tmp_path)
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "/results/feedfacecafebeef",
                body=dump_results_body(scenario, runs),
                content_type="application/json",
            )
        assert excinfo.value.status == 400

    def test_malformed_body_is_400(self, client):
        scenario = Scenario.parse(SPEC)
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                f"/results/{scenario.content_hash()}",
                body=b'{"not": "a results body"}',
                content_type="application/json",
            )
        assert excinfo.value.status == 400

    def test_storeless_server_is_409(self, tmp_path):
        storeless = create_server(port=0, store_dir=None, quiet=True)
        storeless.start_background()
        try:
            scenario, runs = self._runs_from_session(tmp_path)
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(storeless.url).push_runs(scenario, runs)
            assert excinfo.value.status == 409
        finally:
            storeless.close()


class TestSqliteBackedServer:
    def test_serves_and_ingests_with_sqlite_store(self, tmp_path):
        server = create_server(
            port=0, store_dir=f"sqlite:{tmp_path / 'store.db'}", quiet=True
        )
        server.start_background()
        client = ServiceClient(server.url)
        try:
            assert str(client.health()["store"]).startswith("sqlite:")
            first = client.submit(SPEC)
            client.wait(first.id, timeout=60.0)
            second = client.submit(SPEC)
            assert second.cached is True
            assert client.result(second.hash)["cached_runs"] == 3
        finally:
            server.close()


class TestDedupOverHttp:
    def test_second_submission_attaches_while_first_queued(self, tmp_path):
        """Deterministic dedup: no worker threads, so the first stays queued."""
        session = Session(store_dir=tmp_path / "store")
        jobs = JobManager(session, start=False)
        server = ReproServer(("127.0.0.1", 0), session, jobs, quiet=True)
        server.start_background()
        client = ServiceClient(server.url)
        try:
            first = client.submit(SPEC)
            second = client.submit(SPEC)
            assert second.deduplicated is True
            assert second.id == first.id
            jobs.process_next()
            assert client.job(first.id).state == JOB_DONE
        finally:
            server.shutdown()
            server.server_close()
