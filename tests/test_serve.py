"""Tests for the serving layer (repro.store.serve + ``runner serve``).

Exercises the JSON query endpoints against a real store, the error
contract (400/404/503 as JSON), and the SSE endpoint — both replaying a
sealed journal and following a live run as it is written, asserting the
stream arrives in strict cell-index order and folds back into the run's
artifact byte-for-byte.
"""

import http.client
import json
import pathlib
import threading
import time

import pytest

from repro.runner.artifacts import artifact_payload, dumps_canonical, load_artifact
from repro.runner.harness import (
    CellResult,
    GridSpec,
    SweepRunResult,
    aggregate_cells,
)
from repro.runner.journal import JournalWriter, journal_from_artifact, load_journal
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession
from repro.store import ResultsStore, ServeConfig, journal_record_to_event, make_server

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = REPO_ROOT / "benchmarks" / "baselines"


# ----------------------------------------------------------------------
# harnessing
# ----------------------------------------------------------------------
class Server:
    """One live server on an ephemeral port, plus a tiny HTTP client."""

    def __init__(self, config):
        self.server = make_server(config)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self.thread.start()

    def get_json(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()

    def get_sse(self, path, timeout=30.0):
        """Read SSE frames until the server closes the stream."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            if response.status != 200:
                return response.status, json.loads(response.read().decode("utf-8"))
            events = []
            event = None
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: "):
                    events.append((event, json.loads(line[len("data: "):])))
                # blank lines terminate a frame; comments (keepalives) skipped
            return response.status, events
        finally:
            conn.close()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


@pytest.fixture
def serve(tmp_path):
    """Factory fixture: build a server over a store/runs-dir, auto-closed."""
    servers = []

    def start(**overrides):
        overrides.setdefault("store_path", tmp_path / "store.sqlite")
        overrides.setdefault("runs_dir", tmp_path / "runs")
        config = ServeConfig(host="127.0.0.1", port=0, poll_interval=0.02, **overrides)
        server = Server(config)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


@pytest.fixture
def populated(tmp_path):
    """A store holding two figure1b runs (distinct commits) and one bench."""
    payload = load_artifact(BASELINES / "figure1b.quick.json")
    with ResultsStore(tmp_path / "store.sqlite") as store:
        store.ingest_run_payload(dict(payload, git={"commit": "a" * 40, "dirty": False}))
        store.ingest_run_payload(dict(payload, git={"commit": "b" * 40, "dirty": False}))
        store.ingest_run_payload(load_artifact(BASELINES / "figure1b.full.json"))
        store.ingest_bench_payload("speed", {"cells_per_second": 10.0})
    return tmp_path / "store.sqlite"


# ----------------------------------------------------------------------
# the record -> event mapping
# ----------------------------------------------------------------------
class TestRecordMapping:
    def test_header_maps_to_run_started_with_total(self):
        spec = get_scenario("necessity").grid(quick=True)
        event, payload = journal_record_to_event(
            {
                "record": "header",
                "scenario": "necessity",
                "mode": "quick",
                "spec": spec.as_dict(),
                "spec_hash": "h",
                "environment": {"python": "x"},
                "git": None,
            }
        )
        assert event == "RunStarted"
        assert payload["total_cells"] == spec.num_cells
        assert payload["spec"] == spec.as_dict()

    def test_cell_and_seal_map_verbatim(self):
        cell = {"index": 0, "success": True}
        assert journal_record_to_event({"record": "cell", "cell": cell}) == (
            "CellCompleted",
            cell,
        )
        event, payload = journal_record_to_event(
            {"record": "seal", "reason": "completed", "totals": {"cells": 1}}
        )
        assert event == "RunFinished" and payload["reason"] == "completed"

    def test_unknown_record_kind_is_skipped(self):
        assert journal_record_to_event({"record": "checkpoint"}) is None
        assert journal_record_to_event({}) is None


# ----------------------------------------------------------------------
# JSON endpoints
# ----------------------------------------------------------------------
class TestJSONEndpoints:
    def test_index_lists_every_endpoint(self, serve):
        server = serve()
        status, body = server.get_json("/")
        assert status == 200
        paths = [entry["path"] for entry in body["endpoints"]]
        assert "/v1/trend" in paths and "/v1/live/<run>/events" in paths

    def test_missing_store_is_503(self, serve):
        server = serve()
        status, body = server.get_json("/v1/scenarios")
        assert status == 503 and "error" in body

    def test_unknown_endpoint_is_404(self, serve):
        server = serve()
        status, body = server.get_json("/v1/nope")
        assert status == 404 and "error" in body

    def test_scenarios_runs_and_trend(self, serve, populated):
        server = serve(store_path=populated)
        status, body = server.get_json("/v1/scenarios")
        assert status == 200
        assert [row["scenario"] for row in body["scenarios"]] == ["figure1b"]
        status, body = server.get_json("/v1/runs?scenario=figure1b&mode=quick")
        assert status == 200 and len(body["runs"]) == 2
        status, body = server.get_json(
            "/v1/trend?scenario=figure1b&metric=success_rate&mode=quick"
        )
        assert status == 200
        commits = [point["git_commit"] for point in body["points"]]
        assert commits == ["a" * 40, "b" * 40]

    def test_trend_requires_scenario_and_validates_metric(self, serve, populated):
        server = serve(store_path=populated)
        status, body = server.get_json("/v1/trend")
        assert status == 400 and "scenario" in body["error"]
        status, body = server.get_json("/v1/trend?scenario=figure1b&metric=bogus")
        assert status == 400 and "unknown run metric" in body["error"]
        status, body = server.get_json("/v1/trend?scenario=figure1b&f=notanint")
        assert status == 400 and "integer" in body["error"]

    def test_group_trend_via_axis_params(self, serve, populated):
        payload = load_artifact(BASELINES / "figure1b.full.json")
        group = payload["groups"][0]
        server = serve(store_path=populated)
        status, body = server.get_json(
            "/v1/trend?scenario=figure1b&mode=full"
            f"&algorithm={group['algorithm']}&topology={group['topology']}"
            f"&f={group['f']}&behavior={group['behavior']}&placement={group['placement']}"
        )
        assert status == 200 and len(body["points"]) == 1
        assert body["points"][0]["value"] == group["success_rate"]

    def test_variance_endpoint(self, serve, populated):
        server = serve(store_path=populated)
        status, body = server.get_json("/v1/variance?scenario=figure1b&mode=full")
        assert status == 200 and body["groups"]
        for group in body["groups"]:
            p = group["success_rate"]
            assert group["success_variance"] == pytest.approx(p * (1 - p))

    def test_bench_endpoints(self, serve, populated):
        server = serve(store_path=populated)
        status, body = server.get_json("/v1/benches")
        assert status == 200
        assert [bench["name"] for bench in body["benches"]] == ["speed"]
        status, body = server.get_json("/v1/benches/metrics?name=speed")
        assert status == 200 and "cells_per_second" in body["metrics"]
        status, body = server.get_json(
            "/v1/benches/trend?name=speed&metric=cells_per_second"
        )
        assert status == 200 and body["points"][0]["value"] == 10.0
        status, body = server.get_json("/v1/benches/trend?name=speed")
        assert status == 400  # metric is required

    def test_snapshots_endpoint(self, serve, populated):
        with ResultsStore(populated) as store:
            store.record_snapshot(
                {"run_dir": "/x", "journal": {"scenario": "figure1b", "mode": "full"}}
            )
        server = serve(store_path=populated)
        status, body = server.get_json("/v1/snapshots?scenario=figure1b")
        assert status == 200 and len(body["snapshots"]) == 1
        status, body = server.get_json("/v1/snapshots?limit=bogus")
        assert status == 400


# ----------------------------------------------------------------------
# SSE: live-run listing, guards, replay, live follow
# ----------------------------------------------------------------------
class TestLiveEndpoints:
    def test_live_listing_and_name_guards(self, serve, tmp_path):
        runs_dir = tmp_path / "runs"
        payload = load_artifact(BASELINES / "necessity.quick.json")
        journal_from_artifact(runs_dir / "done", payload)
        server = serve()
        status, body = server.get_json("/v1/live")
        assert status == 200
        assert body["runs"][0]["run"] == "done"
        assert body["runs"][0]["sealed"] is True
        status, body = server.get_json("/v1/live/../events")
        assert status == 400
        status, body = server.get_json("/v1/live/a/b/events")
        assert status == 400
        # a percent-encoded slash is NOT decoded, so it can't traverse either
        status, body = server.get_json("/v1/live/..%2Fdone/events")
        assert status == 404
        status, body = server.get_json("/v1/live/ghost/events")
        assert status == 404

    def test_no_runs_dir_means_no_live_streaming(self, serve):
        server = serve(runs_dir=None)
        status, body = server.get_json("/v1/live")
        assert status == 200 and body["runs"] == []
        status, body = server.get_json("/v1/live/x/events")
        assert status == 404

    def test_sealed_journal_replays_in_order_and_closes(self, serve, tmp_path):
        payload = load_artifact(BASELINES / "necessity.quick.json")
        journal_from_artifact(tmp_path / "runs" / "done", payload)
        server = serve()
        status, events = server.get_sse("/v1/live/done/events")
        assert status == 200
        kinds = [event for event, _ in events]
        assert kinds[0] == "RunStarted" and kinds[-1] == "RunFinished"
        cells = [data for event, data in events if event == "CellCompleted"]
        assert [cell["index"] for cell in cells] == list(range(len(payload["cells"])))
        assert events[0][1]["total_cells"] == len(payload["cells"])
        assert events[-1][1]["totals"] == payload["totals"]

    def test_unsealed_journal_times_out_with_event(self, serve, tmp_path):
        spec = get_scenario("necessity").grid(quick=True)
        writer = JournalWriter.create(
            tmp_path / "runs" / "stalled", spec, mode="quick", git=None
        )
        writer.close()
        server = serve(sse_timeout=0.2)
        status, events = server.get_sse("/v1/live/stalled/events?timeout=0.2")
        assert status == 200
        assert [event for event, _ in events] == ["RunStarted", "StreamTimeout"]

    def test_bad_timeout_param_is_400(self, serve, tmp_path):
        payload = load_artifact(BASELINES / "necessity.quick.json")
        journal_from_artifact(tmp_path / "runs" / "done", payload)
        server = serve()
        status, body = server.get_sse("/v1/live/done/events?timeout=forever")
        assert status == 400 and "timeout" in body["error"]

    def test_live_run_streams_in_order_and_folds_to_the_artifact(
        self, serve, tmp_path
    ):
        """The satellite: a journaled quick run served live arrives as
        RunStarted / CellCompleted (strict index order) / RunFinished, the
        stream closes on the seal, and folding the streamed events yields
        the run's artifact byte-for-byte."""
        scenario = get_scenario("necessity")
        spec = scenario.grid(quick=True)
        run_dir = tmp_path / "runs" / "live"
        # the journal must exist before the client connects (404 otherwise)
        writer = JournalWriter.create(run_dir, spec, mode="quick", git=None)
        server = serve()

        def sweep():
            results = []
            for cell in ExperimentSession(spec).iter_results():
                writer.append_cell(cell)
                results.append(cell)
                time.sleep(0.01)  # let the tail reader interleave with writes
            writer.seal("completed", results)
            writer.close()

        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        status, events = server.get_sse("/v1/live/live/events")
        thread.join(timeout=30)
        assert status == 200

        kinds = [event for event, _ in events]
        assert kinds[0] == "RunStarted"
        assert kinds[-1] == "RunFinished"  # and the server closed the stream
        started = events[0][1]
        assert started["scenario"] == "necessity" and started["mode"] == "quick"
        assert started["total_cells"] == spec.num_cells

        streamed = [data for event, data in events if event == "CellCompleted"]
        assert [cell["index"] for cell in streamed] == list(range(spec.num_cells))

        # fold the stream exactly like a client would: rebuild the run from
        # the streamed payloads alone, then compare canonical bytes
        cells = [CellResult.from_dict(cell) for cell in streamed]
        folded = SweepRunResult(
            spec=GridSpec.from_dict(started["spec"]),
            cells=cells,
            groups=aggregate_cells(cells),
        )
        from_stream = dumps_canonical(
            artifact_payload(
                folded,
                mode=started["mode"],
                provenance={
                    "environment": started["environment"],
                    "git": started["git"],
                },
            )
        )
        journal = load_journal(run_dir)
        assert journal.sealed
        from_journal = dumps_canonical(
            artifact_payload(
                journal.fold(), mode=journal.mode, provenance=journal.provenance()
            )
        )
        assert from_stream == from_journal
        assert events[-1][1]["totals"]["cells"] == spec.num_cells
