"""Service layer: the ``repro serve`` daemon, its protocol and its client.

The properties under test are the fabric's contract (``docs/service.md``):

* a submission already in the store returns ``cached`` without touching the
  worker pool; resubmitting a finished grid computes nothing,
* two clients concurrently submitting overlapping grids compute each point
  **exactly once** (one job ``computed``, the other ``coalesced``/
  ``cached``), and the shared store digest equals a serial single-client
  run byte for byte,
* ``SIGKILL`` the daemon mid-sweep, restart it, resubmit — the final store
  digest is identical to an uninterrupted run (per-point durability).
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.service import (
    ProtocolError,
    ReproDaemon,
    ServiceClient,
    ServiceError,
    wait_for_socket,
)
from repro.service import protocol
from repro.sweep import ResultStore, SweepRunner, SweepSpec

#: The grid used throughout: two cheap points of the minimal scenario.
GRID = {"scenarios": ["minimal_1x1"], "seeds": [0, 1]}
GRID_SPEC = SweepSpec(scenarios=("minimal_1x1",), seeds=(0, 1))


def serial_digest(tmp_path, spec: SweepSpec = GRID_SPEC) -> str:
    """Digest of a plain single-process SweepRunner run (the reference)."""
    store = ResultStore(tmp_path / "serial-reference")
    SweepRunner(spec, store).run()
    return store.digest()


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_sweep_spec_round_trips_through_json(self):
        spec = SweepSpec(scenarios=("minimal_1x1",), seeds=(0, 1, 2),
                         placements=(None, "leaf"))
        wire = json.loads(protocol.encode_line(protocol.sweep_spec_to_dict(spec)))
        assert protocol.sweep_spec_from_dict(wire) == spec

    def test_unknown_sweep_field_is_rejected(self):
        with pytest.raises(ProtocolError, match="sedes"):
            protocol.sweep_spec_from_dict({"sedes": [0]})  # typo'd axis

    def test_scalar_axis_values_are_promoted(self):
        spec = protocol.sweep_spec_from_dict({"scenarios": "minimal_1x1", "seeds": 3})
        assert spec == SweepSpec(scenarios=("minimal_1x1",), seeds=(3,))

    def test_experiment_submission_is_a_one_point_sweep(self):
        spec = protocol.experiment_to_sweep_spec({"scenario": "minimal_1x1", "seed": 7})
        assert spec.plan().points == SweepSpec(
            scenarios=("minimal_1x1",), seeds=(7,)
        ).plan().points

    def test_experiment_submission_requires_a_scenario(self):
        with pytest.raises(ProtocolError, match="scenario"):
            protocol.experiment_to_sweep_spec({"seed": 1})

    def test_submit_carries_exactly_one_shape(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            protocol.submission_to_sweep_spec({"op": "submit"})
        with pytest.raises(ProtocolError, match="exactly one"):
            protocol.submission_to_sweep_spec(
                {"op": "submit", "sweep": {}, "experiment": {}}
            )

    def test_event_kinds_are_a_closed_set(self):
        event = protocol.make_event(protocol.POINT_DONE, 3, point_id="p")
        assert event == {"kind": "point.done", "cycle": 3,
                         "source": "repro-daemon", "data": {"point_id": "p"}}
        with pytest.raises(ValueError):
            protocol.make_event("point.invented", 1)

    def test_unknown_op_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            protocol.parse_request(b'{"op": "reboot"}\n')
        with pytest.raises(ProtocolError):
            protocol.parse_request(b"not json\n")


# ---------------------------------------------------------------------------
# Daemon (in-thread) fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    """A live daemon on a temp socket, torn down after the test."""
    sock = tmp_path / "daemon.sock"
    daemon = ReproDaemon(
        tmp_path / "store", sock, workers=2,
        trace_path=tmp_path / "trace.jsonl", http_port=0,
    )
    thread = threading.Thread(target=lambda: asyncio.run(daemon.run()), daemon=True)
    thread.start()
    wait_for_socket(sock)
    env = SimpleNamespace(
        daemon=daemon, socket=sock,
        store_dir=tmp_path / "store", trace=tmp_path / "trace.jsonl",
    )
    yield env
    try:
        ServiceClient(sock).shutdown()
    except (ServiceError, OSError):
        pass  # the test already stopped it
    thread.join(timeout=15)
    assert not thread.is_alive(), "daemon failed to shut down"


class TestDaemonRoundTrip:
    def test_submit_then_cached_resubmit(self, served, tmp_path):
        client = ServiceClient(served.socket)
        assert client.ping()["protocol"] == protocol.PROTOCOL_VERSION

        first = client.submit(sweep=GRID)
        assert first["job"]["state"] == "done"
        assert first["job"]["counts"] == {
            "computed": 2, "coalesced": 0, "cached": 0, "failed": 0
        }
        kinds = [e["kind"] for e in first["events"]]
        assert kinds[0] == protocol.JOB_ACCEPTED
        assert kinds[-1] == protocol.JOB_DONE
        assert kinds.count(protocol.POINT_DONE) == 2

        # The whole grid is now in the shared store: the resubmission is
        # served without touching the pool (no point.done events at all).
        second = client.submit(sweep=GRID)
        assert second["job"]["counts"] == {
            "computed": 0, "coalesced": 0, "cached": 2, "failed": 0
        }
        assert [e["kind"] for e in second["events"]] == [
            protocol.JOB_ACCEPTED, protocol.POINT_CACHED,
            protocol.POINT_CACHED, protocol.JOB_DONE,
        ]
        assert second["job"]["store_digest"] == first["job"]["store_digest"]
        assert first["job"]["store_digest"] == serial_digest(tmp_path)

    def test_experiment_submission_and_status(self, served):
        client = ServiceClient(served.socket)
        out = client.submit(experiment={"scenario": "minimal_1x1", "seed": 0})
        assert out["job"]["state"] == "done"
        assert out["job"]["counts"]["computed"] == 1

        status = client.status()
        assert status["store"]["entries"] == 1
        assert status["inflight"] == 0
        assert [j["state"] for j in status["jobs"]] == ["done"]

    def test_malformed_submissions_are_refused_not_fatal(self, served):
        client = ServiceClient(served.socket)
        with pytest.raises(ServiceError, match="exactly one"):
            client.submit()
        with pytest.raises(ServiceError, match="unknown sweep field"):
            client.submit(sweep={"sedes": [0]})
        # The daemon survived both refusals.
        assert client.ping()["ok"]

    def test_trace_file_follows_the_jsonl_wire_schema(self, served):
        ServiceClient(served.socket).submit(sweep=GRID)
        lines = [json.loads(l) for l in served.trace.read_text().splitlines()]
        assert lines, "daemon wrote no trace"
        for event in lines:
            assert set(event) == {"kind", "cycle", "source", "data"}
            assert event["kind"] in protocol.SERVICE_EVENT_KINDS
            assert event["source"] == protocol.EVENT_SOURCE
        # cycle is the daemon's monotonic event sequence.
        cycles = [event["cycle"] for event in lines]
        assert cycles == sorted(cycles)

    def test_http_shim_serves_ping_status_submit(self, served):
        import urllib.request

        port = served.daemon.http_port
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/ping", timeout=10) as r:
            assert json.loads(r.read())["protocol"] == protocol.PROTOCOL_VERSION
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/submit",
            data=json.dumps({"experiment": {"scenario": "minimal_1x1"}}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=120) as r:
            job = json.loads(r.read())["job"]
        assert job["state"] == "done" and job["counts"]["computed"] == 1
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/status", timeout=10) as r:
            assert json.loads(r.read())["store"]["entries"] == 1


class TestConcurrentClients:
    def test_overlapping_sweeps_compute_each_point_exactly_once(
        self, served, tmp_path
    ):
        def submit():
            return ServiceClient(served.socket).submit(sweep=GRID)

        with ThreadPoolExecutor(2) as pool:
            a, b = list(pool.map(lambda fn: fn(), [submit, submit]))

        ca, cb = a["job"]["counts"], b["job"]["counts"]
        # Exactly one execution per point across both jobs; the other job
        # either coalesced onto the in-flight future or hit the store.
        assert ca["computed"] + cb["computed"] == 2
        assert (ca["coalesced"] + ca["cached"]
                + cb["coalesced"] + cb["cached"]) == 2
        assert ca["failed"] == cb["failed"] == 0

        digest = a["job"]["store_digest"]
        assert digest == b["job"]["store_digest"]
        assert digest == serial_digest(tmp_path)
        # The store holds each point once (no duplicate executions).
        assert len(ResultStore(served.store_dir)) == 2


# ---------------------------------------------------------------------------
# Kill/resume (real subprocess daemon)
# ---------------------------------------------------------------------------


def _spawn_daemon(tmp_path, sock):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(sock), "--store", str(tmp_path / "store"),
         "--workers", "2", "--trace", str(tmp_path / "trace.jsonl")],
        env=env, cwd=str(tmp_path),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    wait_for_socket(sock, timeout=30.0)
    return proc


class TestKillResume:
    def test_sigkilled_daemon_resumes_to_an_identical_store(self, tmp_path):
        grid = {"scenarios": ["minimal_1x1"], "seeds": [0, 1, 2, 3]}
        sock = tmp_path / "daemon.sock"
        results = tmp_path / "store" / "results.jsonl"

        proc = _spawn_daemon(tmp_path, sock)
        try:
            accepted = ServiceClient(sock).submit(sweep=grid, wait=False)
            assert accepted["accepted"]["missing"] == 4
            # Wait until at least one point landed durably, then SIGKILL.
            deadline = time.monotonic() + 120
            while not (results.exists() and results.stat().st_size):
                assert time.monotonic() < deadline, "no point completed in time"
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait(timeout=30)

        partial = ResultStore(tmp_path / "store")
        assert 1 <= len(partial) <= 4  # something survived, likely not all

        # Restart on the same socket path (stale socket file) + store.
        proc = _spawn_daemon(tmp_path, sock)
        try:
            client = ServiceClient(sock)
            resumed = client.submit(sweep=grid)
            counts = resumed["job"]["counts"]
            assert resumed["job"]["state"] == "done"
            assert counts["cached"] == len(partial)
            assert counts["computed"] == 4 - len(partial)
            client.shutdown()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

        spec = SweepSpec(scenarios=("minimal_1x1",), seeds=(0, 1, 2, 3))
        assert ResultStore(tmp_path / "store").digest() == serial_digest(
            tmp_path, spec
        )


# ---------------------------------------------------------------------------
# CLI client commands against a live daemon
# ---------------------------------------------------------------------------


class TestCli:
    def test_submit_and_status_round_trip(self, served, capsys):
        from repro.api.cli import main

        assert main(["submit", "--fast", "--socket", str(served.socket)]) == 0
        out = capsys.readouterr().out
        assert "computed=1" in out and "store digest" in out

        assert main(["submit", "--fast", "--socket", str(served.socket),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["job"]["counts"]["cached"] == 1

        assert main(["status", "--socket", str(served.socket)]) == 0
        out = capsys.readouterr().out
        assert "store: 1 results" in out

    def test_no_wait_returns_on_acceptance(self, served, capsys):
        from repro.api.cli import main

        assert main(["submit", "--fast", "--socket", str(served.socket),
                     "--no-wait"]) == 0
        assert "accepted job-" in capsys.readouterr().out

    def test_client_commands_fail_cleanly_without_a_daemon(self, tmp_path, capsys):
        from repro.api.cli import main

        missing = str(tmp_path / "nope.sock")
        assert main(["status", "--socket", missing]) == 1
        assert main(["submit", "--fast", "--socket", missing]) == 1
        err = capsys.readouterr().err
        assert "repro serve" in err
