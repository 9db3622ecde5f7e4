"""The asyncio TCP front door: protocol, backpressure, metrics, prefork.

In-process tests drive a :class:`~repro.serve.server.ThreadedServer`
over real sockets with the blocking :class:`~repro.serve.ServeClient`:
wire answers must be byte-identical to direct index queries, error
paths must answer (not disconnect), admission control must shed with
the explicit overloaded response, and ``stats`` must carry the request
counters and latency percentiles.  The prefork worker model (processes,
SO_REUSEPORT, WAL-routed writes, SIGTERM drain) is exercised through
the real CLI in a subprocess.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import DynamicLCCSLSH, LCCSLSH
from repro.serve import ANNService, Overloaded, ServeClient, ServerError
from repro.obs.metrics import LatencyHistogram, ServerMetrics
from repro.serve.server import ServiceBackend, ThreadedServer

DIM = 16
N = 120


def _fitted_static(seed: int = 0) -> LCCSLSH:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(N, DIM))
    return LCCSLSH(dim=DIM, m=8, w=4.0, seed=5).fit(data)


def _fitted_dynamic(seed: int = 0) -> DynamicLCCSLSH:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(N, DIM))
    return DynamicLCCSLSH(dim=DIM, m=8, w=4.0, seed=5).fit(data)


@pytest.fixture()
def served_dynamic():
    """(ThreadedServer, ANNService, index) over a dynamic index."""
    index = _fitted_dynamic()
    service = ANNService(index, cache_size=64)
    server = ThreadedServer(
        ServiceBackend(service, default_k=5), max_inflight=8
    ).start()
    try:
        yield server, service, index
    finally:
        server.stop()
        service.close()


# ----------------------------------------------------------------------
# Wire fidelity
# ----------------------------------------------------------------------


def test_tcp_results_byte_identical_to_batch_query():
    """The pinned acceptance property: what a TCP client receives is

    byte-identical (ids and dists) to a direct ``batch_query`` on the
    same index — JSON round-trips float repr exactly, so not even the
    last ulp may differ.
    """
    index = _fitted_static()
    service = ANNService(index, cache_size=0)
    rng = np.random.default_rng(42)
    queries = rng.normal(size=(8, DIM))
    want_ids, want_dists = index.batch_query(queries, k=7)
    backend = ServiceBackend(service, default_k=7)
    try:
        with ThreadedServer(backend) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                for i in range(len(queries)):
                    ids, dists = client.query(queries[i], k=7)
                    valid = want_ids[i] >= 0
                    assert ids.tolist() == want_ids[i][valid].tolist()
                    # byte-identical, not approximately equal
                    assert dists.tobytes() == want_dists[i][valid].tobytes()
    finally:
        service.close()


def test_pipelined_responses_come_back_in_request_order(served_dynamic):
    server, _, index = served_dynamic
    rng = np.random.default_rng(1)
    queries = rng.normal(size=(6, DIM))
    with ServeClient("127.0.0.1", server.port) as client:
        for q in queries:  # fill the wire before reading anything
            client.send({"query": q.tolist(), "k": 3})
        for q in queries:
            response = client.recv()
            want_ids, _ = index.query(q, k=3)
            assert response["ids"] == want_ids.tolist()


def test_write_barrier_within_one_connection(served_dynamic):
    """A pipelined insert answers only after the prior query: its

    response order (and the version it reports) must reflect the
    serial stdin semantics.
    """
    server, service, _ = served_dynamic
    rng = np.random.default_rng(2)
    with ServeClient("127.0.0.1", server.port) as client:
        client.send({"query": rng.normal(size=DIM).tolist(), "k": 2})
        client.send({"insert": rng.normal(size=DIM).tolist()})
        client.send({"query": rng.normal(size=DIM).tolist(), "k": 2})
        first = client.recv()
        second = client.recv()
        third = client.recv()
    assert "ids" in first and "ids" in third
    assert second["handle"] == N and second["version"] == 1
    assert service.version == 1


# ----------------------------------------------------------------------
# Error paths: every bad request answers, the connection survives
# ----------------------------------------------------------------------


def test_malformed_json_gets_error_line_and_connection_survives(
    served_dynamic,
):
    server, _, _ = served_dynamic
    with ServeClient("127.0.0.1", server.port) as client:
        client._file.write(b"{definitely not json\n")
        client._file.flush()
        response = client.recv()
        assert response["error"].startswith("bad request:")
        assert client.ping()  # same socket still serves


def test_wrong_dimensionality_is_an_error_response(served_dynamic):
    server, _, _ = served_dynamic
    with ServeClient("127.0.0.1", server.port) as client:
        with pytest.raises(ServerError, match=r"shape \(16,\)"):
            client.query(np.zeros(DIM + 3), k=2)
        assert client.ping()


def test_delete_unknown_handle_is_an_error_response(served_dynamic):
    server, _, _ = served_dynamic
    with ServeClient("127.0.0.1", server.port) as client:
        with pytest.raises(ServerError, match="unknown handle"):
            client.delete(10_000)
        assert client.ping()


def test_unknown_op_and_non_object_requests(served_dynamic):
    server, _, _ = served_dynamic
    with ServeClient("127.0.0.1", server.port) as client:
        assert "unknown request" in client.request({"frobnicate": 1})["error"]
        client._file.write(b"[1, 2, 3]\n")
        client._file.flush()
        assert "JSON object" in client.recv()["error"]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


def _gate_service_reads(service) -> threading.Event:
    """Stall the service's *batcher thread* (not the event loop) on an

    event: ``query_async`` keeps returning futures instantly, so the
    server keeps admitting until ``max_inflight`` — exactly the shape
    of a backend that cannot keep up.
    """
    gate = threading.Event()
    ci = service.index
    real_batch, real_single = ci.batch_query_versioned, ci.query_versioned

    def gated_batch(*args, **kwargs):
        gate.wait(timeout=30)
        return real_batch(*args, **kwargs)

    def gated_single(*args, **kwargs):
        gate.wait(timeout=30)
        return real_single(*args, **kwargs)

    ci.batch_query_versioned = gated_batch
    ci.query_versioned = gated_single
    return gate


def test_overload_sheds_with_explicit_response():
    """Pipelining more queries than ``max_inflight`` while the backend

    is stalled must shed the excess with ``{"error": "overloaded",
    "shed": true}`` — in order, without dropping the connection — and
    count them in the metrics.
    """
    index = _fitted_dynamic()
    service = ANNService(index, cache_size=0)
    gate = _gate_service_reads(service)
    backend = ServiceBackend(service, default_k=3)
    try:
        with ThreadedServer(backend, max_inflight=2) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                q = np.zeros(DIM).tolist()
                for _ in range(6):
                    client.send({"query": q, "k": 3})
                # The two admitted queries are parked on the gate, so
                # the four excess requests are shed at read time; wait
                # until the server has read (and shed) all four before
                # releasing the gate, or an admitted query may finish
                # first and free a slot for a later one.
                deadline = time.monotonic() + 30
                while server.server.metrics.snapshot()["shed_total"] < 4:
                    assert time.monotonic() < deadline, "never shed 4"
                    time.sleep(0.005)
                responses = []
                gate.set()
                for _ in range(6):
                    responses.append(client.recv())
                shed = [r for r in responses if r.get("shed")]
                served = [r for r in responses if "ids" in r]
                assert len(shed) == 4
                assert all(r["error"] == "overloaded" for r in shed)
                assert len(served) == 2
                stats = client.stats()
                assert stats["server"]["shed_total"] == 4
                assert stats["server"]["ops"]["query"]["shed"] == 4
    finally:
        service.close()


def test_pipelined_cache_hits_are_answered_never_shed():
    """A burst of cache hits is not load: 200 pipelined hits on one idle
    connection — three times the default ``max_inflight`` of 64 — all get
    their answer.  The read loop does not yield while its buffer holds
    data, so counting each hit as in flight used to shed 136 of them.
    Every hit still shows in the server's query metrics, and the cache's
    hit/miss counters move exactly once per request."""
    service = ANNService(_fitted_dynamic(), cache_size=64)
    line = json.dumps({"query": np.ones(DIM).tolist(), "k": 3}).encode() + b"\n"
    try:
        with ThreadedServer(ServiceBackend(service, default_k=3)) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock, sock.makefile("rwb") as wire:
                wire.write(line)
                wire.flush()
                first = json.loads(wire.readline())  # the miss fills the cache
                wire.write(line * 200)
                wire.flush()
                replies = [json.loads(wire.readline()) for _ in range(200)]
            assert all(reply == first for reply in replies), [
                r for r in replies if r != first
            ][:3]
            with ServeClient("127.0.0.1", server.port) as client:
                stats = client.stats()
        assert stats["server"]["shed_total"] == 0
        assert stats["server"]["ops"]["query"]["count"] == 201
        assert (stats["cache_hits"], stats["cache_misses"]) == (200, 1)
    finally:
        service.close()


def test_client_overloaded_exception_carries_shed_flag(served_dynamic):
    server, service, _ = served_dynamic
    gate = _gate_service_reads(service)
    try:
        with ServeClient("127.0.0.1", server.port) as pipeliner:
            q = np.zeros(DIM).tolist()
            for _ in range(8):  # fill max_inflight=8 across the server
                pipeliner.send({"query": q, "k": 2})
            # admission is global to the worker: a *different* socket
            # sees the overload too, and the client surfaces it typed.
            # Poll with stats (also subject to admission) until the 8
            # pipelined queries are all admitted — from then on every
            # request sheds deterministically.
            with ServeClient("127.0.0.1", server.port) as client:
                deadline = time.time() + 10
                while True:
                    try:
                        client.stats()
                    except Overloaded:
                        break  # the inflight bound is reached
                    assert time.time() < deadline, "bound never reached"
                    time.sleep(0.01)
                with pytest.raises(Overloaded):
                    client.query(np.zeros(DIM), k=2)
            gate.set()
            for _ in range(8):
                assert "ids" in pipeliner.recv()
    finally:
        gate.set()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def test_stats_reports_latency_percentiles_and_counters(served_dynamic):
    server, _, _ = served_dynamic
    rng = np.random.default_rng(3)
    with ServeClient("127.0.0.1", server.port) as client:
        for _ in range(10):
            client.query(rng.normal(size=DIM), k=3)
        client.insert(rng.normal(size=DIM))
        stats = client.stats()
    srv = stats["server"]
    assert srv["connections"] == 1
    assert srv["requests_total"] == 11
    assert srv["errors_total"] == 0
    query_stats = srv["ops"]["query"]
    assert query_stats["requests"] == 10
    assert query_stats["count"] == 10
    for name in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
        assert query_stats[name] > 0.0
    assert query_stats["min_ms"] <= query_stats["p50_ms"]
    assert query_stats["p50_ms"] <= query_stats["p99_ms"]
    assert query_stats["p99_ms"] <= query_stats["max_ms"]
    assert srv["ops"]["insert"]["requests"] == 1


def test_latency_histogram_percentiles_bounded_by_bucket_error():
    hist = LatencyHistogram()
    rng = np.random.default_rng(0)
    samples = rng.uniform(1e-4, 1e-1, size=2000)
    for s in samples:
        hist.record(s)
    for p in (50, 90, 99):
        got = hist.percentile(p)
        want = float(np.percentile(samples, p))
        # log-bucketed estimate: within one 25 % bucket of the truth
        assert want / 1.3 <= got <= want * 1.3
    assert hist.percentile(0) == samples.min()
    assert hist.percentile(100) == samples.max()


def test_latency_histogram_merge_and_empty():
    empty = LatencyHistogram()
    assert empty.percentile(50) is None
    assert empty.snapshot() == {"count": 0}
    a, b = LatencyHistogram(), LatencyHistogram()
    for s in (0.001, 0.002, 0.003):
        a.record(s)
    for s in (0.5, 1.0):
        b.record(s)
    a.merge(b)
    snap = a.snapshot()
    assert snap["count"] == 5
    assert snap["min_ms"] == 1.0 and snap["max_ms"] == 1000.0


def test_server_metrics_shed_not_in_latency():
    metrics = ServerMetrics()
    metrics.observe("query", 0.01)
    metrics.count_shed("query")
    snap = metrics.snapshot()
    assert snap["ops"]["query"]["requests"] == 2
    assert snap["ops"]["query"]["shed"] == 1
    assert snap["ops"]["query"]["count"] == 1  # only the served one


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


def test_drain_refuses_new_connections_but_finishes_existing():
    index = _fitted_dynamic()
    service = ANNService(index, cache_size=0)
    backend = ServiceBackend(service, default_k=3)
    server = ThreadedServer(backend, drain_timeout=10.0).start()
    try:
        client = ServeClient("127.0.0.1", server.port)
        assert client.ping()  # connection fully established server-side
        server.drain()
        time.sleep(0.2)  # listener closes asynchronously
        with pytest.raises((ConnectionError, OSError)):
            probe = socket.create_connection(
                ("127.0.0.1", server.port), timeout=0.5
            )
            # if the kernel still accepted (backlog race), the server
            # must not answer: recv sees EOF
            probe.settimeout(2.0)
            probe.sendall(b'{"ping": true}\n')
            if probe.recv(100) == b"":
                probe.close()
                raise ConnectionError("refused after accept")
            probe.close()
        # the pre-drain connection still gets full service
        ids, _ = client.query(np.zeros(DIM), k=2)
        assert len(ids) == 2
        client.close()
        server.stop()
    finally:
        service.close()


def test_stop_after_a_completed_drain_is_a_no_op():
    """The race behind the drain test's one-in-ten ``RuntimeError``: once
    the last connection of a draining server closes, its thread leaves
    ``asyncio.run`` and closes the loop; a ``stop()`` arriving after that
    used to schedule ``begin_drain`` on the closed loop."""
    service = ANNService(_fitted_dynamic(), cache_size=0)
    server = ThreadedServer(ServiceBackend(service, default_k=3)).start()
    try:
        client = ServeClient("127.0.0.1", server.port)
        assert client.ping()
        server.drain()
        client.close()  # last connection gone: the drain completes
        server._thread.join(timeout=10)
        assert not server._thread.is_alive()
        server.stop()  # loop already closed
        server.drain()
    finally:
        service.close()


# ----------------------------------------------------------------------
# Prefork workers through the real CLI
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_prefork_workers_share_port_route_writes_and_drain(tmp_path):
    """Two forked mmap workers behind one SO_REUSEPORT port: reads on

    either worker, writes routed to the primary's WAL, ``min_version``
    read-your-writes across processes, graceful SIGTERM drain.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        pytest.skip("no SO_REUSEPORT on this platform")
    bundle = tmp_path / "dyn.bundle"
    env = dict(os.environ)
    src = str((os.path.dirname(__file__) or ".") + "/../src")
    env["PYTHONPATH"] = os.path.abspath(src)
    build = subprocess.run(
        [sys.executable, "-m", "repro.cli", "build", "--dataset", "sift",
         "--n", "200", "--method", "dynamic", "--out", str(bundle),
         "--seed", "7"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
    with subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(bundle),
         "--tcp", "127.0.0.1:0", "--workers", "2",
         "--wal-dir", str(tmp_path / "dyn.wal"), "--mmap",
         "--fsync", "off", "--max-inflight", "32"],
        env=env, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            port = None
            deadline = time.time() + 120
            while time.time() < deadline:
                line = proc.stderr.readline()
                if not line:
                    break
                found = re.search(r"listening on [\d.]+:(\d+) workers=2", line)
                if found:
                    port = int(found.group(1))
                    break
            assert port is not None, "no readiness line"
            rng = np.random.default_rng(0)
            pids = set()
            with ServeClient("127.0.0.1", port, timeout=60) as client:
                ids, dists = client.query(rng.normal(size=128), k=5)
                assert list(dists) == sorted(dists)
                inserted = client.insert(rng.normal(size=128))
                assert inserted["seq"] >= 1
                # read-your-writes across processes: whatever worker this
                # lands on must catch up to the write's WAL position
                ids, _ = client.query(
                    np.zeros(128), k=201, min_version=inserted["seq"]
                )
                assert inserted["handle"] in ids.tolist()
                stats = client.stats()
                assert stats["role"] == "replica"
                assert stats["applied_seq"] >= inserted["seq"]
                pids.add(stats["pid"])
            # a second connection may land on either worker — both serve
            with ServeClient("127.0.0.1", port, timeout=60) as client:
                client.query(rng.normal(size=128), k=3)
                pids.add(client.stats()["pid"])
            assert pids  # at least one worker pid observed
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            rest = proc.stderr.read()
            assert rc == 0, rest
            assert "all workers drained" in rest
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
