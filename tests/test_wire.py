"""The wire at batch cost: one codec, one loop wake-up per micro-batch.

* **Codec** (:mod:`repro.serve.codec`): strict JSON both ways — ``NaN``,
  ``Infinity`` and ``1e999`` are refused at decode — compact replies,
  and every finite double (subnormals and ``-0.0`` included) survives
  request -> server -> reply bit for bit.
* **Batch epoch**: the serving loop is woken once per executed
  micro-batch, not once per query, and answers stay byte-identical to
  ``index.batch_query`` in per-connection order.
* **Backend start**: every entry point — stdin, TCP, the prefork worker
  — starts its backend exactly once, inside ``AsyncANNServer.start``.
* **Non-finite writes** never reach the index or its WAL.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DynamicLCCSLSH, IndexSpec
from repro.cli import main
from repro.serve import (
    ANNService,
    DurableIndex,
    Replica,
    ServeClient,
    SnapshotManager,
    ThreadedServer,
    recover,
)
from repro.serve import server as server_mod
from repro.serve.codec import decode_line, encode_line
from repro.serve.durability.wal import iter_ops
from repro.serve.server import ReplicaBackend, ServerConfig, ServiceBackend

DIM = 16
N = 120


def _fitted_dynamic(seed: int = 0) -> DynamicLCCSLSH:
    rng = np.random.default_rng(seed)
    return DynamicLCCSLSH(dim=DIM, m=8, w=4.0, seed=5).fit(
        rng.normal(size=(N, DIM))
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class _CountingBackend(ServiceBackend):
    """A ServiceBackend that counts its loop wake-ups (batch epochs)."""

    epochs = 0

    def _next_epoch(self) -> None:
        self.epochs += 1
        super()._next_epoch()


class _EchoBackend(server_mod._Backend):
    """Answers a query with its parsed vector as the distances, so a
    reply shows exactly what the server decoded."""

    role = "echo"

    def query_nowait(self, request, trace=None):
        q, _, _, _ = self.parse_query(request)
        fut = Future()
        fut.set_result((np.arange(len(q)), q))
        return fut

    def _stats(self) -> dict:
        return {"n": np.int64(3), "ratio": np.float32(0.25), "ok": np.bool_(True)}


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "line",
    [
        b'{"query": [NaN, 1.0]}',
        b'{"query": [Infinity]}',
        b'{"query": [-Infinity]}',
        b'{"insert": [1e999]}',
    ],
)
def test_decode_refuses_non_finite_numbers(line):
    with pytest.raises(ValueError):
        decode_line(line)


def test_replies_are_compact_and_numpy_scalars_encode():
    assert encode_line({"ids": [1, 2], "dists": [0.5, 1e-5]}) == (
        b'{"ids":[1,2],"dists":[0.5,0.00001]}\n'
    )
    stats = {"a": np.int64(7), "b": np.float32(0.25), "c": np.bool_(True)}
    assert decode_line(encode_line({"stats": stats})) == {
        "stats": {"a": 7, "b": 0.25, "c": True}
    }


def test_non_finite_floats_encode_as_null():
    """No served stats value is non-finite today; pin what one would
    become, since strict JSON has no spelling for it."""
    line = encode_line({"x": float("nan"), "y": float("inf"), "z": np.float64("-inf")})
    assert line == b'{"x":null,"y":null,"z":null}\n'


_FINITE = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12
)
_EDGES = [5e-324, -0.0, 0.0, 2.2250738585072014e-308, -1e-310,
          1.7976931348623157e308, 0.1, 1 / 3]


@given(values=_FINITE)
@example(values=_EDGES)
@settings(max_examples=300, deadline=None)
def test_codec_round_trips_every_finite_double(values):
    assert _bits(decode_line(encode_line(values))) == _bits(values)
    # a stdlib-json client's spelling decodes to the same doubles
    assert _bits(decode_line(json.dumps(values))) == _bits(values)


def test_finite_doubles_survive_request_to_reply_bit_for_bit():
    """Through the real handler: client encode -> server decode ->
    server encode -> client decode, and the same from a stdlib-json
    request line."""
    with ThreadedServer(_EchoBackend()) as server:
        with ServeClient("127.0.0.1", server.port) as client:

            @given(values=_FINITE)
            @example(values=_EDGES)
            @settings(max_examples=150, deadline=None)
            def round_trip(values):
                _, dists = client.query(np.array(values), k=1)
                assert dists.tobytes() == _bits(values)
                client._file.write(
                    (json.dumps({"query": values}) + "\n").encode()
                )
                client._file.flush()
                assert _bits(client.recv()["dists"]) == _bits(values)

            round_trip()
            # numpy scalars a backend puts in stats encode through .item()
            stats = client.stats()
            assert (stats["n"], stats["ratio"], stats["ok"]) == (3, 0.25, True)
            # a refused line answers an error and the connection survives
            client._file.write(b'{"query": [NaN]}\n')
            client._file.flush()
            assert client.recv()["error"].startswith("bad request:")
            assert client.ping()


# ----------------------------------------------------------------------
# One loop wake-up per micro-batch
# ----------------------------------------------------------------------


def test_pipelined_queries_wake_the_loop_once_per_batch():
    index = _fitted_dynamic()
    service = ANNService(index, cache_size=0)
    listened = []
    service.add_batch_listener(lambda: listened.append(1))
    backend = _CountingBackend(service, default_k=4)
    rng = np.random.default_rng(11)
    conns, per_conn = 3, 40
    queries = rng.normal(size=(conns, per_conn, DIM))
    replies = [None] * conns
    try:
        with ThreadedServer(backend, max_inflight=conns * per_conn) as server:

            def pipeline(c: int) -> None:
                lines = b"".join(
                    encode_line({"query": q.tolist(), "k": 4}) for q in queries[c]
                )
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=60
                ) as sock, sock.makefile("rwb") as wire:
                    wire.write(lines)
                    wire.flush()
                    replies[c] = [decode_line(wire.readline()) for _ in range(per_conn)]

            threads = [threading.Thread(target=pipeline, args=(c,)) for c in range(conns)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            # the last batch's wake-up may still be in the loop's queue
            batches = service.stats()["batches"]
            deadline = time.monotonic() + 10
            while backend.epochs < batches and time.monotonic() < deadline:
                time.sleep(0.01)
        assert len(listened) == backend.epochs == batches
        assert service.stats()["batched_queries"] == conns * per_conn
        for c in range(conns):
            ids, dists = index.batch_query(queries[c], k=4)
            for i, reply in enumerate(replies[c]):
                valid = ids[i] >= 0
                assert reply["ids"] == ids[i][valid].tolist()
                assert _bits(reply["dists"]) == dists[i][valid].tobytes()
    finally:
        service.close()


def test_replica_min_version_read_resolves_through_the_epoch(tmp_path):
    spec = IndexSpec("DynamicLCCSLSH", dim=DIM, m=8, w=4.0, seed=13)
    wal_dir = str(tmp_path / "wal")
    primary = DurableIndex(spec.build(), wal_dir, spec=spec)
    rng = np.random.default_rng(1)
    primary.fit(rng.normal(size=(30, DIM)))
    replica = Replica(wal_dir)
    service = ANNService(replica.index, cache_size=0)

    class CountingReplica(ReplicaBackend):
        epochs = 0

        def _next_epoch(self) -> None:
            self.epochs += 1
            super()._next_epoch()

    backend = CountingReplica(
        service, replica, default_kwargs={"num_candidates": 1000},
        tail_interval_s=60.0,
    )
    vec = rng.normal(size=DIM)
    try:
        with ThreadedServer(backend) as server, ServeClient(
            "127.0.0.1", server.port
        ) as client:
            handle = primary.insert(vec)
            ids, dists = client.query(vec, k=1, min_version=primary.applied_seq)
            assert ids.tolist() == [handle] and dists[0] == 0.0
            assert backend.epochs == service.stats()["batches"] == 1
    finally:
        service.close()
        primary.close()


# ----------------------------------------------------------------------
# Every entry point starts its backend, once
# ----------------------------------------------------------------------


@pytest.fixture()
def start_calls(monkeypatch):
    """Every ``_Backend.start`` call, as the backend it started."""
    calls = []
    original = server_mod._Backend.start

    def spy(self, loop):
        calls.append(self)
        original(self, loop)

    monkeypatch.setattr(server_mod._Backend, "start", spy)
    return calls


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("wire") / "static.bundle")
    rc = main(
        ["build", "--dataset", "sift", "--n", "200", "--queries", "5",
         "--method", "lccs", "--out", path]
    )
    assert rc == 0
    return path


def test_stdin_serving_starts_its_backend_once(bundle, tmp_path, capsys, start_calls):
    rng = np.random.default_rng(2)
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        "".join(json.dumps({"query": rng.normal(size=128).tolist(), "k": 3}) + "\n"
                for _ in range(6))
    )
    assert main(["serve", bundle, "--requests", str(requests), "--cache-size", "0"]) == 0
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [len(reply["ids"]) for reply in out] == [3] * 6
    assert len(start_calls) == 1


def test_tcp_serving_starts_its_backend_once(start_calls):
    service = ANNService(_fitted_dynamic(), cache_size=0)
    backend = ServiceBackend(service, default_k=3)
    try:
        with ThreadedServer(backend) as server, ServeClient(
            "127.0.0.1", server.port
        ) as client:
            assert len(client.query(np.zeros(DIM), k=2)[0]) == 2
        assert start_calls == [backend]
    finally:
        service.close()


def test_prefork_worker_starts_its_backend_once(bundle, start_calls, monkeypatch):
    """The worker coroutine each forked process runs, here on a thread."""
    servers = []
    original = server_mod.AsyncANNServer.start

    async def capture(self, listen=True):
        servers.append((self, asyncio.get_running_loop()))
        await original(self, listen)

    monkeypatch.setattr(server_mod.AsyncANNServer, "start", capture)
    ready = threading.Event()
    config = ServerConfig(bundle=bundle, cache_size=0)
    worker = threading.Thread(
        target=asyncio.run,
        args=(server_mod._worker_async(config, 0, "127.0.0.1", 0, None, ready, None),),
        daemon=True,
    )
    worker.start()
    assert ready.wait(timeout=60)
    (server, loop), = servers
    try:
        with ServeClient("127.0.0.1", server.port) as client:
            ids, _ = client.query(np.random.default_rng(3).normal(size=128), k=4)
            assert len(ids) == 4
    finally:
        loop.call_soon_threadsafe(server.begin_drain)
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert len(start_calls) == 1
    assert isinstance(start_calls[0], ReplicaBackend)


# ----------------------------------------------------------------------
# Non-finite vectors never reach the index or the WAL
# ----------------------------------------------------------------------


def test_non_finite_inserts_are_refused_before_the_log(tmp_path):
    wal_dir = str(tmp_path / "wal")
    durable = DurableIndex(
        _fitted_dynamic(), wal_dir, snapshots=SnapshotManager(wal_dir)
    )
    service = ANNService(durable, cache_size=0)
    backend = ServiceBackend(service, default_k=3, durable=durable)
    base_seq = durable.applied_seq
    ok = np.random.default_rng(4).normal(size=DIM)
    try:
        with ThreadedServer(backend) as server, ServeClient(
            "127.0.0.1", server.port
        ) as client:
            for bad in ("NaN", "Infinity", "-Infinity", "1e999"):
                values = ", ".join([bad] + ["0.5"] * (DIM - 1))
                client._file.write(f'{{"insert": [{values}]}}\n'.encode())
                client._file.flush()
                assert client.recv()["error"].startswith("bad request:")
            acked = client.insert(ok)  # the connection is still usable
            assert acked["seq"] == base_seq + 1
            # null decodes but is no number: refused for queries and writes
            for verb in ("query", "insert"):
                reply = client.request({verb: [None] * DIM})
                assert "finite" in reply["error"], reply
        for bad in (np.nan, np.inf):
            vector = ok.copy()
            vector[3] = bad
            with pytest.raises(ValueError, match="finite"):
                durable.insert(vector)
            with pytest.raises(ValueError, match="finite"):
                durable.inner.insert(vector)
        assert durable.applied_seq == base_seq + 1
    finally:
        service.close()
        durable.close()
    logged = [op for _, op in iter_ops(wal_dir)]
    assert [op.kind for op in logged] == ["insert"]
    assert _bits(logged[0].payload) == _bits(ok)
    rebuilt = recover(wal_dir).index
    q = np.random.default_rng(5).normal(size=(6, DIM))
    expect = durable.batch_query(q, k=5)
    got = rebuilt.batch_query(q, k=5)
    assert got[0].tobytes() == expect[0].tobytes()
    assert got[1].tobytes() == expect[1].tobytes()


def test_vectors_too_large_to_hash_answer_an_error_and_skip_the_log(tmp_path):
    """A finite vector whose projections pass int64 is no bad request
    (the codec reads it), but the index cannot hash it: the query gets
    ``{"error": "ValueError: ..."}`` and the insert is refused before
    the WAL append, so recovery never meets it."""
    wal_dir = str(tmp_path / "wal")
    durable = DurableIndex(
        _fitted_dynamic(), wal_dir, snapshots=SnapshotManager(wal_dir)
    )
    service = ANNService(durable, cache_size=0)
    backend = ServiceBackend(service, default_k=3, durable=durable)
    base_seq = durable.applied_seq
    huge = [1e200] * DIM
    try:
        with ThreadedServer(backend) as server, ServeClient(
            "127.0.0.1", server.port
        ) as client:
            for verb in ("query", "insert"):
                reply = client.request({verb: huge})
                assert reply["error"].startswith("ValueError: "), reply
                assert "int64 bucket range" in reply["error"], reply
            ok = np.random.default_rng(4).normal(size=DIM)
            assert client.insert(ok)["seq"] == base_seq + 1
        with pytest.raises(ValueError, match="int64 bucket range"):
            durable.insert(np.array(huge))
        assert durable.applied_seq == base_seq + 1
    finally:
        service.close()
        durable.close()
    assert [op.kind for _, op in iter_ops(wal_dir)] == ["insert"]
    assert recover(wal_dir).index.n == N + 1
