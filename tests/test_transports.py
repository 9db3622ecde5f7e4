"""One request handler, two transports: stdin and TCP must agree.

``cli serve`` without ``--tcp`` dresses stdin (or ``--requests FILE``)
and stdout as one connection of the same handler that serves sockets
(:class:`repro.serve.server.AsyncANNServer`).  These tests drive the
same request lines through both and hold them to the same contract:
equal responses, one whole JSON object per line in request order, a
failing query — even one that fails with a ``BaseException`` — answered
with an error *line* while everything behind it is still served, and a
stream longer than ``--max-inflight`` slowed down rather than shed.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.obs.tracing import get_tracer
from repro.serve import (
    ANNService,
    DurableIndex,
    SnapshotManager,
    ThreadedServer,
    load_index,
    read_manifest,
)
from repro.serve.concurrency import ConcurrentIndex
from repro.serve.server import ServiceBackend

DIM = 128  # the simulated sift dataset's dimensionality
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
TRANSPORTS = ("stdin", "tcp")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("transports") / "dyn.bundle")
    rc = main(
        [
            "build", "--dataset", "sift", "--n", "300", "--queries", "5",
            "--method", "dynamic", "--out", path,
        ]
    )
    assert rc == 0
    return path


def _query(rng, k: int, **extra) -> str:
    return json.dumps({"query": rng.normal(size=DIM).tolist(), "k": k, **extra})


def _through_stdin(bundle, lines, tmp_path, capsys, options=()):
    """``serve --requests FILE`` in-process -> (response lines, stderr)."""
    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join(lines) + "\n")
    result = {}

    def run() -> None:
        result["rc"] = main(
            ["serve", bundle, "--requests", str(requests), *options]
        )

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "serve hung"
    assert result["rc"] == 0
    captured = capsys.readouterr()
    return captured.out.splitlines(), captured.err


@contextlib.contextmanager
def _tcp_server(bundle, wal_dir=None, **server_kwargs):
    """What ``serve --tcp`` assembles, in-process: yields the port."""
    index = load_index(bundle)
    durable = None
    if wal_dir is not None:
        index = durable = DurableIndex(
            index, str(wal_dir), snapshots=SnapshotManager(str(wal_dir))
        )
    service = ANNService(index)
    backend = ServiceBackend(
        service,
        default_kwargs=read_manifest(bundle)["extra"]["query_kwargs"],
        durable=durable,
    )
    try:
        with ThreadedServer(backend, **server_kwargs) as server:
            yield server.port
    finally:
        service.close()
        if durable is not None:
            durable.close()


def _through_tcp(port, lines):
    """Pipeline every line down one socket, read one response per line."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        with sock.makefile("rwb") as wire:
            wire.write(("\n".join(lines) + "\n").encode())
            wire.flush()
            return [wire.readline().decode() for _ in lines]


def _drive(transport, bundle, lines, tmp_path, capsys):
    """The same lines through either transport -> parsed responses."""
    if transport == "stdin":
        out, _ = _through_stdin(bundle, lines, tmp_path, capsys)
    else:
        with _tcp_server(bundle) as port:
            out = _through_tcp(port, lines)
    assert len(out) == len(lines)
    return [json.loads(line) for line in out]  # each line: one whole object


# ----------------------------------------------------------------------
# (a) equivalence
# ----------------------------------------------------------------------


def _stable(response: dict) -> dict:
    """A response with its volatile fields (timings, pid, counters that
    depend on how the batcher happened to coalesce) dropped."""
    if "stats" in response:
        stats = response["stats"]
        server = stats["server"]
        return {
            "stats": {
                key: stats[key]
                for key in (
                    "role", "version", "writes", "applied_seq",
                    "cache_hits", "cache_misses", "kernel_backend",
                )
            },
            "keys": sorted(set(stats) - {"pid"}),
            "server": {
                key: server[key]
                for key in ("requests_total", "errors_total", "shed_total")
            },
            "ops": {
                op: counts["requests"] for op, counts in server["ops"].items()
            },
        }
    if "traces" in response:
        return {"keys": sorted(response), "sample": response["tracer"]["sample"]}
    if "metrics" in response:
        return {"keys": sorted(response["metrics"])}
    return response


def _converse(wire, phases):
    """Send each phase down ``wire`` only once the previous one is fully
    answered (an interactive client), returning every response line."""
    out = []
    for lines in phases:
        wire.write(("\n".join(lines) + "\n").encode())
        wire.flush()
        out += [wire.readline().decode() for _ in lines]
    return out


def test_stdin_and_tcp_answer_one_script_identically(bundle, tmp_path):
    """One conversation — a pipelined burst, every kind of bad line, a
    write, a read of that write, the observability verbs — held over a
    socket and over a real stdin/stdout pipe pair (which also shows that
    answers are flushed as they are ready, not at end of input)."""
    rng = np.random.default_rng(0)
    vector = rng.normal(size=DIM).tolist()
    first = [_query(rng, 4) for _ in range(6)]  # a pipelined burst
    first += [
        "{this is not json",
        "[1, 2, 3]",
        json.dumps({"frobnicate": 1}),
        json.dumps({"ping": True}),
        json.dumps({"insert": vector}),  # handle 300, seq 1
    ]
    # A query is submitted when it is read, so one pipelined *behind* a
    # write may overtake it: the client waits for the ack, as over TCP.
    second = [
        json.dumps({"query": vector, "k": 1, "min_version": 1}),
        json.dumps({"query": vector, "k": 1, "min_version": 99}),
        json.dumps({"delete": 300}),  # seq 2
        json.dumps({"stats": True}),
        json.dumps({"trace": 5}),
        json.dumps({"metrics": True}),
    ]
    total = len(first) + len(second)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", bundle,
            "--wal-dir", str(tmp_path / "stdin.wal"),
        ],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
    try:
        # (two handles, not one duplex wrapper: closing stdin is the EOF)
        class _Pipes:
            write, flush = proc.stdin.write, proc.stdin.flush
            readline = proc.stdout.readline

        out = _converse(_Pipes, [first, second])
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
        assert f"served {total} responses" in proc.stderr.read().decode()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    with _tcp_server(bundle, wal_dir=tmp_path / "tcp.wal") as port:
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            with sock.makefile("rwb") as wire:
                over_tcp = _converse(wire, [first, second])
    from_stdin = [json.loads(line) for line in out]
    from_tcp = [json.loads(line) for line in over_tcp]
    assert len(from_stdin) == len(from_tcp) == total
    for line, a, b in zip(first + second, from_stdin, from_tcp):
        assert _stable(a) == _stable(b), line[:60]
    # ... and what they agree on is the documented protocol
    assert all(len(r["ids"]) == 4 for r in from_stdin[:6])
    assert from_stdin[6]["error"].startswith("bad request:")
    assert "JSON object" in from_stdin[7]["error"]
    assert "unknown request" in from_stdin[8]["error"]
    assert from_stdin[9] == {"pong": True}
    assert from_stdin[10] == {"handle": 300, "version": 1, "seq": 1}
    assert from_stdin[11] == {"ids": [300], "dists": [0.0]}  # read-your-write
    assert "ahead of the log" in from_stdin[12]["error"]
    assert from_stdin[13] == {"deleted": 300, "version": 2, "seq": 2}
    stats = from_stdin[14]["stats"]
    assert (stats["role"], stats["applied_seq"]) == ("single", 2)
    assert stats["server"]["ops"]["query"]["requests"] == 8


# ----------------------------------------------------------------------
# (b) back-pressure, not shedding
# ----------------------------------------------------------------------


def test_stream_longer_than_max_inflight_is_never_shed(
    bundle, tmp_path, capsys
):
    """10x ``--max-inflight`` pipelined queries: the transport stops
    reading while the window is full, so every line gets its answer (in
    request order) where a socket pipelining the same burst is shed."""
    max_inflight = 4
    rng = np.random.default_rng(1)
    queries = rng.normal(size=(10 * max_inflight, DIM))
    lines = [
        json.dumps({"query": q.tolist(), "k": 1 + i % 5})
        for i, q in enumerate(queries)
    ]
    out, err = _through_stdin(
        bundle, lines, tmp_path, capsys,
        options=["--max-inflight", str(max_inflight), "--cache-size", "0"],
    )
    assert f"served {len(lines)} responses" in err
    responses = [json.loads(line) for line in out]
    assert len(responses) == len(lines)
    assert not [r for r in responses if r.get("shed") or "error" in r]
    index = load_index(bundle)
    kwargs = read_manifest(bundle)["extra"]["query_kwargs"]
    for i, (q, response) in enumerate(zip(queries, responses)):
        want_ids, want_dists = index.query(q, k=1 + i % 5, **kwargs)
        assert response["ids"] == want_ids.tolist()
        assert response["dists"] == want_dists.tolist()


def test_redirected_file_with_wal_serves_min_version(bundle, tmp_path):
    """Subprocess, stdin redirected from a *regular file* (no readiness
    to poll): a second ``--wal-dir`` run resumes from the recovered WAL
    state and serves ``min_version`` reads against it — at once when the
    log already reaches that seq, as an error line when it does not."""
    rng = np.random.default_rng(2)
    vector = rng.normal(size=DIM).tolist()
    insert, stats = {"insert": vector}, {"stats": True}
    read = {"query": vector, "k": 1, "min_version": 1}
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    command = [
        sys.executable, "-m", "repro.cli", "serve", bundle,
        "--wal-dir", str(tmp_path / "wal"),
    ]
    runs = []
    for lines in ([insert, stats], [read, {**read, "min_version": 99}, insert, stats]):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with open(requests) as stdin:
            proc = subprocess.run(
                command, stdin=stdin, capture_output=True, text=True,
                env=env, timeout=120,
            )
        assert proc.returncode == 0, proc.stderr
        assert f"served {len(lines)} responses" in proc.stderr
        assert ("recovered WAL state" in proc.stderr) == bool(runs)
        runs.append([json.loads(line) for line in proc.stdout.splitlines()])
    (first, stats0), (seen, ahead, second, stats1) = runs
    assert (first["handle"], first["seq"]) == (300, 1)
    assert stats0["stats"]["applied_seq"] == 1
    # the first run's acknowledged write, read back through its seq
    assert (seen["ids"], seen["dists"]) == ([300], [0.0])
    assert "ahead of the log" in ahead["error"]
    assert (second["handle"], second["seq"]) == (301, 2)
    assert stats1["stats"]["applied_seq"] == 2


# ----------------------------------------------------------------------
# (c) failures become lines; lines stay whole and ordered
# ----------------------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_query_future_raising_base_exception_becomes_an_error_line(
    transport, bundle, tmp_path, capsys, monkeypatch
):
    """The executor stores whatever the index raised in the query's
    future — a ``BaseException`` too.  That must come out as that
    request's error line; the single writer must survive it, or the
    answers queued behind it (and the ``stats`` barrier behind those)
    would wait forever."""

    class _Boom(BaseException):
        pass

    real = ConcurrentIndex.batch_query_versioned
    calls = {"n": 0}

    def boom_first_batch(self, queries, k=1, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise _Boom("poisoned future")
        return real(self, queries, k=k, **kwargs)

    monkeypatch.setattr(ConcurrentIndex, "batch_query_versioned", boom_first_batch)
    rng = np.random.default_rng(3)
    # different k: the healthy query must not share the poisoned batch
    lines = [_query(rng, 2), _query(rng, 3), json.dumps({"stats": True})]
    poisoned, healthy, stats = _drive(transport, bundle, lines, tmp_path, capsys)
    assert "_Boom" in poisoned["error"]
    assert len(healthy["ids"]) == 3  # the queued answer is still emitted
    assert stats["stats"]["server"]["ops"]["query"]["errors"] == 1


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_every_output_line_is_one_json_object_in_request_order(
    transport, bundle, tmp_path, capsys
):
    """Error lines, query answers and barrier verbs all leave through
    the handler's one ordered writer: no response can overtake another
    or interleave with it mid-line."""
    rng = np.random.default_rng(4)
    lines = [
        "{this is not json",
        _query(rng, 2),
        json.dumps({"stats": True}),
        json.dumps({"nonsense": 1}),
        _query(rng, 3),
    ]
    responses = _drive(transport, bundle, lines, tmp_path, capsys)
    assert responses[0]["error"].startswith("bad request:")
    assert len(responses[1]["ids"]) == 2
    assert responses[2]["stats"]["server"]["ops"]["query"]["requests"] == 1
    assert "unknown request" in responses[3]["error"]
    assert len(responses[4]["ids"]) == 3


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_trace_bound_is_a_positive_integer_or_everything(
    transport, bundle, tmp_path, capsys
):
    """``{"trace": n}``: a positive integer bounds both lists; anything
    else — ``0`` and ``false`` used to mean "all traces, empty slow log"
    — means everything retained."""
    tracer = get_tracer()
    tracer.reset()
    rng = np.random.default_rng(5)
    lines = [_query(rng, 2) for _ in range(3)]
    lines += [json.dumps({"trace": arg}) for arg in (2, 0, False, -1, True, 2.5)]
    try:
        if transport == "stdin":
            out, _ = _through_stdin(
                bundle, lines, tmp_path, capsys,
                options=["--trace-sample", "1", "--slow-ms", "0"],
            )
        else:
            tracer.configure(sample=1, slow_threshold_s=0.0)
            with _tcp_server(bundle) as port:
                out = _through_tcp(port, lines)
    finally:
        tracer.configure(sample=0, slow_threshold_s=0.1)
        tracer.reset()
    bounded, *everything = [json.loads(line) for line in out[3:]]
    assert (len(bounded["traces"]), len(bounded["slow"])) == (2, 2)
    for response in everything:
        assert len(response["traces"]) == 3
        # (at --slow-ms 0 the trace requests enter the slow log as well)
        assert len(response["slow"]) >= 3
