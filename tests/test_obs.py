"""The observability plane: tracing, metrics registry, exporters.

Covers the ``repro.obs`` package end to end:

* registry semantics — idempotent declarations, collector replace /
  conditional-unregister, one-snapshot consistency;
* ``ServerMetrics`` atomicity — ``requests`` can never disagree with
  the latency histogram ``count`` in any observable snapshot;
* Prometheus text rendering and cross-process snapshot merging
  (the prefork fan-in), including the file-based ``SnapshotSpool``;
* tracing — sampling, propagation tokens across threads, the always-on
  slow-query log, and the ``on_span`` history-recorder hook;
* the TCP server's ``trace`` / ``metrics`` protocol ops over a real
  socket, with a span-tree coherence check: a traced query's child
  spans must account for (nearly) all of the request's wall latency.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import DynamicLCCSLSH
from repro.obs.export import SnapshotSpool, merge_snapshots, render_prometheus
from repro.obs.metrics import MetricsRegistry, ServerMetrics
from repro.obs.tracing import Tracer, get_tracer, render_trace
from repro.serve import ANNService, ServeClient
from repro.serve.server import ServiceBackend, ThreadedServer

DIM = 16


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def quiet_tracer():
    """The process tracer, reset and disabled again afterwards."""
    tracer = get_tracer()
    tracer.reset()
    tracer.configure(sample=1, slow_threshold_s=10.0)
    yield tracer
    tracer.reset()
    tracer.configure(sample=0, slow_threshold_s=0.1)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_declarations_are_idempotent(registry):
    c1 = registry.counter("reqs_total", "requests")
    c2 = registry.counter("reqs_total")
    assert c1 is c2
    c1.inc(2.0, op="query")
    assert c2.value(op="query") == 2.0
    with pytest.raises(ValueError):
        registry.gauge("reqs_total")  # kind mismatch is an error


def test_registry_snapshot_tree(registry):
    registry.counter("hits_total", "cache hits").inc(3)
    registry.gauge("entries", "live entries", merge="max").set(7)
    registry.histogram("lat_seconds", "latency").observe(0.01, op="query")
    snap = registry.snapshot()
    assert isinstance(snap["pid"], int)
    fams = snap["families"]
    assert fams["hits_total"]["kind"] == "counter"
    assert fams["hits_total"]["samples"][0]["value"] == 3
    assert fams["entries"]["merge"] == "max"
    hist = fams["lat_seconds"]["samples"][0]
    assert hist["labels"] == {"op": "query"}
    assert hist["count"] == 1
    assert sum(hist["buckets"]) == 1


def test_collector_replace_and_conditional_unregister(registry):
    old = lambda: {"a": {"kind": "gauge", "samples": []}}  # noqa: E731
    new = lambda: {"b": {"kind": "gauge", "samples": []}}  # noqa: E731
    registry.register_collector("svc", old)
    registry.register_collector("svc", new)  # newest instance wins
    assert "b" in registry.snapshot()["families"]
    # The stale instance's close() must not evict its replacement.
    registry.unregister_collector("svc", old)
    assert "b" in registry.snapshot()["families"]
    registry.unregister_collector("svc", new)
    assert "b" not in registry.snapshot()["families"]


def test_broken_collector_never_breaks_a_scrape(registry):
    registry.counter("ok_total").inc()
    registry.register_collector("bad", lambda: 1 / 0)
    fams = registry.snapshot()["families"]
    assert "ok_total" in fams


# ----------------------------------------------------------------------
# ServerMetrics: counters and histogram can never disagree
# ----------------------------------------------------------------------

def test_server_metrics_snapshot_is_atomic():
    """Hammer observe() from threads while snapshotting: in every
    snapshot, per-op ``requests`` equals the histogram ``count`` plus
    that op's sheds (sheds never enter the histogram)."""
    metrics = ServerMetrics()
    stop = threading.Event()
    violations = []

    def writer():
        while not stop.is_set():
            metrics.observe("query", 0.001)
            metrics.count_shed("query")

    def reader():
        while not stop.is_set():
            snap = metrics.snapshot()
            op = snap["ops"].get("query")
            if op and op["requests"] != op["count"] + op["shed"]:
                violations.append(dict(op))

    threads = [threading.Thread(target=writer) for _ in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.4)
    stop.set()
    for t in threads:
        t.join(timeout=10)
    assert not violations, violations[:3]
    snap = metrics.snapshot()
    op = snap["ops"]["query"]
    assert op["requests"] == op["count"] + op["shed"]


def test_server_metrics_families():
    metrics = ServerMetrics()
    metrics.observe("query", 0.002)
    metrics.observe("insert", 0.004, error=True)
    metrics.count_shed("query")
    metrics.count_bad()
    fams = metrics.families()
    by_op = {
        s["labels"]["op"]: s["value"]
        for s in fams["repro_server_requests_total"]["samples"]
    }
    assert by_op == {"query": 2, "insert": 1}
    lat = {
        s["labels"]["op"]: s
        for s in fams["repro_server_request_latency_seconds"]["samples"]
    }
    assert lat["query"]["count"] == 1  # the shed never entered
    assert fams["repro_server_bad_requests_total"]["samples"][0]["value"] == 1


# ----------------------------------------------------------------------
# Export: Prometheus text + cross-process merge + spool
# ----------------------------------------------------------------------

def test_render_prometheus(registry):
    registry.counter("repro_reads_total", "reads").inc(5)
    registry.histogram("repro_lat_seconds", "latency").observe(0.01)
    text = render_prometheus(registry.snapshot())
    assert "# TYPE repro_reads_total counter" in text
    assert "repro_reads_total 5" in text
    assert "# TYPE repro_lat_seconds histogram" in text
    assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_lat_seconds_count 1" in text
    # cumulative bucket counts are monotone
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_lat_seconds_bucket")
    ]
    assert counts == sorted(counts)


def test_merge_snapshots_counters_gauges_histograms():
    def snap(pid, reads, entries, seq, lat_bucket):
        buckets = [0] * 4
        buckets[lat_bucket] = 1
        return {
            "pid": pid,
            "families": {
                "reads_total": {
                    "kind": "counter", "help": "",
                    "samples": [{"labels": {}, "value": reads}],
                },
                "entries": {
                    "kind": "gauge", "help": "", "merge": "sum",
                    "samples": [{"labels": {}, "value": entries}],
                },
                "seq": {
                    "kind": "gauge", "help": "", "merge": "max",
                    "samples": [{"labels": {}, "value": seq}],
                },
                "lat": {
                    "kind": "histogram", "help": "",
                    "samples": [{
                        "labels": {}, "buckets": buckets, "count": 1,
                        "sum": 0.5, "min": 0.1, "max": 0.9,
                    }],
                },
            },
        }

    merged = merge_snapshots([snap(1, 10, 3, 41, 0), snap(2, 7, 4, 44, 2)])
    assert merged["pids"] == [1, 2]
    fams = merged["families"]
    assert fams["reads_total"]["samples"][0]["value"] == 17  # counters sum
    assert fams["entries"]["samples"][0]["value"] == 7  # sum mode
    assert fams["seq"]["samples"][0]["value"] == 44  # max mode
    lat = fams["lat"]["samples"][0]
    assert lat["buckets"] == [1, 0, 1, 0]
    assert lat["count"] == 2
    assert lat["sum"] == pytest.approx(1.0)
    assert (lat["min"], lat["max"]) == (0.1, 0.9)


def test_merge_single_snapshot_does_not_double():
    """Fan-in regression twin of the histogram self-merge fix: one
    process's snapshot merged alone (the single-worker scrape) must
    come out value-identical, not doubled."""
    reg = MetricsRegistry()
    reg.counter("c_total").inc(3)
    reg.histogram("h_seconds").observe(0.01)
    snap = reg.snapshot()
    merged = merge_snapshots([snap])
    assert merged["families"]["c_total"]["samples"][0]["value"] == 3
    assert merged["families"]["h_seconds"]["samples"][0]["count"] == 1


def test_snapshot_spool_roundtrip(tmp_path):
    spool = SnapshotSpool(str(tmp_path))
    spool.dump({"pid": 1, "families": {}})
    # simulate a peer process's dump
    (tmp_path / "obs-99999.json").write_text(
        json.dumps({"pid": 99999, "families": {}})
    )
    # torn file from a dead writer: skipped, not fatal
    (tmp_path / "obs-11111.json").write_text("{not json")
    snaps = spool.read_all()
    assert sorted(s["pid"] for s in snaps) == [1, 99999]
    peers = spool.read_all(exclude_self=True)
    assert [s["pid"] for s in peers] == [99999]
    spool.clear()
    assert spool.read_all() == []


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def test_sampling_one_in_n():
    tracer = Tracer(sample=3)
    traces = [tracer.start_trace("query") for _ in range(9)]
    assert sum(t is not None for t in traces) == 3


def test_sample_zero_disables():
    tracer = Tracer(sample=0)
    assert tracer.start_trace("query") is None
    # span() without an active parent is the shared no-op
    with tracer.span("anything") as sp:
        assert sp is not None


def test_span_tree_and_cross_thread_token():
    tracer = Tracer(sample=1)
    trace = tracer.start_trace("query", op="query")
    results = []

    def worker(token):
        # explicit propagation: attach the token on the other thread
        with tracer.attach(token):
            with tracer.span("index.query") as sp:
                sp.annotate(rows=5)
        results.append(tracer.current())

    with tracer.attach(trace.root):
        with tracer.span("batch") as batch_span:
            t = threading.Thread(target=worker, args=(batch_span,))
            t.start()
            t.join()
    trace.finish()
    assert results == [None]  # attach is scoped: nothing leaks
    payload = trace.to_dict()
    by_name = {s["name"]: s for s in payload["spans"]}
    assert by_name["batch"]["parent_id"] == trace.root.span_id
    assert by_name["index.query"]["parent_id"] == by_name["batch"]["span_id"]
    assert by_name["index.query"]["attrs"] == {"rows": 5}
    # synthesized externally-measured interval
    trace.add_span("kernel.hash", 0.0, 0.001, parent=trace.root)
    assert "kernel.hash" in render_trace(trace.to_dict())


def test_slow_log_always_on_and_bounded():
    tracer = Tracer(sample=0, slow_threshold_s=0.005, slow_log_size=4)
    tracer.observe_request("query", 0.001)  # fast: one compare, no entry
    for i in range(10):
        tracer.observe_request("query", 0.01 + i * 0.001)
    log = tracer.slow_log()
    assert len(log) == 4  # bounded top-N
    durations = [e["duration_s"] for e in log]
    assert durations == sorted(durations, reverse=True)
    assert durations[0] == pytest.approx(0.019)
    assert tracer.stats()["slow_total"] == 10.0


def test_recent_and_slow_log_refuse_a_non_positive_bound():
    """``out[-0:]`` is the whole list and ``out[:-1]`` drops the wrong
    end: a bound that is not a positive integer must not be sliced with."""
    tracer = Tracer(sample=1, slow_threshold_s=0.0)
    for _ in range(3):
        trace = tracer.start_trace("query", op="query")
        trace.finish()
        tracer.observe_request("query", 0.01, trace=trace)
    assert len(tracer.recent(2)) == len(tracer.slow_log(2)) == 2
    assert len(tracer.recent()) == len(tracer.slow_log()) == 3
    for bad in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            tracer.recent(bad)
        with pytest.raises(ValueError, match="positive"):
            tracer.slow_log(bad)


def test_slow_log_dump_json_lines(tmp_path):
    tracer = Tracer(sample=1, slow_threshold_s=0.0)
    trace = tracer.start_trace("query", op="query")
    trace.finish()
    tracer.observe_request("query", 0.5, trace=trace)
    path = tmp_path / "slow.jsonl"
    assert tracer.dump_slow_log(str(path)) == 1
    entry = json.loads(path.read_text().splitlines()[0])
    assert entry["op"] == "query"
    assert entry["trace"]["trace_id"] == trace.trace_id


def test_on_span_recorder_hook():
    """The history-recorder hook (ROADMAP item 4): a subscriber sees
    every finished span of sampled traces, root spans included — the
    stream a consistency checker replays as the client history."""
    tracer = Tracer(sample=1)
    seen = []
    tracer.on_span(lambda sp: seen.append((sp.name, sp.attrs.get("op"))))
    trace = tracer.start_trace("insert", op="insert")
    with tracer.attach(trace.root):
        with tracer.span("wal.append"):
            pass
    trace.finish()
    assert ("wal.append", None) in seen
    assert ("insert", "insert") in seen
    # a crashing subscriber never breaks serving
    tracer.on_span(lambda sp: 1 / 0)
    t2 = tracer.start_trace("query")
    t2.finish()
    assert any(name == "query" for name, _ in seen)


# ----------------------------------------------------------------------
# TCP protocol ops: trace / metrics over a real socket
# ----------------------------------------------------------------------

def _served(tracer=None):
    rng = np.random.default_rng(3)
    index = DynamicLCCSLSH(dim=DIM, m=8, w=4.0, seed=2).fit(
        rng.normal(size=(150, DIM))
    )
    service = ANNService(index, cache_size=64)
    backend = ServiceBackend(service, default_k=5)
    return ThreadedServer(backend, tracer=tracer), service


def test_tcp_trace_op_span_tree_coherent(quiet_tracer):
    """End to end over a socket: a sampled query's span tree must show
    the full pipeline as a well-formed tree — every span's parent exists,
    children lie inside their parent's interval, and the root's direct
    children (sequential stages) never add up to more than the root.
    Structure only: what share of the root the stages cover is a
    wall-clock ratio, and moves with the host."""
    server, service = _served()
    rng = np.random.default_rng(4)
    try:
        with server, ServeClient("127.0.0.1", server.port) as client:
            for _ in range(5):
                client.request(
                    {"query": rng.normal(size=DIM).tolist(), "k": 3}
                )
            response = client.request({"trace": 10})
    finally:
        service.close()
    traces = [t for t in response["traces"] if t["name"] == "query"]
    assert len(traces) == 5, response
    eps = 1e-6
    for payload in traces:
        spans = payload["spans"]
        by_id = {s["span_id"]: s for s in spans}
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        root = roots[0]
        assert {"admission", "cache.probe", "batch", "batch.wait",
                "index.query", "lock.wait", "kernel.search"} <= {
                    s["name"] for s in spans}
        for s in spans:
            assert s["duration_s"] >= 0.0
            if s is root:
                continue
            parent = by_id[s["parent_id"]]  # KeyError: orphan span
            assert s["start_s"] >= parent["start_s"] - eps
            assert (
                s["start_s"] + s["duration_s"]
                <= parent["start_s"] + parent["duration_s"] + eps
            )
        kids = [s for s in spans if s["parent_id"] == root["span_id"]]
        assert {"admission", "cache.probe", "batch"} <= {s["name"] for s in kids}
        assert sum(s["duration_s"] for s in kids) <= root["duration_s"] + eps
        # the pipeline's nesting: batch > index.query > kernel stages
        batch = next(s for s in spans if s["name"] == "batch")
        query = next(s for s in spans if s["name"] == "index.query")
        assert query["parent_id"] == batch["span_id"]
        for s in spans:
            if s["name"].startswith("kernel.") or s["name"] == "lock.wait":
                assert s["parent_id"] == query["span_id"]


def test_tcp_trace_op_cache_hit_and_batching(quiet_tracer):
    server, service = _served()
    rng = np.random.default_rng(5)
    q = rng.normal(size=DIM).tolist()
    try:
        with server, ServeClient("127.0.0.1", server.port) as client:
            client.request({"query": q, "k": 3})
            client.request({"query": q, "k": 3})  # identical: cache hit
            response = client.request({"trace": 10})
    finally:
        service.close()
    probes = [
        s
        for t in response["traces"]
        for s in t["spans"]
        if s["name"] == "cache.probe"
    ]
    hits = [s for s in probes if s["attrs"].get("hit")]
    assert hits, probes  # the second request probed hot


def test_tcp_metrics_op_families(quiet_tracer):
    server, service = _served()
    rng = np.random.default_rng(6)
    try:
        with server, ServeClient("127.0.0.1", server.port) as client:
            client.request({"query": rng.normal(size=DIM).tolist(), "k": 3})
            client.request({"insert": rng.normal(size=DIM).tolist()})
            tree = client.request({"metrics": True})["metrics"]
            text = client.request({"metrics": "prometheus"})["prometheus"]
    finally:
        service.close()
    fams = tree["families"]
    for family in (
        "repro_server_requests_total",
        "repro_server_request_latency_seconds",
        "repro_index_reads_total",
        "repro_index_writes_total",
        "repro_cache_misses_total",
        "repro_tier_segments",
        "repro_batch_batches_total",
        "repro_index_version",
    ):
        assert family in fams, family
        assert family in text, family
    assert "repro_trace_sampled_total" in fams


def test_tcp_metrics_op_merges_spool(quiet_tracer, tmp_path):
    """A scrape on a spooled server folds peer snapshots in (the
    prefork fan-in), without double counting its own."""
    peer = {
        "pid": 424242,
        "families": {
            "repro_peer_only_total": {
                "kind": "counter", "help": "",
                "samples": [{"labels": {}, "value": 5}],
            },
        },
    }
    (tmp_path / "obs-424242.json").write_text(json.dumps(peer))
    spool = SnapshotSpool(str(tmp_path))
    server, service = _served()
    rng = np.random.default_rng(7)
    try:
        with server:
            server.server._spool = spool
            with ServeClient("127.0.0.1", server.port) as client:
                client.request(
                    {"query": rng.normal(size=DIM).tolist(), "k": 3}
                )
                tree = client.request({"metrics": True})["metrics"]
    finally:
        service.close()
    assert 424242 in tree["pids"]
    fams = tree["families"]
    assert fams["repro_peer_only_total"]["samples"][0]["value"] == 5
    # the local worker's families are merged exactly once
    query_reqs = [
        s["value"]
        for s in fams["repro_server_requests_total"]["samples"]
        if s["labels"].get("op") == "query"
    ]
    assert query_reqs == [1]

