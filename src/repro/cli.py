"""Command-line interface: quick experiments without writing code.

Subcommands:

* ``datasets`` — print the (simulated) paper Table 2 statistics.
* ``compare`` — evaluate a set of methods on one dataset and print the
  recall / ratio / time / size table.
* ``build`` — fit an index (optionally sharded) and save it as a
  reusable bundle directory.
* ``query`` — load a saved bundle and evaluate it on a query workload.
* ``inspect`` — print a bundle's manifest and array shapes/sizes
  without loading (or unpickling) any payload.
* ``build``/``query``/``serve``/``recover`` accept ``--mmap`` to open
  bundles (and snapshots) as read-only memory maps: cold starts take
  milliseconds and every local process shares one physical copy of
  the index.
* ``serve`` — load a bundle behind :class:`repro.serve.ANNService` and
  answer JSON-lines requests (queries, inserts, deletes, stats, ...)
  from stdin or, with ``--tcp``, from sockets — one protocol, one
  request handler (:mod:`repro.serve.server`), two transports.
  With ``--wal-dir`` every write is write-ahead-logged (and
  periodically snapshotted via ``--snapshot-every``) so the served
  state survives a crash; add ``--tcp --workers N`` and N worker
  processes follow the WAL as read replicas of the one writer.
* ``recover`` — rebuild the acknowledged index state from a WAL
  directory (snapshot + log replay) and optionally save it as a bundle.
* ``stats`` — scrape a running ``serve --tcp`` server: stats JSON, a
  ``--watch`` ticker line, or ``--prometheus`` text (merged across
  prefork workers).
* ``trace`` — fetch sampled span trees (``serve --trace-sample N``)
  or the slow-query log from a running server and render them as
  ASCII trees.
* ``theory`` — collision probabilities and Theorem 5.1's lambda for a
  parameter setting.
* ``compare``/``build``/``query``/``serve``/``profile`` accept
  ``--backend {numpy,cext}`` to select the compiled kernel
  backend for CSA search/merge/verify (defaults to the
  ``REPRO_BACKEND`` environment variable, then numpy; an unavailable
  backend silently falls back to numpy).

Examples::

    python -m repro.cli datasets --n 2000
    python -m repro.cli compare --dataset sift --n 3000 --metric euclidean
    python -m repro.cli compare --dataset sift --n 3000 --batch --backend cext
    python -m repro.cli build --dataset sift --n 20000 --method lccs \\
        --shards 4 --out sift.bundle
    python -m repro.cli query sift.bundle --queries 100 --k 10 --batch --mmap
    python -m repro.cli inspect sift.bundle
    echo '{"query": [0.1, ...], "k": 5}' | \\
        python -m repro.cli serve sift.bundle --cache-size 1024
    python -m repro.cli serve sift.bundle \\
        --wal-dir sift.wal --snapshot-every 500
    python -m repro.cli recover sift.wal --out recovered.bundle
    python -m repro.cli serve sift.bundle --tcp :9300 --workers 4 \\
        --wal-dir sift.wal --trace-sample 100 --slow-ms 50
    python -m repro.cli stats 127.0.0.1:9300 --watch
    python -m repro.cli trace 127.0.0.1:9300 -n 5
    python -m repro.cli theory --m 64 --n 100000 --p1 0.9 --p2 0.5
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import threading
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.data import DATASET_SPECS, load_dataset
    from repro.eval import format_table

    rows = []
    for name, spec in DATASET_SPECS.items():
        ds = load_dataset(name, n=args.n, n_queries=args.queries, seed=args.seed)
        rows.append(
            (
                name, ds.n, ds.n_queries, ds.dim,
                f"{ds.size_bytes() / 2**20:.1f} MB",
                spec.description,
            )
        )
    print(
        format_table(
            ("Dataset", "#Objects", "#Queries", "d", "Data Size", "Type"), rows
        )
    )
    return 0


_METHOD_CHOICES = (
    "lccs", "mp-lccs", "dynamic", "e2lsh", "multiprobe", "falconn", "c2lsh",
    "qalsh", "srs", "scan",
)


def _method_spec(name: str, dim: int, metric: str, w: float, seed: int):
    """(IndexSpec, default query kwargs) for a CLI method name.

    Specs (rather than constructed indexes) keep the recipes picklable,
    which is what lets ``--shards`` build shard indexes in a process
    pool and record the recipe in the bundle manifest.
    """
    from repro.serve import IndexSpec

    angular = metric == "angular"
    if name == "lccs":
        spec = (
            IndexSpec("LCCSLSH", dim=dim, m=64, metric="angular", cp_dim=16,
                      seed=seed)
            if angular
            else IndexSpec("LCCSLSH", dim=dim, m=64, w=w, seed=seed)
        )
        return spec, {"num_candidates": 200}
    if name == "mp-lccs":
        spec = (
            IndexSpec("MPLCCSLSH", dim=dim, m=32, metric="angular", cp_dim=16,
                      seed=seed, n_probes=33)
            if angular
            else IndexSpec("MPLCCSLSH", dim=dim, m=32, w=w, seed=seed,
                           n_probes=33)
        )
        return spec, {"num_candidates": 200}
    if name == "dynamic":
        spec = (
            IndexSpec("DynamicLCCSLSH", dim=dim, m=64, metric="angular",
                      cp_dim=16, seed=seed)
            if angular
            else IndexSpec("DynamicLCCSLSH", dim=dim, m=64, w=w, seed=seed)
        )
        return spec, {"num_candidates": 200}
    if name == "e2lsh":
        spec = (
            IndexSpec("E2LSH", dim=dim, K=1, L=32, metric="angular",
                      cp_dim=16, seed=seed)
            if angular
            else IndexSpec("E2LSH", dim=dim, K=4, L=32, w=w, seed=seed)
        )
        return spec, {}
    if name == "multiprobe":
        return (
            IndexSpec("MultiProbeLSH", dim=dim, K=8, L=8, w=w, n_probes=64,
                      seed=seed),
            {},
        )
    if name == "falconn":
        return (
            IndexSpec("FALCONN", dim=dim, K=1, L=16, cp_dim=16, n_probes=64,
                      seed=seed),
            {},
        )
    if name == "c2lsh":
        spec = (
            IndexSpec("C2LSH", dim=dim, m=32, l=3, metric="angular",
                      cp_dim=16, beta=0.05, seed=seed)
            if angular
            else IndexSpec("C2LSH", dim=dim, m=32, l=6, w=w / 2, beta=0.05,
                           seed=seed)
        )
        return spec, {}
    if name == "qalsh":
        return (
            IndexSpec("QALSH", dim=dim, m=32, l=6, w=1.0, beta=0.05,
                      seed=seed),
            {},
        )
    if name == "srs":
        return (
            IndexSpec("SRS", dim=dim, d_proj=6, c=2.0, max_fraction=0.05,
                      seed=seed),
            {},
        )
    if name == "scan":
        return IndexSpec("LinearScan", dim=dim, metric=metric), {}
    raise ValueError(f"unknown method {name!r}")


def _build_method(name: str, dim: int, metric: str, w: float, seed: int):
    spec, query_kwargs = _method_spec(name, dim, metric, w, seed)
    return spec.build(), query_kwargs


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.data import compute_ground_truth, load_dataset
    from repro.distances import normalize_rows
    from repro.eval import evaluate, format_results

    ds = load_dataset(args.dataset, n=args.n, n_queries=args.queries, seed=args.seed)
    data, queries = ds.data, ds.queries
    if args.metric == "angular":
        data = normalize_rows(data)
        queries = normalize_rows(queries)
    gt = compute_ground_truth(data, queries, k=args.k, metric=args.metric)
    w = 2.0 * float(np.mean(gt.distances))
    methods = args.methods.split(",")
    invalid = [m for m in methods if m not in _METHOD_CHOICES]
    if invalid:
        print(
            f"unknown methods: {invalid}; choices: {list(_METHOD_CHOICES)}",
            file=sys.stderr,
        )
        return 2
    if args.metric == "angular":
        unsupported = {"multiprobe", "qalsh", "srs"}
        bad = [m for m in methods if m in unsupported]
        if bad:
            print(
                f"{bad} support Euclidean only; pick other methods",
                file=sys.stderr,
            )
            return 2
    results = []
    for name in methods:
        index, query_kwargs = _build_method(
            name, ds.dim, args.metric, w, args.seed
        )
        results.append(
            evaluate(
                index, data, queries, gt, k=args.k,
                query_kwargs=query_kwargs, params={"method": name},
                batch=args.batch,
            )
        )
    mode = "batched" if args.batch else "per-query"
    print(f"dataset={args.dataset} n={len(data)} d={ds.dim} "
          f"metric={args.metric} k={args.k} mode={mode}\n")
    print(format_results(results))
    return 0


def _estimate_w(args: argparse.Namespace, data, queries, metric: str) -> float:
    from repro.data import compute_ground_truth

    gt = compute_ground_truth(data, queries, k=args.k, metric=metric)
    return 2.0 * float(np.mean(gt.distances))


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.data import load_dataset
    from repro.distances import normalize_rows
    from repro.serve import ShardedIndex, save_index

    ds = load_dataset(args.dataset, n=args.n, n_queries=args.queries,
                      seed=args.seed)
    data, queries = ds.data, ds.queries
    if args.metric == "angular":
        data = normalize_rows(data)
        queries = normalize_rows(queries)
    w = _estimate_w(args, data, queries, args.metric)
    try:
        spec, query_kwargs = _method_spec(
            args.method, ds.dim, args.metric, w, args.seed
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    lsm_knobs = {
        "memtable_size": args.memtable_size,
        "max_segments": args.max_segments,
        "compaction": args.compaction,
    }
    lsm_knobs = {k: v for k, v in lsm_knobs.items() if v is not None}
    if lsm_knobs:
        if args.method != "dynamic":
            print(
                "--memtable-size/--max-segments/--compaction apply to "
                "--method dynamic only",
                file=sys.stderr,
            )
            return 2
        # The knobs ride in the spec's kwargs, so they reach process-pool
        # shard builds and are recorded in the bundle manifest.
        spec.kwargs.update(lsm_knobs)
    if args.shards > 1:
        index = ShardedIndex(
            spec, num_shards=args.shards, parallel=args.parallel
        )
    else:
        index = spec.build()
    index.fit(data)
    extra = {
        "dataset": args.dataset,
        "n": int(len(data)),
        "queries": int(args.queries),
        "seed": int(args.seed),
        "metric": args.metric,
        "method": args.method,
        "shards": int(args.shards),
        "query_kwargs": query_kwargs,
    }
    save_index(index, args.out, extra=extra)
    mode = getattr(index, "build_mode", None)
    shard_note = (
        f" shards={args.shards} build_mode={mode}" if args.shards > 1 else ""
    )
    print(
        f"built {index.name} on {args.dataset} n={len(data)} d={ds.dim} "
        f"in {index.build_time:.2f}s{shard_note}\nsaved bundle to {args.out}"
    )
    if args.mmap:
        # Prove the bundle cold-opens mmapped and report the latency.
        import time

        from repro.serve import load_index

        start = time.perf_counter()
        reopened = load_index(args.out, mmap=True)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        print(
            f"mmap cold-open check: {reopened.name} servable in "
            f"{elapsed_ms:.1f} ms"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.data import compute_ground_truth, load_dataset
    from repro.distances import normalize_rows
    from repro.eval import evaluate, format_results
    from repro.serve import BundleError, load_index, read_manifest

    try:
        manifest = read_manifest(args.bundle)
        index = load_index(args.bundle, mmap=args.mmap)
    except BundleError as exc:
        print(f"cannot load bundle: {exc}", file=sys.stderr)
        return 2
    extra = manifest.get("extra", {})
    dataset = args.dataset or extra.get("dataset", "sift")
    n = args.n or extra.get("n", 3000)
    seed = args.seed if args.seed is not None else extra.get("seed", 42)
    # The query split must match the build split exactly (the dataset is
    # regenerated deterministically), so the recorded count wins unless
    # explicitly overridden.
    n_queries = (
        args.queries if args.queries is not None else extra.get("queries", 15)
    )
    metric = extra.get("metric", index.metric)
    if extra:
        recorded = (
            extra.get("dataset"), extra.get("n"), extra.get("queries"),
            extra.get("seed"),
        )
        if recorded != (dataset, n, n_queries, seed):
            print(
                "warning: dataset/n/queries/seed differ from the values "
                "recorded at build time; the regenerated split is not the "
                "data this index was built on, so recall/ratio are not "
                "meaningful",
                file=sys.stderr,
            )
    ds = load_dataset(dataset, n=n, n_queries=n_queries, seed=seed)
    data, queries = ds.data, ds.queries
    if metric == "angular":
        data = normalize_rows(data)
        queries = normalize_rows(queries)
    gt = compute_ground_truth(data, queries, k=args.k, metric=metric)
    query_kwargs = dict(extra.get("query_kwargs", {}))
    result = evaluate(
        index, data, queries, gt, k=args.k, query_kwargs=query_kwargs,
        params={"bundle": args.bundle}, batch=args.batch,
    )
    mode = "batched" if args.batch else "per-query"
    print(
        f"bundle={args.bundle} class={manifest.get('class')} "
        f"dataset={dataset} n={len(data)} k={args.k} mode={mode}\n"
    )
    print(format_results([result]))
    return 0


class _StdioConnection:
    """stdin (or a requests file) and stdout dressed as one connection.

    The serving loop calls :meth:`connect` and gets what a socket would
    have given it: a real :class:`asyncio.StreamReader`, fed by a pump
    thread (a regular file has no readiness to wait on, so the loop's
    own pipe support would not do), and this object as the writer half
    (``write``/``drain``/``close``/``wait_closed``).  The pump takes one
    of ``window`` slots per line it feeds and every delivered response
    returns one, so reading stops while ``window`` requests are
    unanswered: back-pressure where a socket would be shed, and bounded
    memory however long the stream.
    """

    def __init__(self, source, sink, window: int):
        self.written = 0
        self._source = source
        self._sink = sink
        self._slots = threading.Semaphore(window)
        self._closed = False
        self._unsent: List[bytes] = []

    def connect(self):
        from repro.serve.server import LINE_LIMIT

        self._loop = asyncio.get_running_loop()
        self._reader = asyncio.StreamReader(limit=LINE_LIMIT, loop=self._loop)
        threading.Thread(
            target=self._pump, name="serve-stdin-pump", daemon=True
        ).start()
        return self._reader, self

    def _pump(self) -> None:
        feed = self._loop.call_soon_threadsafe
        # RuntimeError: the loop closed under us — the connection is over.
        with contextlib.suppress(RuntimeError):
            try:
                for line in self._source:
                    if not line.strip():
                        continue  # the handler skips these unanswered
                    self._slots.acquire()
                    if self._closed:
                        break
                    feed(self._reader.feed_data, line.encode("utf-8"))
            finally:
                feed(self._reader.feed_eof)

    def write(self, data: bytes) -> None:
        self._unsent.append(data)

    async def drain(self) -> None:
        # The sink may block (a full pipe): off the loop, like a socket's.
        await self._loop.run_in_executor(None, self._flush)

    def _flush(self) -> None:
        lines, self._unsent = self._unsent, []
        try:
            for data in lines:
                self._sink.write(data.decode("utf-8"))
            self._sink.flush()
        except OSError:
            self.close()  # nobody is listening: stop reading, too
            raise
        self.written += len(lines)
        self._slots.release(len(lines))

    def close(self) -> None:
        self._closed = True
        self._slots.release()  # wake a pump parked on a full window

    async def wait_closed(self) -> None:
        pass


def _parse_hostport(spec: str) -> "tuple[str, int]":
    """``HOST:PORT`` / ``:PORT`` / ``PORT`` -> (host, port)."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = "", spec
    if not host:
        host = "127.0.0.1"
    return host, int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a bundle: pick the transport, hand off to repro.serve.server.

    The protocol (one JSON object per line in, one per line out, in
    request order), its verbs and the write/stats barrier belong to the
    request handler and are documented there (:mod:`repro.serve.server`);
    none of it depends on the transport chosen here.

    Without ``--tcp`` the one connection is stdin (or ``--requests
    FILE``) answered on stdout: pipelined queries coalesce into
    micro-batches as queries from different sockets do, each answer is
    written as soon as it and its predecessors are ready, and the stream
    is never shed — reading pauses while ``--max-inflight`` requests are
    unanswered.  At end of input ``served N responses`` goes to stderr.

    With ``--tcp HOST:PORT`` connections come from a listening socket:
    ``--workers N`` preforks N mmap worker processes behind one
    SO_REUSEPORT port (writes route to a primary holding the WAL),
    requests beyond ``--max-inflight`` per worker get an explicit
    ``{"error": "overloaded", "shed": true}``, and SIGTERM drains.

    Either way, with ``--wal-dir`` every accepted write is on disk
    before it is acknowledged (fsync per ``--fsync``) and its response
    carries ``seq``; a baseline snapshot captures the bundle's state and
    further ones are taken every ``--snapshot-every`` writes.  If the
    WAL directory already holds state from a previous run, serving
    resumes from its *recovered* state (the bundle only provides
    defaults).  A query may carry ``min_version`` — a write's ``seq`` —
    to read its own writes: trivially true in one process, a bounded
    wait for the log on a ``--workers N`` replica.
    """
    from repro.serve import BundleError
    from repro.serve.durability import RecoveryError
    from repro.serve.server import ServerConfig, run_server

    def usage(message: str) -> int:
        print(message, file=sys.stderr)
        return 2

    host, port = "127.0.0.1", 0
    if args.tcp:
        if args.requests:
            return usage("--requests is stdin mode only (drive --tcp over a socket)")
        try:
            host, port = _parse_hostport(args.tcp)
        except ValueError:
            return usage(f"--tcp wants HOST:PORT, got {args.tcp!r}")
    elif args.workers != 1:
        return usage("--workers requires --tcp")
    if args.workers < 1:
        return usage("--workers must be >= 1")
    config = ServerConfig(
        bundle=args.bundle,
        host=host,
        port=port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        drain_timeout=args.drain_timeout,
        k=args.k,
        cache_size=args.cache_size,
        max_batch=args.max_batch,
        mmap=args.mmap,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
        snapshot_keep=args.snapshot_keep,
        tail_interval_ms=args.tail_interval_ms,
        trace_sample=args.trace_sample,
        slow_ms=args.slow_ms,
        slow_log_path=args.slow_log,
        obs_dir=args.obs_dir,
    )
    with contextlib.ExitStack() as opened:
        stdio = None
        if not args.tcp:
            source = sys.stdin
            if args.requests:
                try:
                    source = opened.enter_context(open(args.requests))
                except OSError as exc:
                    return usage(f"cannot open requests file: {exc}")
            stdio = _StdioConnection(source, sys.stdout, args.max_inflight)
        try:
            rc = run_server(config, stdio.connect if stdio else None)
        except (BundleError, RecoveryError) as exc:
            return usage(f"cannot serve: {exc}")
        if stdio is not None and rc == 0:
            print(f"served {stdio.written} responses", file=sys.stderr)
        return rc


def _stats_line(stats: dict) -> str:
    """One compact human line from a ``stats`` response dict."""
    server = stats.get("server") or {}
    q = (server.get("ops") or {}).get("query") or {}
    parts = [
        f"req={server.get('requests_total', 0)}",
        f"err={server.get('errors_total', 0)}",
        f"shed={server.get('shed_total', 0)}",
    ]
    for key, label in (("p50_ms", "p50"), ("p95_ms", "p95"), ("p99_ms", "p99")):
        val = q.get(key)
        if val is not None:
            parts.append(f"query_{label}={val:.2f}ms")
    ratio = stats.get("cache_hit_ratio")
    if ratio is not None:
        parts.append(f"cache_hit={ratio:.2f}")
    version = stats.get("version")
    if version is not None:
        parts.append(f"version={version}")
    tracer = stats.get("tracer") or server.get("tracer") or {}
    if tracer.get("sample"):
        parts.append(
            f"traced={int(tracer.get('sampled_total', 0))}"
            f" slow={int(tracer.get('slow_total', 0))}"
        )
    return "  ".join(parts)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Scrape a running ``serve --tcp`` server: stats or Prometheus text."""
    import json
    import time

    from repro.serve.client import ServeClient

    try:
        host, port = _parse_hostport(args.addr)
    except ValueError:
        print(f"ADDR wants HOST:PORT, got {args.addr!r}", file=sys.stderr)
        return 2

    def scrape(client: "ServeClient") -> int:
        if args.prometheus:
            response = client.request({"metrics": "prometheus"})
            if "error" in response:
                print(f"server error: {response['error']}", file=sys.stderr)
                return 1
            print(response["prometheus"], end="")
            return 0
        response = client.request({"stats": True})
        if "error" in response:
            print(f"server error: {response['error']}", file=sys.stderr)
            return 1
        stats = response["stats"]
        if args.watch:
            print(_stats_line(stats), flush=True)
        else:
            print(json.dumps(stats, indent=2, sort_keys=True, default=str))
        return 0

    try:
        with ServeClient(host, port) as client:
            if not args.watch:
                return scrape(client)
            while True:
                rc = scrape(client)
                if rc:
                    return rc
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        print(f"cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Fetch and render recent traces / the slow log from a server."""
    from repro.obs.tracing import render_trace
    from repro.serve.client import ServeClient

    try:
        host, port = _parse_hostport(args.addr)
    except ValueError:
        print(f"ADDR wants HOST:PORT, got {args.addr!r}", file=sys.stderr)
        return 2
    try:
        with ServeClient(host, port) as client:
            response = client.request({"trace": args.n})
    except OSError as exc:
        print(f"cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 1
    if "error" in response:
        print(f"server error: {response['error']}", file=sys.stderr)
        return 1
    tstats = response.get("tracer", {})
    print(
        f"tracer: sample=1/{int(tstats.get('sample', 0)) or 'off'} "
        f"sampled={int(tstats.get('sampled_total', 0))} "
        f"slow={int(tstats.get('slow_total', 0))} "
        f"(threshold {float(tstats.get('slow_threshold_s', 0)) * 1e3:.0f} ms)",
        file=sys.stderr,
    )
    if args.slow:
        entries = response.get("slow", [])
        if not entries:
            print("slow-query log is empty", file=sys.stderr)
            return 0
        for entry in entries:
            line = (
                f"{entry['op']}: {entry['duration_s'] * 1e3:.3f} ms "
                f"error={entry.get('error', False)}"
            )
            print(line)
            if "trace" in entry:
                print(render_trace(entry["trace"]))
            print()
        return 0
    traces = response.get("traces", [])
    if not traces:
        print(
            "no sampled traces retained (is the server running with "
            "--trace-sample > 0?)",
            file=sys.stderr,
        )
        return 0
    for payload in traces:
        print(render_trace(payload))
        print()
    return 0


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Print a bundle's manifest and array inventory without loading it."""
    import json

    from repro.eval import format_table
    from repro.serve import BundleError
    from repro.serve.persistence import bundle_summary

    try:
        summary = bundle_summary(args.bundle)
    except BundleError as exc:
        print(f"cannot inspect bundle: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
        return 0
    rows = [
        ("class", summary["class"]),
        ("serializer", summary["serializer"]),
        ("format_version", summary["format_version"]),
        ("library_version", summary["library_version"]),
        ("dim", summary["dim"]),
        ("metric", summary["metric"]),
        ("seed", summary["seed"]),
        ("fitted", summary["fitted"]),
        ("build_time", f"{summary['build_time']:.3f}s"
         if summary["build_time"] is not None else "-"),
    ]
    if summary["shards"] is not None:
        rows.append(("shards", summary["shards"]))
    for key, val in (summary["extra"] or {}).items():
        rows.append((f"extra.{key}", val))
    print(f"bundle: {summary['path']}\n")
    print(format_table(("field", "value"), rows))
    array_rows = [
        (
            a["name"],
            "x".join(str(s) for s in a["shape"]) or "scalar",
            a["dtype"],
            _fmt_bytes(a["bytes"]),
            _fmt_bytes(a["stored_bytes"]),
        )
        for a in summary["arrays"]
    ]
    print()
    print(format_table(
        ("array", "shape", "dtype", "bytes", "stored"), array_rows
    ))
    print(
        f"\n{len(summary['arrays'])} arrays, "
        f"{_fmt_bytes(summary['total_bytes'])} in memory, "
        f"{_fmt_bytes(summary['total_stored_bytes'])} on disk"
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild acknowledged state from a WAL directory; optionally save."""
    from repro.serve import save_index
    from repro.serve.durability import RecoveryError, recover

    try:
        result = recover(args.wal_dir, mmap=args.mmap)
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 2
    index = result.index
    source = (
        "full-log replay"
        if result.snapshot_seq is None
        else f"snapshot at seq {result.snapshot_seq}"
    )
    print(
        f"recovered {index.name} from {args.wal_dir}\n"
        f"  source: {source} + {result.replayed} replayed records\n"
        f"  applied_seq: {result.applied_seq}\n"
        f"  n: {index.n}"
    )
    live = getattr(index, "live_count", None)
    if live is not None:
        print(f"  live_count: {live}")
    for path, error in result.corrupt:
        print(f"  skipped corrupt snapshot {path}: {error}", file=sys.stderr)
    if args.out:
        save_index(index, args.out, extra={"wal_seq": int(result.applied_seq)})
        print(f"saved recovered bundle to {args.out}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import LCCSLSH
    from repro.data import compute_ground_truth, load_dataset
    from repro.eval import format_table
    from repro.eval.profiler import profile_batch_query, profile_query

    ds = load_dataset(args.dataset, n=args.n, n_queries=args.queries, seed=args.seed)
    gt = compute_ground_truth(ds.data, ds.queries, k=10, metric="euclidean")
    w = 2.0 * float(np.mean(gt.distances))
    index = LCCSLSH(dim=ds.dim, m=args.m, w=w, seed=args.seed).fit(ds.data)
    if args.batch:
        rows = []
        for lam in args.candidates:
            prof = profile_batch_query(
                index, ds.queries, k=10, num_candidates=lam
            )
            rows.append(
                (
                    lam,
                    f"{prof.hash_s * 1e3:.2f}",
                    f"{prof.search_s * 1e3:.2f}",
                    f"{prof.merge_s * 1e3:.2f}",
                    f"{prof.verify_s * 1e3:.2f}",
                    f"{prof.total_s * 1e3:.2f}",
                    f"{prof.qps:.0f}",
                )
            )
        print(
            f"dataset={args.dataset} n={ds.n} d={ds.dim} m={args.m} "
            f"backend={index.kernel_backend} batch={ds.n_queries}\n"
        )
        print(
            format_table(
                ("lambda", "hash(ms)", "search(ms)", "merge(ms)",
                 "verify(ms)", "total(ms)", "QPS"),
                rows,
            )
        )
        return 0
    rows = []
    for lam in args.candidates:
        profs = [
            profile_query(index, q, k=10, num_candidates=lam)
            for q in ds.queries
        ]
        rows.append(
            (
                lam,
                float(np.mean([p.hash_ms for p in profs])),
                float(np.mean([p.search_ms for p in profs])),
                float(np.mean([p.merge_ms for p in profs])),
                float(np.mean([p.verify_ms for p in profs])),
                float(np.mean([p.total_ms for p in profs])),
            )
        )
    print(f"dataset={args.dataset} n={ds.n} d={ds.dim} m={args.m}\n")
    print(
        format_table(
            ("lambda", "hash(ms)", "search(ms)", "merge(ms)",
             "verify(ms)", "total(ms)"),
            rows,
        )
    )
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    from repro.eval import format_table
    from repro.theory import (
        exact_cdf, median_length, rho, theorem51_lambda,
    )

    r = rho(args.p1, args.p2)
    lam = theorem51_lambda(args.m, args.n, args.p1, args.p2)
    med1 = median_length(args.m, args.p1)
    med2 = median_length(args.m, args.p2)
    print(
        format_table(
            ("quantity", "value"),
            [
                ("rho = ln(1/p1)/ln(1/p2)", f"{r:.4f}"),
                ("Theorem 5.1 lambda", f"{lam:.1f}"),
                ("median |LCCS| at p1 (approx)", f"{med1:.2f}"),
                ("median |LCCS| at p2 (approx)", f"{med2:.2f}"),
                ("exact P(|LCCS| <= median_p1) at p1",
                 f"{exact_cdf(args.m, args.p1, int(med1)):.4f}"),
            ],
        )
    )
    return 0


def _add_backend_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend", choices=("numpy", "cext"), default=None,
        help="kernel backend for CSA search/merge/verify (default: the "
        "REPRO_BACKEND env var, then numpy; an unavailable backend "
        "silently falls back to numpy)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LCCS-LSH reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="print simulated Table 2 statistics")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("compare", help="evaluate methods on a dataset")
    p.add_argument("--dataset", default="sift")
    p.add_argument("--n", type=int, default=3000)
    p.add_argument("--queries", type=int, default=15)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--metric", choices=("euclidean", "angular"), default="euclidean")
    p.add_argument(
        "--methods",
        default="lccs,mp-lccs,e2lsh",
        help=f"comma list from {','.join(_METHOD_CHOICES)}",
    )
    p.add_argument(
        "--batch",
        action="store_true",
        help="answer all queries through the vectorised batch engine "
        "(reports throughput as QPS)",
    )
    p.add_argument("--seed", type=int, default=42)
    _add_backend_arg(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "build", help="fit an index (optionally sharded) and save a bundle"
    )
    p.add_argument("--dataset", default="sift")
    p.add_argument("--n", type=int, default=3000)
    p.add_argument("--queries", type=int, default=15)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--metric", choices=("euclidean", "angular"), default="euclidean")
    p.add_argument("--method", default="lccs", choices=_METHOD_CHOICES)
    p.add_argument(
        "--shards", type=int, default=1,
        help="partition the data across this many shard indexes (>1 "
        "enables the sharded fan-out/merge engine)",
    )
    p.add_argument(
        "--parallel", choices=("process", "thread", "serial"),
        default="process", help="how shard builds and fan-out run",
    )
    p.add_argument("--out", required=True, help="bundle directory to write")
    p.add_argument(
        "--mmap", action="store_true",
        help="after saving, verify the bundle cold-opens memory-mapped "
        "and report the open latency",
    )
    p.add_argument(
        "--memtable-size", type=int, default=None,
        help="(--method dynamic) absolute memtable row budget before a "
        "seal; replaces the relative rebuild-threshold rule",
    )
    p.add_argument(
        "--max-segments", type=int, default=None,
        help="(--method dynamic) hard cap on sealed segments (default 4); "
        "the size-tiered policy usually merges well before it binds",
    )
    p.add_argument(
        "--compaction", choices=("inline", "background"),
        default=None,
        help="(--method dynamic) where the size-tiered segment merges "
        "run: inline (deterministic, default) or background (off the "
        "write path)",
    )
    p.add_argument("--seed", type=int, default=42)
    _add_backend_arg(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "query", help="load a saved bundle and evaluate it on queries"
    )
    p.add_argument("bundle", help="bundle directory written by `build`")
    p.add_argument(
        "--dataset", default=None,
        help="override the dataset recorded in the bundle",
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument(
        "--queries", type=int, default=None,
        help="query count; defaults to the count recorded at build time "
        "(changing it regenerates a different data/query split)",
    )
    p.add_argument("--k", type=int, default=10)
    p.add_argument(
        "--batch", action="store_true",
        help="answer all queries through the vectorised batch engine",
    )
    p.add_argument(
        "--mmap", action="store_true",
        help="open the bundle as read-only memory maps instead of "
        "reading it into RAM",
    )
    p.add_argument("--seed", type=int, default=None)
    _add_backend_arg(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "inspect",
        help="print a bundle's manifest and array inventory without "
        "loading it",
    )
    p.add_argument("bundle", help="bundle directory to describe")
    p.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON instead of tables",
    )
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "serve",
        help="serve a bundle: JSON-lines requests on stdin or --tcp",
    )
    p.add_argument("bundle", help="bundle directory written by `build`")
    p.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="take connections on this address (port 0 picks one; the "
        "chosen port is announced on stderr) instead of serving stdin",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="prefork this many mmap worker processes sharing the --tcp "
        "port via SO_REUSEPORT (writes route to a single primary; "
        "requires --wal-dir for writes)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=64,
        help="per-worker bound on unanswered requests: beyond it a "
        "socket's requests are shed with an explicit overloaded error, "
        "and stdin simply stops being read",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="on SIGTERM, how long existing connections may linger "
        "before being force-closed (--tcp mode)",
    )
    p.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU query-result cache capacity (0 disables caching)",
    )
    p.add_argument(
        "--max-batch", type=int, default=64,
        help="micro-batch size cap; a lone query executes at once, and "
        "queries arriving while a batch runs form the next batch",
    )
    p.add_argument("--k", type=int, default=10,
                   help="default k for requests that omit it")
    p.add_argument(
        "--requests", default=None,
        help="read JSON-lines requests from this file instead of stdin",
    )
    p.add_argument(
        "--wal-dir", default=None,
        help="write-ahead-log every write here (and recover from it on "
        "restart); enables crash durability",
    )
    p.add_argument(
        "--fsync", choices=("always", "interval", "off"), default="always",
        help="WAL fsync policy: per-write, time-bounded, or OS-decided",
    )
    p.add_argument(
        "--snapshot-every", type=int, default=500,
        help="checkpoint the index every N writes (0 disables periodic "
        "snapshots; a baseline snapshot is always taken)",
    )
    p.add_argument(
        "--snapshot-keep", type=int, default=3,
        help="how many snapshots to retain",
    )
    p.add_argument(
        "--tail-interval-ms", type=float, default=50.0,
        help="how often --workers N replicas poll the WAL for new records",
    )
    p.add_argument(
        "--mmap", action="store_true",
        help="serve from read-only memory maps: the bundle (or the "
        "recovered snapshot, and replica bootstraps) opens without "
        "copying arrays into RAM",
    )
    p.add_argument(
        "--trace-sample", type=int, default=0, metavar="N",
        help="record a full span tree for 1 in N requests (0 disables "
        "tracing, 1 traces everything); retrieve them with the "
        "{\"trace\": n} request or `repro trace ADDR`",
    )
    p.add_argument(
        "--slow-ms", type=float, default=100.0,
        help="requests at least this slow always enter the bounded "
        "slow-query log, sampled or not",
    )
    p.add_argument(
        "--slow-log", default=None, metavar="PATH",
        help="dump the slow-query log as JSON lines here on shutdown",
    )
    p.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="shared directory for prefork metric-snapshot fan-in "
        "(default: <wal-dir>/obs, else a temp dir; single-process "
        "mode needs no spool)",
    )
    _add_backend_arg(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "stats",
        help="scrape a running serve --tcp server: stats JSON, a "
        "--watch ticker, or --prometheus text",
    )
    p.add_argument("addr", metavar="ADDR", help="HOST:PORT of the server")
    p.add_argument(
        "--watch", action="store_true",
        help="print one compact stats line every --interval seconds",
    )
    p.add_argument(
        "--interval", type=float, default=2.0,
        help="--watch refresh period in seconds",
    )
    p.add_argument(
        "--prometheus", action="store_true",
        help="print the Prometheus text exposition (merged across "
        "prefork workers) instead of stats JSON",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "trace",
        help="fetch and render sampled span trees (or the slow-query "
        "log) from a running serve --tcp server",
    )
    p.add_argument("addr", metavar="ADDR", help="HOST:PORT of the server")
    p.add_argument(
        "-n", type=int, default=10,
        help="how many recent traces (or slow-log entries) to fetch",
    )
    p.add_argument(
        "--slow", action="store_true",
        help="show the slow-query log instead of recent sampled traces",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "recover",
        help="rebuild acknowledged state from a WAL directory "
        "(snapshot + log replay)",
    )
    p.add_argument("wal_dir", help="WAL directory written by a durable serve")
    p.add_argument(
        "--out", default=None,
        help="save the recovered index as a bundle directory",
    )
    p.add_argument(
        "--mmap", action="store_true",
        help="open the snapshot as read-only memory maps (recovery "
        "time stops scaling with snapshot size)",
    )
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("profile", help="per-phase query time breakdown")
    p.add_argument("--dataset", default="sift")
    p.add_argument("--n", type=int, default=3000)
    p.add_argument("--queries", type=int, default=10)
    p.add_argument("--m", type=int, default=32)
    p.add_argument(
        "--candidates", type=int, nargs="+", default=[25, 100, 400]
    )
    p.add_argument(
        "--batch", action="store_true",
        help="profile the vectorised batch path via the engine's own "
        "per-stage instrumentation (reports the kernel backend and QPS)",
    )
    p.add_argument("--seed", type=int, default=42)
    _add_backend_arg(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("theory", help="collision/lambda calculations")
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--p1", type=float, default=0.9)
    p.add_argument("--p2", type=float, default=0.5)
    p.set_defaults(func=_cmd_theory)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None):
        from repro import kernels

        kernels.set_default_backend(args.backend)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
