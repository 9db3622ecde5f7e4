"""The layer ladder: every layer timed from outside, on the same index and queries.

Layers are ``src/repro`` modules.  Each rung wraps the previous one and
is run on the *same* batches of the first pool queries, so a rung's self
time is its duration minus the next-inner rung's.  Two ladders share
their lower rungs:

* the batch ladder (what ``read_c32`` exercises): ``family.hash`` ->
  ``csa.batch_search_all_shifts`` -> ``csa.batch_merge_candidates`` ->
  verify -> ``LCCSLSH.batch_query`` -> ``ConcurrentIndex`` ->
  ``ANNService`` (32 ``query_async`` then wait) -> loopback socket
  (32 pipelined requests);
* the single-query ladder (what ``read_c2`` exercises): ``index.query``
  -> ``ConcurrentIndex.query_versioned`` -> ``ANNService.query`` (one
  caller, so it contains the batch window) -> one request on the socket.

The write-side layers (LSM tiers, RW lock, WAL) and persistence are timed
the same way.  All values are per query / per write unless the name ends
in ``_s``, ``_ms`` or ``_bytes``.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

import loadgen
import stats as st
from servers import ServerProc
from workloads import (
    CONNECTIONS, K, Config, build_index, mixed_schedule, pool_of, query_line,
)

BATCH = 32


def _median_us(seconds: List[float], per: int = 1) -> float:
    return st.median(seconds) / per * 1e6


def _timed(fn: Callable[[], object]) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


#: the stages ``LCCSLSH.batch_query`` times itself and publishes in
#: ``last_stats`` as ``stage_<key>_s``, with the span and metric each feeds
STAGES = (
    ("hash", "family.hash", "hashes.hash_us"),
    ("search", "csa.batch_search_all_shifts", "core.csa.search_us"),
    ("merge", "csa.batch_merge_candidates", "core.csa.merge_us"),
    ("verify", "verify", "kernels.verify_us"),
)


def batch_ladder(index, batches, recorder) -> Dict[str, float]:
    """Kernel rungs up to ``LCCSLSH.batch_query``, one span per rung per batch.

    The four stages inside ``batch_query`` are the index's own figures
    (``index.last_stats`` after the call), so they are parts of the very
    call that is timed around them.  ``last_stats`` holds durations only:
    the stage spans are laid end to end from the start of the call.
    """
    from repro import ConcurrentIndex

    ci = ConcurrentIndex(index)
    stage_s: Dict[str, List[float]] = {key: [] for key, _, _ in STAGES}
    whole, locked = [], []
    candidates = 0.0
    for b, batch in enumerate(batches):
        # Untimed first touch: otherwise the inner rung pays the cold
        # caches and the rung around it, run second, comes out cheaper.
        index.batch_query(batch, k=K)
        t0 = perf_counter()
        index.batch_query(batch, k=K)
        t1 = perf_counter()
        stats = dict(index.last_stats)
        t2 = perf_counter()
        ci.batch_query_versioned(batch, k=K)
        t3 = perf_counter()
        whole.append(t1 - t0)
        locked.append(t3 - t2)
        candidates += stats["candidates"]
        trace = f"ladder-batch-{b}"
        at = t0
        for key, span, _ in STAGES:
            took = stats[f"stage_{key}_s"]
            stage_s[key].append(took)
            recorder.add(span, at, at + took, "LCCSLSH.batch_query", trace)
            at += took
        recorder.add("LCCSLSH.batch_query", t0, t1, "ConcurrentIndex.batch_query_versioned", trace)
        recorder.add("ConcurrentIndex.batch_query_versioned", t2, t3, "ANNService", trace)
    per_query = candidates / (len(batches) * BATCH)
    lccs = _median_us(whole, BATCH)
    out = {metric: _median_us(stage_s[key], BATCH) for key, _, metric in STAGES}
    out.update({
        "core.lccs_lsh.batch32_us": lccs,
        "core.lccs_lsh.candidates_per_query": per_query,
        "core.lccs_lsh.useful_frac": K / per_query,
        "serve.concurrency.read_tax_us": _median_us(locked, BATCH) - lccs,
    })
    return out


def service_ladder(index, batches, singles, recorder) -> Dict[str, float]:
    """``index.query``, the lock layer and ``ANNService`` with the cache off."""
    from repro import ANNService, ConcurrentIndex

    ci = ConcurrentIndex(index)
    single, locked = [], []
    for i, q in enumerate(singles):
        index.query(q, k=K)      # untimed first touch, as in batch_ladder
        t0 = perf_counter()
        index.query(q, k=K)
        t1 = perf_counter()
        ci.query_versioned(q, k=K)
        t2 = perf_counter()
        single.append(t1 - t0)
        locked.append(t2 - t1)
        trace = f"ladder-single-{i}"
        recorder.add("index.query", t0, t1, "ConcurrentIndex.query_versioned", trace)
        recorder.add("ConcurrentIndex.query_versioned", t1, t2, "ANNService.query", trace)
    with ANNService(index, cache_size=0) as service:
        lone = []
        for i, q in enumerate(singles):
            t0 = perf_counter()
            service.query(q, k=K)
            lone.append(perf_counter() - t0)
            recorder.add("ANNService.query", t0, t0 + lone[-1], "loopback socket", f"ladder-single-{i}")
        batched = []
        for b, batch in enumerate(batches):
            t0 = perf_counter()
            futures = [service.query_async(q, k=K) for q in batch]
            for fut in futures:
                fut.result()
            batched.append(perf_counter() - t0)
            recorder.add("ANNService", t0, t0 + batched[-1], "loopback socket", f"ladder-batch-{b}")
    with ANNService(index, cache_size=1024) as cached:
        hits = []
        for q in singles:
            cached.query(q, k=K)
            hits.append(_timed(lambda q=q: cached.query(q, k=K)))
    return {
        "core.lccs_lsh.single_us": _median_us(single),
        "serve.concurrency.single_tax_us": _median_us(locked) - _median_us(single),
        "serve.service.lone_query_us": _median_us(lone),
        "serve.service.batch32_us": _median_us(batched, BATCH),
        "serve.cache.hit_us": _median_us(hits),
    }


async def _closed_pass(server: ServerProc, lines, window: int, seconds: float) -> List[loadgen.Req]:
    pipes = [await loadgen.open_pipe("127.0.0.1", server.port) for _ in range(CONNECTIONS)]
    sources = [loadgen.CyclicSource(lines, c, CONNECTIONS) for c in range(CONNECTIONS)]
    try:
        return await loadgen.closed_loop(
            pipes, sources, window, deadline=perf_counter() + seconds
        )
    finally:
        for pipe in pipes:
            pipe.close()


async def socket_ladder(cfg: Config, bundle: str, batches, n_single: int, hit_us: float, recorder) -> Dict[str, float]:
    """The outermost rung, plus the tracing overhead of the server itself."""
    lines = cfg.shared["pool_lines"]
    servers = {
        name: ServerProc(
            bundle, flags, os.path.join(cfg.workdir, f"ladder-{name}.log"),
            cfg.env, cfg.server_cpu,
        )
        for name, flags in (
            ("off", ["--cache-size", "0"]),
            ("traced", ["--cache-size", "0", "--trace-sample", "1"]),
            ("cached", []),
        )
    }
    try:
        for server in servers.values():
            server.launch()
        for server in servers.values():
            server.start()

        pipe = await loadgen.open_pipe("127.0.0.1", servers["off"].port)
        batched = []
        for b, batch in enumerate(batches):
            reqs = [loadgen.Req("q", None, query_line(q)) for q in batch]
            log = await loadgen.closed_loop([pipe], [loadgen.ListSource(reqs)], window=len(reqs))
            t0, t1 = min(r.sent for r in log), max(r.done for r in log)
            batched.append(t1 - t0)
            recorder.add("loopback socket", t0, t1, None, f"ladder-batch-{b}")
        lone_reqs = [loadgen.Req("q", i, lines[i]) for i in range(n_single)]
        lone = await loadgen.closed_loop([pipe], [loadgen.ListSource(lone_reqs)], window=1)
        for i, req in enumerate(lone):
            recorder.add("loopback socket", req.sent, req.done, None, f"ladder-single-{i}")
        pipe.close()

        pipe = await loadgen.open_pipe("127.0.0.1", servers["cached"].port)
        pings = [loadgen.Req("c", None, b'{"ping": true}\n') for _ in range(512)]
        ping_log = await loadgen.closed_loop([pipe], [loadgen.ListSource(pings)], window=1)
        # Ask each query twice: the second answer comes from the cache.
        twice = [loadgen.Req("q", i, lines[i // 2]) for i in range(2 * n_single)]
        cached_log = await loadgen.closed_loop([pipe], [loadgen.ListSource(twice)], window=1)
        hit_ratio = (await loadgen.rpc(pipe, {"stats": True}))["stats"]["cache_hit_ratio"]
        pipe.close()
        if not 0.45 < hit_ratio <= 0.5:
            raise RuntimeError(f"cached-query rung: hit ratio {hit_ratio}, expected 0.5")
        ping_us = _median_us([r.done - r.sent for r in ping_log])
        cached_us = _median_us([r.done - r.sent for r in cached_log if r.key % 2 == 1])

        # Tracing overhead: read_c32 traffic against --trace-sample 1 and 0,
        # short passes, alternating so drift hits both alike.
        qps = {"off": [], "traced": []}
        pass_s = max(1.0, cfg.slice_s / 2)
        for _ in range(3):
            for name in ("off", "traced"):
                log = await _closed_pass(servers[name], lines, 16, pass_s)
                qps[name].append(sum(1 for r in log if r.done is not None) / pass_s)
        return {
            "serve.server.batch32_us": _median_us(batched, BATCH),
            "serve.server.lone_query_rtt_us": _median_us([r.done - r.sent for r in lone]),
            "serve.server.ping_rtt_us": ping_us,
            "serve.server.cached_query_rtt_us": cached_us,
            "serve.server.codec_tax_us": cached_us - ping_us - hit_us,
            "obs.trace_overhead_frac": 1.0 - st.median(qps["traced"]) / st.median(qps["off"]),
        }
    finally:
        for server in servers.values():
            server.kill()


def write_ladder(cfg: Config, data: np.ndarray, batch: np.ndarray) -> Dict[str, float]:
    """LSM tiers, lock layer and WAL: fresh vs aged by the mixed_rw schedule."""
    from repro import ConcurrentIndex
    from repro.data.synthetic import sift_like
    from repro.serve.durability import DurableIndex, SnapshotManager, recover

    dyn = build_index("dynamic", cfg, data)
    fresh = [_timed(lambda: dyn.batch_query(batch, k=K)) for _ in range(8)]
    schedules, inserts = mixed_schedule(cfg)
    handles: Dict[int, int] = {}
    insert_s, delete_s = [], []
    # Replay the writes of the schedule serially, alternating connections.
    for pos in range(max(len(ops) for ops in schedules)):
        for ops in schedules:
            if pos >= len(ops):
                continue
            kind, ref = ops[pos]
            if kind == "i":
                t0 = perf_counter()
                handles[ref] = dyn.insert(inserts[ref])
                insert_s.append(perf_counter() - t0)
            elif kind == "d":
                delete_s.append(_timed(lambda: dyn.delete(handles[ref])))
    aged = [_timed(lambda: dyn.batch_query(batch, k=K)) for _ in range(8)]
    out = {
        "core.dynamic.fit_s": dyn.build_time,
        "core.dynamic.batch32_us": _median_us(fresh, BATCH),
        "core.dynamic.batch32_aged_us": _median_us(aged, BATCH),
        "core.dynamic.insert_us": _median_us(insert_s),
        "core.dynamic.delete_us": _median_us(delete_s),
    }

    extra = sift_like(4 * 48, data.shape[1], seed=cfg.seed + 2_000_003)
    bare = [_timed(lambda v=v: dyn.insert(v)) for v in extra[:48]]
    ci = ConcurrentIndex(dyn)
    locked = [_timed(lambda v=v: ci.insert_versioned(v)) for v in extra[48:96]]
    out["serve.concurrency.write_tax_us"] = _median_us(locked) - _median_us(bare)

    for policy, rows in (("always", extra[96:144]), ("off", extra[144:192])):
        wal_dir = os.path.join(cfg.workdir, f"ladder-wal-{policy}")
        durable = DurableIndex(
            dyn, wal_dir, fsync=policy, snapshots=SnapshotManager(wal_dir)
        )
        times = [_timed(lambda v=v: durable.insert(v)) for v in rows]
        durable.close()
        out[f"serve.durability.insert_fsync_{policy}_us"] = _median_us(times)
        if policy == "always":
            out["serve.durability.recover_s"] = _timed(lambda: recover(wal_dir))
    return out


def persistence_ladder(cfg: Config, index) -> Dict[str, float]:
    from repro import load_index, save_index

    path = os.path.join(cfg.workdir, "ladder-bundle")
    save_s = _timed(lambda: save_index(index, path))
    load_s = _timed(lambda: load_index(path, mmap=True))
    size = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path) for name in names
    )
    return {
        "core.lccs_lsh.fit_s": index.build_time,
        "serve.persistence.save_s": save_s,
        "serve.persistence.load_mmap_ms": load_s * 1e3,
        "serve.persistence.bundle_bytes": float(size),
    }


async def run_ladder(cfg: Config, index, data: np.ndarray, recorder) -> Dict[str, float]:
    """Every workload-independent per-layer metric."""
    pool = pool_of(cfg, data)
    n_queries = 256 if cfg.quick else 1024
    batches = [pool[i:i + BATCH] for i in range(0, n_queries, BATCH)]
    singles = pool[:n_queries // 4]
    out = batch_ladder(index, batches, recorder)
    out.update(service_ladder(index, batches, singles, recorder))
    out.update(persistence_ladder(cfg, index))
    out.update(write_ladder(cfg, data, batches[0]))
    out.update(await socket_ladder(
        cfg, os.path.join(cfg.workdir, "ladder-bundle"), batches, len(singles),
        out["serve.cache.hit_us"], recorder,
    ))
    return out


#: ``ANNService``'s batch window (its default ``batch_window_ms``), in us
WINDOW_US = 2000.0


def ledger(ladder: Dict[str, float], qps: float, avg_batch: float, single: bool):
    """Rows of per-request cost (us) along one ladder, and their coverage of 1e6/qps.

    On the single-query ladder the lone caller pays the whole batch window;
    in ``read_c2`` the ``avg_batch`` requests of a micro-batch share it.
    """
    if single:
        core = ladder["core.lccs_lsh.single_us"]
        lock = ladder["serve.concurrency.single_tax_us"]
        service = ladder["serve.service.lone_query_us"] - core - lock
        shared_window = WINDOW_US * (1.0 - 1.0 / max(avg_batch, 1.0))
        rows = [
            ("core.lccs_lsh (index.query)", core),
            ("serve.concurrency", lock),
            ("serve.service (window share + hand-off)", service - shared_window),
            ("serve.server + socket", ladder["serve.server.lone_query_rtt_us"] - ladder["serve.service.lone_query_us"]),
        ]
    else:
        kernels = [
            ("hashes", ladder["hashes.hash_us"]),
            ("core.csa search", ladder["core.csa.search_us"]),
            ("core.csa merge", ladder["core.csa.merge_us"]),
            ("kernels.verify", ladder["kernels.verify_us"]),
        ]
        lccs = ladder["core.lccs_lsh.batch32_us"]
        service = ladder["serve.service.batch32_us"]
        rows = kernels + [
            ("core.lccs_lsh (self)", lccs - sum(v for _, v in kernels)),
            ("serve.concurrency", ladder["serve.concurrency.read_tax_us"]),
            ("serve.service (window + hand-off)", service - lccs - ladder["serve.concurrency.read_tax_us"]),
            ("serve.server + socket", ladder["serve.server.batch32_us"] - service),
        ]
    total = sum(v for _, v in rows)
    return rows, total / (1e6 / qps)
