"""The four TCP workloads: set-up, traffic, correctness gate, metrics.

One :class:`Run` is one workload against its own server process.  Its
life is ``prepare`` (generate data, build and save the index, spawn the
server), ``warmup``, ``SLICES`` timed ``slice`` calls (after the last one
the server's stats are read), then ``finish`` (``kill -9``, the gate, the
numbers).  ``run.py`` interleaves the slices of several runs round-robin.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import loadgen
import stats as st
from loadgen import Req
from servers import ServerProc

DIM = 128
M = 64
K = 10
#: bucket width of the random-projection family: about twice the mean
#: exact 10-NN distance of the pool (the rule ``repro.cli compare`` uses),
#: fixed so that it does not depend on a ground-truth pass
W = 256.0
POOL = 4096            # query pool: perturbed data points
POOL_NOISE = 4.0       # std of the perturbation, per coordinate
GT_QUERIES = 512       # pool prefix with exact ground truth
REFERENCE_CHUNK = 256  # batch size of the reference table's batch_query calls
SLICES = 20
SLO_MS = 50.0
MEMTABLE = 64
ZIPF_S = 1.1
CACHE_SIZE = 1024                  # the server's default --cache-size
OPEN_RATE = 300.0                  # req/s of zipf_open
DIAGNOSTIC_RATES = (150.0, 600.0)  # extra zipf_open slices, diagnostics only
MIXED_OPS_PER_SECOND = 120         # mixed_rw schedule length per timed second
MIXED_WINDOW = 4
CONNECTIONS = 2


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    bundle: str            # "static" | "dynamic"
    flags: Tuple[str, ...]
    traffic: str           # "closed" | "open" | "schedule"
    window: int = 1        # outstanding per connection (closed, schedule)


WORKLOADS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec(
        "read_c2",
        "2 in flight, below the min_vector_batch cliff: batch-window wait, "
        "single-query path and per-request framing do the work; batch "
        "kernels and cache do none",
        "static", ("--cache-size", "0"), "closed", window=1,
    ),
    Spec(
        "read_c32",
        "32 in flight, above the cliff: batched hash/CSA/verify kernels and "
        "JSON encode/decode do most of the work; the batch window is shared "
        "by 32 requests",
        "static", ("--cache-size", "0"), "closed", window=16,
    ),
    Spec(
        "zipf_open",
        "open loop, Poisson 300 req/s, Zipf(1.1) keys over a pool 4x the "
        "cache (about 80% hits): the cache does most of the work, the "
        "kernels little; shows latency under arrival-driven load",
        "static", (), "open",
    ),
    Spec(
        "mixed_rw",
        "fixed 70/25/5 query/insert/delete schedule on the dynamic bundle "
        "with WAL fsync=always: LSM tiers, RW lock, WAL and cache "
        "invalidation; a read gain bought at the write path's expense shows",
        "dynamic", ("--fsync", "always"), "schedule", window=MIXED_WINDOW,
    ),
)}


@dataclass
class Config:
    seed: int
    n: int
    seconds: float         # timed seconds per workload (SLICES slices)
    quick: bool
    trace: bool
    workdir: str           # scratch inside the checkout
    env: Dict[str, str]    # environment of the server subprocesses
    server_cpu: Optional[int] = None   # CPU the servers are pinned to
    shared: dict = field(default_factory=dict)   # memo: pool, lines, reference, GT

    @property
    def slice_s(self) -> float:
        return self.seconds / SLICES

    @property
    def warm_s(self) -> float:
        return min(1.5, max(1.0, 0.15 * self.seconds))


class BenchAbort(RuntimeError):
    """The run would measure a different program; no result is printed."""


# ----------------------------------------------------------------------
# Inputs, all derived from the seed
# ----------------------------------------------------------------------

def make_data(cfg: Config) -> np.ndarray:
    from repro.data.synthetic import sift_like

    return sift_like(cfg.n, DIM, seed=cfg.seed)


def build_index(kind: str, cfg: Config, data: np.ndarray):
    from repro import LCCSLSH, DynamicLCCSLSH

    if kind == "static":
        index = LCCSLSH(dim=DIM, m=M, w=W, seed=cfg.seed, backend="cext")
    else:
        index = DynamicLCCSLSH(
            dim=DIM, m=M, w=W, seed=cfg.seed, backend="cext",
            memtable_size=MEMTABLE,
        )
    return index.fit(data)


def query_line(vector: np.ndarray) -> bytes:
    return json.dumps({"query": vector.tolist(), "k": K}).encode() + b"\n"


def pool_of(cfg: Config, data: np.ndarray) -> np.ndarray:
    if "pool" not in cfg.shared:
        rng = np.random.default_rng([cfg.seed, 1])
        rows = rng.integers(0, len(data), size=POOL)
        noisy = data[rows] + rng.normal(0.0, POOL_NOISE, size=(POOL, DIM))
        # Like the data, queries are SIFT-like descriptors: integers in 0..255.
        cfg.shared["pool"] = np.clip(np.rint(noisy), 0, 255)
        cfg.shared["pool_lines"] = [query_line(q) for q in cfg.shared["pool"]]
        cfg.shared["pool_unrounded"] = np.clip(noisy, 0, 255)
    return cfg.shared["pool"]


def float_lines(cfg: Config) -> List[bytes]:
    """Request lines of the pool before rounding: 17-digit floats, 3x as long."""
    return [query_line(q) for q in cfg.shared["pool_unrounded"]]


def ground_truth_of(cfg: Config, data: np.ndarray):
    """Exact top-k of the pool prefix over the base rows."""
    if "gt" not in cfg.shared:
        from repro.data import compute_ground_truth

        cfg.shared["gt"] = compute_ground_truth(
            data, pool_of(cfg, data)[:GT_QUERIES], K
        )
    return cfg.shared["gt"]


def reference_of(cfg: Config, index, data: np.ndarray):
    """The in-process answers for every pool query, as arrays and wire bytes.

    Built with ``batch_query`` and spot-checked against ``index.query`` (the
    repo pins the two byte-identical; the spot check keeps the gate honest
    if that ever breaks).
    """
    if "reference" not in cfg.shared:
        pool = pool_of(cfg, data)
        rows = []
        # In chunks: one batch of 4 096 gathers half a gigabyte of
        # candidate vectors and takes ten times as long as sixteen of 256.
        for start in range(0, len(pool), REFERENCE_CHUNK):
            ids, dists = index.batch_query(pool[start:start + REFERENCE_CHUNK], k=K)
            for row_ids, row_dists in zip(ids, dists):
                valid = row_ids >= 0
                rows.append((row_ids[valid].tolist(), row_dists[valid].tolist()))
        rng = np.random.default_rng([cfg.seed, 2])
        for i in rng.integers(0, len(pool), size=16):
            one_ids, one_dists = index.query(pool[i], k=K)
            if (one_ids.tolist(), one_dists.tolist()) != rows[i]:
                raise BenchAbort(f"batch_query and query disagree on pool[{i}]")
        cfg.shared["reference"] = rows
        cfg.shared["reference_lines"] = [
            json.dumps({"ids": r[0], "dists": r[1]}).encode() for r in rows
        ]
    return cfg.shared["reference"]


def mixed_schedule(cfg: Config):
    """The fixed mixed_rw schedule and the vectors it inserts."""
    from repro.data.synthetic import sift_like

    rng = np.random.default_rng([cfg.seed, 4])
    n_ops = int(round(MIXED_OPS_PER_SECOND * cfg.seconds))
    schedules = loadgen.op_schedule(rng, n_ops, CONNECTIONS, MIXED_WINDOW, GT_QUERIES)
    n_inserts = sum(1 for ops in schedules for kind, _ in ops if kind == "i")
    # Fresh clusters of the same generator: inserted rows land far from
    # the pool queries' neighbourhoods, so the ground truth of the pool
    # stays the exact top-k over the base rows.
    inserts = sift_like(n_inserts, DIM, seed=cfg.seed + 1_000_003)
    return schedules, inserts


def quality(rows, gt) -> Tuple[float, float]:
    """(recall@k, overall ratio) of answers ``rows[i] = (ids, dists)`` vs ``gt``."""
    from repro.eval import overall_ratio, recall

    recalls = [recall(np.asarray(r[0]), gt.indices[i]) for i, r in rows]
    ratios = [overall_ratio(np.asarray(r[1]), gt.distances[i]) for i, r in rows]
    return float(np.mean(recalls)), float(np.mean(ratios))


# ----------------------------------------------------------------------
# mixed_rw: the schedule as a request source, and its history
# ----------------------------------------------------------------------

class ScheduleSource:
    """One connection's share of the fixed mixed_rw schedule.

    ``handles`` (shared by the connections) maps insert ordinal to the
    handle the server acknowledged; a delete's request line is built from
    it when the delete is sent, which is why the schedule only deletes
    inserts that are ``window`` positions old.
    """

    def __init__(self, ops, pool_lines, insert_lines, probe_lines, handles):
        self._ops = ops
        self._pos = 0
        self._quota = 0
        self._pool_lines = pool_lines
        self._insert_lines = insert_lines
        self._probe_lines = probe_lines
        self.handles = handles

    def grant(self, n_ops: int) -> None:
        self._quota = n_ops

    @property
    def remaining(self) -> int:
        return len(self._ops) - self._pos

    def next(self) -> Optional[Req]:
        if self._quota <= 0 or self._pos >= len(self._ops):
            return None
        kind, ref = self._ops[self._pos]
        self._pos += 1
        self._quota -= 1
        if kind == "q":
            return Req("q", ref, self._pool_lines[ref])
        if kind == "p":
            return Req("p", ref, self._probe_lines[ref])
        if kind == "i":
            return Req("i", ref, self._insert_lines[ref])
        handle = self.handles.get(ref)
        # An unknown handle means the insert failed; -1 makes the server
        # answer with an error, which the gate counts.
        return Req("d", ref, json.dumps({"delete": -1 if handle is None else handle}).encode() + b"\n")

    def on_reply(self, req: Req) -> None:
        if req.kind == "i":
            handle = json.loads(req.reply).get("handle")
            if handle is not None:
                self.handles[req.key] = int(handle)


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------

@dataclass
class Slice:
    duration: float
    window_end: float          # completions up to here count towards qps
    log: List[Req]
    sched_lag_ms: List[float] = field(default_factory=list)
    backlog: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0


class Run:
    def __init__(self, spec: Spec, cfg: Config, recorder=None):
        self.spec = spec
        self.cfg = cfg
        self.recorder = recorder
        self.dir = os.path.join(cfg.workdir, spec.name)
        self.server: Optional[ServerProc] = None
        self.index = None
        self.data: Optional[np.ndarray] = None
        self.setup_times: List[float] = []
        self.pipes: List[loadgen.Pipe] = []
        self.control: Optional[loadgen.Pipe] = None
        self.sources: list = []
        self.slices: List[Slice] = []
        self.stats_before: dict = {}     # after the warm-up
        self.stats_after: dict = {}      # after the last timed slice
        self.rss_mb = 0.0                # the server's VmHWM at that moment
        self.rng = np.random.default_rng([cfg.seed, 3, sorted(WORKLOADS).index(spec.name)])
        self.inserts: Optional[np.ndarray] = None
        self.handles: Dict[int, int] = {}

    # -- set-up ---------------------------------------------------------

    def server_flags(self) -> List[str]:
        flags = list(self.spec.flags)
        if self.spec.bundle == "dynamic":
            flags += ["--wal-dir", os.path.join(self.dir, "wal")]
        return flags

    def setup_once(self) -> float:
        """Data generation + fit + save_index + server spawn until listening."""
        from repro import save_index

        if self.server is not None:
            self.server.kill()
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        t0 = perf_counter()
        self.data = make_data(self.cfg)
        self.index = build_index(self.spec.bundle, self.cfg, self.data)
        bundle = os.path.join(self.dir, "bundle")
        save_index(self.index, bundle)
        self.server = ServerProc(
            bundle, self.server_flags(), os.path.join(self.dir, "server.log"),
            self.cfg.env, self.cfg.server_cpu,
        ).start()
        return perf_counter() - t0

    async def prepare(self, setup_reps: int) -> None:
        for _ in range(setup_reps):
            self.setup_times.append(self.setup_once())
        cfg = self.cfg
        pool_of(cfg, self.data)
        lines = cfg.shared["pool_lines"]
        ground_truth_of(cfg, self.data)
        if self.spec.bundle == "static":
            reference_of(cfg, self.index, self.data)
        self.pipes = [
            await loadgen.open_pipe("127.0.0.1", self.server.port)
            for _ in range(CONNECTIONS)
        ]
        for pipe in self.pipes:
            pipe.parse_inline = self.recorder is not None
        self.control = await loadgen.open_pipe("127.0.0.1", self.server.port)
        backend = (await self.stats()).get("kernel_backend")
        if backend != "cext":
            raise BenchAbort(
                f"{self.spec.name}: server answers with kernel backend "
                f"{backend!r}, not 'cext' (silent fallback)"
            )
        if self.spec.traffic == "closed":
            self.sources = [
                loadgen.CyclicSource(lines, c, CONNECTIONS) for c in range(CONNECTIONS)
            ]
        elif self.spec.traffic == "schedule":
            self._prepare_schedule(lines)

    def _prepare_schedule(self, pool_lines) -> None:
        schedules, self.inserts = mixed_schedule(self.cfg)
        insert_lines = [
            json.dumps({"insert": v.tolist()}).encode() + b"\n" for v in self.inserts
        ]
        probe_lines = [query_line(v) for v in self.inserts]
        self.sources = [
            ScheduleSource(ops, pool_lines, insert_lines, probe_lines, self.handles)
            for ops in schedules
        ]

    async def stats(self) -> dict:
        reply = await loadgen.rpc(self.control, {"stats": True})
        if "stats" not in reply:
            raise BenchAbort(f"{self.spec.name}: stats op failed: {reply}")
        return reply["stats"]

    # -- traffic --------------------------------------------------------

    def _arrivals(self, rate: float, duration: float):
        offsets = loadgen.poisson_arrivals(self.rng, rate, duration)
        keys = loadgen.zipf_keys(self.rng, POOL, len(offsets), ZIPF_S)
        return list(zip(offsets.tolist(), keys.tolist()))

    async def warmup(self) -> None:
        cfg = self.cfg
        lines = cfg.shared["pool_lines"]
        if self.spec.traffic == "open":
            # Fill the cache to its steady state first: at 300 req/s the
            # warm-up alone would leave the first slices half cold.  An LRU
            # cache that has served a stream holds its last CACHE_SIZE
            # distinct keys, least recently used first: sending only those,
            # each once, leaves the cache that 4 096 Zipf draws would, and
            # as they all miss together they go through the batch kernels
            # (0.3 s; the draws themselves take 2.5 s).
            keys = loadgen.zipf_keys(self.rng, POOL, 4 * CACHE_SIZE, ZIPF_S).tolist()
            recent = list(dict.fromkeys(reversed(keys)))[:CACHE_SIZE][::-1]
            await loadgen.closed_loop(
                self.pipes,
                [loadgen.ListSource([Req("q", k, lines[k]) for k in recent[c::CONNECTIONS]])
                 for c in range(CONNECTIONS)],
                window=16,
            )
            await loadgen.open_loop(
                self.pipes, self._arrivals(OPEN_RATE, cfg.warm_s), lines
            )
        else:
            # mixed_rw warms up read-only: its schedule is fixed work and
            # is spent only inside the timed slices.
            sources = self.sources
            if self.spec.traffic == "schedule":
                sources = [
                    loadgen.CyclicSource(lines[:GT_QUERIES], c, CONNECTIONS)
                    for c in range(CONNECTIONS)
                ]
            await loadgen.closed_loop(
                self.pipes, sources, self.spec.window,
                deadline=perf_counter() + cfg.warm_s,
            )
        self.stats_before = await self.stats()

    async def slice(self, index: int, rate: float = OPEN_RATE) -> Slice:
        """One timed slice; diagnostic open-loop slices pass another ``rate``."""
        cfg = self.cfg
        spec = self.spec
        gc.collect()
        gc.disable()
        cpu0, wall0 = time.process_time(), perf_counter()
        try:
            if spec.traffic == "closed":
                end = wall0 + cfg.slice_s
                log = await loadgen.closed_loop(
                    self.pipes, self.sources, spec.window, deadline=end
                )
                out = Slice(cfg.slice_s, end, log)
            elif spec.traffic == "open":
                marks: List[int] = []
                log, _ = await loadgen.open_loop(
                    self.pipes, self._arrivals(rate, cfg.slice_s),
                    cfg.shared["pool_lines"], backlog_marks=marks,
                )
                out = Slice(
                    cfg.slice_s, float("inf"), log,
                    sched_lag_ms=[(r.sent - r.due) * 1e3 for r in log],
                    backlog=loadgen.backlog_growth(marks),
                )
            else:
                for source in self.sources:
                    left = SLICES - index
                    source.grant(-(-source.remaining // left))
                log = await loadgen.closed_loop(
                    self.pipes, self.sources, spec.window
                )
                out = Slice(perf_counter() - wall0, float("inf"), log)
        finally:
            gc.enable()
        out.cpu_s = time.process_time() - cpu0
        out.wall_s = perf_counter() - wall0
        return out

    async def timed_slice(self, index: int) -> None:
        out = await self.slice(index)
        if self.recorder is not None:
            self._record_spans(out.log)
        self.slices.append(out)
        if len(self.slices) == SLICES:
            # Here, not in finish(): diagnostic slices may follow.
            self.stats_after = await self.stats()
            self.rss_mb = self.server.read_peak_rss_mb()

    def _record_spans(self, log: List[Req]) -> None:
        """Per TCP request: ``loadgen.due -> sent -> reply -> parsed``."""
        name = self.spec.name
        for i, req in enumerate(log):
            if req.done is None:
                continue
            trace = f"{name}-{len(self.slices)}-{i}"
            self.recorder.add("loadgen.request", req.due, req.parsed, None, trace)
            self.recorder.add("loadgen.due_to_sent", req.due, req.sent, "loadgen.request", trace)
            self.recorder.add("loadgen.sent_to_reply", req.sent, req.done, "loadgen.request", trace)
            self.recorder.add("loadgen.reply_to_parsed", req.done, req.parsed, "loadgen.request", trace)

    # -- the gate -------------------------------------------------------

    def _check_static(self, log: List[Req]) -> Tuple[List[Req], List[str]]:
        """Byte-for-byte against the in-process reference; returns (correct, problems)."""
        reference = self.cfg.shared["reference"]
        expected = self.cfg.shared["reference_lines"]
        good: List[Req] = []
        problems: List[str] = []
        for req in log:
            if req.done is None:
                problems.append(f"pool[{req.key}]: no reply")
            elif req.reply == expected[req.key]:
                good.append(req)
            else:
                reply = json.loads(req.reply)
                if (reply.get("ids"), reply.get("dists")) == reference[req.key]:
                    good.append(req)     # same answer, other spelling
                else:
                    problems.append(f"pool[{req.key}]: {req.reply[:120]!r}")
        return good, problems

    def _check_history(self, log: List[Req]):
        """mixed_rw, from the client's history alone.

        Every op must be answered without error; a probe sent after its
        insert was acknowledged (and before its delete was sent) must find
        the handle at distance 0; no reply may contain a handle whose
        delete was acknowledged before the query was sent.
        """
        good: List[Req] = []
        problems: List[str] = []
        replies: Dict[int, dict] = {}
        insert_acked: Dict[int, float] = {}
        delete_sent: Dict[int, float] = {}
        delete_acked_handle: Dict[int, float] = {}
        for req in log:
            if req.done is None:
                problems.append(f"{req.kind}[{req.key}]: no reply")
                continue
            reply = json.loads(req.reply)
            if "error" in reply:
                problems.append(f"{req.kind}[{req.key}]: {reply['error']}")
                continue
            replies[id(req)] = reply
            if req.kind == "i":
                insert_acked[req.key] = req.done
            elif req.kind == "d":
                delete_sent[req.key] = req.sent
                delete_acked_handle[int(reply["deleted"])] = req.done
        for req in log:
            reply = replies.get(id(req))
            if reply is None:
                continue
            if req.kind in ("i", "d"):
                good.append(req)
                continue
            ids, dists = reply["ids"], reply["dists"]
            ghosts = [
                h for h in ids
                if delete_acked_handle.get(h, float("inf")) < req.sent
            ]
            if ghosts:
                problems.append(f"{req.kind}[{req.key}]: deleted handles {ghosts} reappeared")
                continue
            if req.kind == "p":
                handle = self.handles.get(req.key)
                must_find = (
                    insert_acked.get(req.key, float("inf")) < req.sent
                    and delete_sent.get(req.key, float("inf")) > req.done
                )
                found = handle in ids and dists[ids.index(handle)] == 0.0
                if must_find and not found:
                    problems.append(
                        f"p[{req.key}]: acknowledged insert (handle {handle}) not found at distance 0"
                    )
                    continue
            good.append(req)
        return good, problems, replies

    def _check_recovery(self, log: List[Req]) -> List[str]:
        """After ``kill -9``: recover() holds every acknowledged write and none beyond."""
        from repro.serve.durability import recover

        state = recover(os.path.join(self.dir, "wal"))
        index = state.index
        acked_inserts = {
            req.key for req in log if req.kind == "i" and req.key in self.handles
        }
        acked_deletes = {
            req.key for req in log
            if req.kind == "d" and req.done is not None and b'"deleted"' in req.reply
        }
        problems: List[str] = []
        rows = self.cfg.n + len(acked_inserts)
        if index.n != rows:
            problems.append(f"recovered {index.n} rows, acknowledged {rows}")
        live = rows - len(acked_deletes)
        if index.live_count != live:
            problems.append(f"recovered {index.live_count} live rows, acknowledged {live}")
        ordinals = sorted(acked_inserts)
        if not ordinals:
            return problems
        ids, dists = index.batch_query(self.inserts[ordinals], k=1)
        for ordinal, nearest, dist in zip(ordinals, ids[:, 0], dists[:, 0]):
            handle = self.handles[ordinal]
            found = int(nearest) == handle and float(dist) == 0.0
            if found == (ordinal in acked_deletes):
                problems.append(
                    f"insert {ordinal} (handle {handle}): "
                    f"{'deleted but served' if found else 'acknowledged but not served'}"
                )
        return problems

    # -- wrap-up --------------------------------------------------------

    def finish(self) -> dict:
        spec, cfg = self.spec, self.cfg
        self.abandon()
        if "Traceback" in self.server.stderr_text():
            raise BenchAbort(
                f"{spec.name}: traceback on the server's stderr:\n"
                + self.server.stderr_text()[-2000:]
            )

        log = [req for sl in self.slices for req in sl.log]
        lost: List[str] = []      # recovery violations, one per write
        if spec.bundle == "static":
            good, problems = self._check_static(log)
            recall_at_k, ratio = quality(
                list(enumerate(cfg.shared["reference"][:GT_QUERIES])), cfg.shared["gt"]
            )
        else:
            good, problems, replies = self._check_history(log)
            lost = self._check_recovery(log)
            answered = [
                (req.key, (replies[id(req)]["ids"], replies[id(req)]["dists"]))
                for req in good if req.kind == "q"
            ]
            recall_at_k, ratio = quality(answered, cfg.shared["gt"])
        good_ids = {id(req) for req in good}

        def is_query(req: Req) -> bool:
            return req.kind in ("q", "p")

        pooled = spec.traffic == "schedule"
        per_slice: Dict[str, List[float]] = {"qps": [], "query_p50_ms": [], "query_p99_ms": []}
        for sl in self.slices:
            done = [r for r in sl.log if id(r) in good_ids and r.done <= sl.window_end]
            per_slice["qps"].append(len(done) / sl.duration)
            lat = [r.latency_ms for r in sl.log if r.done is not None and is_query(r)]
            per_slice["query_p50_ms"].append(st.percentile(lat, 50))
            per_slice["query_p99_ms"].append(st.percentile(lat, 99))
        query_lat = [r.latency_ms for r in log if r.done is not None and is_query(r)]
        write_lat = [r.latency_ms for r in log if r.done is not None and not is_query(r)]
        queries = [r for r in log if is_query(r)]
        in_slo = sum(
            1 for r in queries if id(r) in good_ids and r.latency_ms <= SLO_MS
        )
        total_s = sum(sl.duration for sl in self.slices)
        if pooled:
            # Fixed work: one number over the whole schedule, so that the
            # seals and compactions a choice among slices would hide count.
            qps = len(good) / total_s
            p50 = st.percentile(query_lat, 50)
            p99 = st.percentile(query_lat, 99)
        else:
            # Fixed time: the slice a tenth of the way in from the good end
            # (see stats.good_decile: the host's bursts last longer than
            # half a run, so the median slice moves with them).
            qps = st.good_decile(per_slice["qps"], "higher")
            p50 = st.good_decile(per_slice["query_p50_ms"], "lower")
            p99 = st.median(per_slice["query_p99_ms"])
            if spec.traffic == "open":
                # The arrival schedule sets the rate, not the server:
                # answers over the whole timed phase.
                qps = len(good) / total_s
        failed = len(log) - len(good) + len(lost)
        end_to_end = {
            "setup_s": st.median(self.setup_times),
            "qps": qps,
            "query_p50_ms": p50,
            "query_p99_ms": p99,
            "within_slo_frac": in_slo / len(queries),
            "recall_at_10": recall_at_k,
            "overall_ratio": ratio,
            "failed_frac": failed / len(log),
            "server_rss_mb": self.rss_mb,
            "index_bytes": float(self.index.index_size_bytes()),
        }
        if write_lat:
            end_to_end["write_p50_ms"] = st.percentile(write_lat, 50)
            end_to_end["write_p95_ms"] = st.percentile(write_lat, 95)
        # Run-internal noise, per metric; ``None`` where this run holds one
        # sample and so says nothing about noise (--compare then never calls
        # the row regressed).  Slice values: the quartile distance as a
        # share of the median.  The chunks of a fixed schedule differ by
        # design (some hold a compaction), so they are no noise estimate.
        spreads: Dict[str, Optional[float]] = dict.fromkeys(end_to_end)
        if not pooled:
            spreads["qps"] = st.iqr_share(per_slice["qps"])
            spreads["query_p50_ms"] = st.iqr_share(per_slice["query_p50_ms"])
        # Slice p99s come in two kinds, with and without a stall, and their
        # median flips from run to run: only their whole range bounds it.
        spreads["query_p99_ms"] = st.spread(per_slice["query_p99_ms"])
        if len(self.setup_times) > 1:
            spreads["setup_s"] = st.spread(self.setup_times)
        # Functions of the seed alone: the index, and the reference table
        # every static reply was pinned to.
        spreads["index_bytes"] = 0.0
        if spec.bundle == "static":
            spreads["recall_at_10"] = spreads["overall_ratio"] = 0.0

        return {
            "why": spec.why,
            "server_flags": [
                os.path.relpath(flag, cfg.workdir) if flag.startswith(cfg.workdir) else flag
                for flag in self.server.argv[5:]
            ],
            "end_to_end": end_to_end,
            "spread": spreads,
            "per_slice": per_slice,
            "samples": {
                "attempted": len(log),
                "failed": failed,
                "queries": len(query_lat),
                "writes": len(write_lat),
                "query_tail_supported_pct": st.supported_tail(len(query_lat)),
                "write_tail_supported_pct": st.supported_tail(len(write_lat)),
                "max_inflight_per_connection": max(p.max_inflight for p in self.pipes),
            },
            "problems": (problems + lost)[:20],
            "layers": self._layers(self.stats_after, sum(query_lat) / len(query_lat)),
            "loadgen": self._loadgen(),
        }

    def _layers(self, after: dict, client_mean_ms: float) -> dict:
        """Per-workload layer counters, from the public stats op (timed phase only).

        The server's latency histogram is cumulative and includes the
        warm-up, so the server-side figure is the *mean* over the timed
        phase (from count and mean before and after), and the client's tax
        is the client's mean minus it.
        """
        before = self.stats_before

        def delta(key: str) -> float:
            return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)

        batches = delta("batches")
        lookups = delta("cache_hits") + delta("cache_misses")

        def server_queries(stats: dict) -> Tuple[float, float]:
            """(count, total ms) of the server's own query timer."""
            op = ((stats.get("server") or {}).get("ops") or {}).get("query") or {}
            count = float(op.get("count", 0))
            return count, count * float(op.get("mean_ms", 0.0))

        (n0, ms0), (n1, ms1) = server_queries(before), server_queries(after)
        server_mean = (ms1 - ms0) / (n1 - n0) if n1 > n0 else 0.0
        out = {
            "serve.service.batches": batches,
            "serve.service.avg_batch_size": delta("batched_queries") / batches if batches else 0.0,
            "serve.cache.hit_ratio": delta("cache_hits") / lookups if lookups else 0.0,
            "serve.cache.evictions": delta("cache_evictions"),
            "serve.cache.invalidations": delta("cache_invalidations"),
            "serve.server.query_mean_ms": server_mean,
            "serve.client.tax_ms": client_mean_ms - server_mean,
            "core.dynamic.seals": delta("tier_seals"),
            "core.dynamic.compactions": delta("tier_compactions"),
            "core.dynamic.compaction_s": delta("tier_compaction_time_s"),
            "core.dynamic.segments_final": float(after.get("tier_segments", 0) or 0),
        }
        writes = delta("writes")
        out["serve.durability.wal_bytes_per_write"] = delta("wal_bytes_written") / writes if writes else 0.0
        out["serve.durability.fsyncs_per_write"] = delta("wal_syncs") / writes if writes else 0.0
        return out

    def _loadgen(self) -> dict:
        # The median slice: one machine hiccup delays the generator as much
        # as the server and is not the generator's fault.
        lags = [st.percentile(sl.sched_lag_ms, 99) for sl in self.slices if sl.sched_lag_ms]
        cpu = sum(sl.cpu_s for sl in self.slices)
        wall = sum(sl.wall_s for sl in self.slices)
        return {
            "loadgen.sched_lag_p99_ms": st.median(lags) if lags else 0.0,
            "loadgen.cpu_frac": cpu / wall,
            "loadgen.backlog_growth": max((sl.backlog for sl in self.slices), default=0.0),
        }

    def abandon(self) -> None:
        """Close the connections and ``kill -9`` the server (idempotent)."""
        for pipe in self.pipes + ([self.control] if self.control else []):
            pipe.close()
        if self.server is not None:
            self.server.kill()
