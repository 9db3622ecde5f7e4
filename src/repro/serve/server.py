"""The serving front door: one JSON-lines protocol, one request handler.

Requests are JSON objects, one per line; responses come back one per
line, in request order per connection:

=============================  =========================================
request                        response
=============================  =========================================
``{"query": [..], "k": 10,     ``{"ids": [..], "dists": [..]}`` (``k``
`` ...kwargs}``                defaults to ``--k``; other keys, e.g.
                               ``num_candidates``, are query kwargs; a
                               ``min_version`` key makes the read wait
                               for that WAL seq — read-your-writes)
``{"insert": [..]}``           ``{"handle": h, "version": v, "seq": s}``
``{"delete": h}``              ``{"deleted": h, "version": v, "seq": s}``
                               (``seq`` only with ``--wal-dir``)
``{"stats": true}``            ``{"stats": {..}}`` (service counters;
                               the handler's per-op request counts and
                               latency percentiles,
                               :mod:`repro.obs.metrics`, under
                               ``stats.server``)
``{"trace": n}``               ``{"traces": [..], "slow": [..],
                               "tracer": {..}}`` — the ``n`` newest
                               sampled span trees and ``n`` slowest
                               slow-log entries; anything but a positive
                               integer means all that is retained
``{"metrics": true}``          ``{"metrics": {..}}`` — the registry
                               snapshot, merged across prefork workers
                               (``"prometheus"``: text exposition)
``{"ping": true}``             ``{"pong": true}``
anything else / bad JSON       ``{"error": "..."}``
over ``--max-inflight``        ``{"error": "overloaded", "shed": true}``
=============================  =========================================

:class:`AsyncANNServer` owns all of it — parsing, verb dispatch,
admission, the per-connection barrier, tracing, metrics and the single
ordered writer — for every transport: the sockets it accepts
(:meth:`AsyncANNServer.start`) and anything else dressed as a
reader/writer pair (:meth:`AsyncANNServer.serve_connection`; ``cli
serve`` hands it stdin or a requests file that way).

* **Per worker** every connection feeds one shared
  :class:`~repro.serve.service.ANNService`, so concurrent queries —
  pipelined on one connection or arriving on different sockets —
  coalesce into micro-batches.  Queries execute concurrently and
  responses are written strictly in request order, while every other
  verb is a per-connection barrier: it runs only after every earlier
  request on that connection has answered, so a write or ``stats``
  observes all the reads before it.
* **Admission control**: each worker bounds its in-flight requests
  (``max_inflight``).  Beyond the bound a socket's requests are *shed*
  with an explicit ``{"error": "overloaded", "shed": true}`` instead of
  buffering without bound — clients see overload immediately and can
  back off.  (A transport that stops reading while ``max_inflight``
  requests are unanswered, as the stdin one does, is never shed.)
* **Prefork workers** (``workers > 1``): N worker processes each open
  the same bundle with ``load_index(mmap=True)`` and bind their own
  listening socket with ``SO_REUSEPORT`` so the kernel load-balances
  connections across them.  Writes route to the single **primary**
  process (the prefork parent) holding the
  :class:`~repro.serve.durability.DurableIndex` / WAL; workers are
  log-shipping replicas that tail the WAL and serve ``min_version``
  read-your-writes.  Without ``--wal-dir`` the workers are read-only.
* **Graceful drain**: SIGTERM (or SIGINT) stops accepting new
  connections; existing connections keep full service until they close
  (or ``drain_timeout`` elapses), so every in-flight request is
  answered before exit.

Programmatic entry points: :class:`AsyncANNServer` (asyncio-native),
:class:`ThreadedServer` (background-thread embedding, used by tests),
and :func:`run_server` (the blocking ``cli serve`` driver: one
pre-made connection, one listening process, or prefork).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.export import SnapshotSpool, merge_snapshots, render_prometheus
from repro.obs.metrics import ServerMetrics, get_registry
from repro.obs.tracing import Tracer, get_tracer
from repro.serve.client import AsyncServeClient
from repro.serve.codec import decode_line, encode_line

__all__ = [
    "AsyncANNServer",
    "PrimaryBackend",
    "ReplicaBackend",
    "ServerConfig",
    "ServiceBackend",
    "ThreadedServer",
    "run_server",
]

#: shed response emitted by admission control (copied per response)
SHED_RESPONSE = {"error": "overloaded", "shed": True}

#: request-line size bound (mirrors the client's response bound)
LINE_LIMIT = 32 << 20

DEFAULT_MAX_INFLIGHT = 64


def _error_response(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _query_response(result) -> dict:
    ids, dists = result
    return {"ids": ids.tolist(), "dists": dists.tolist()}


# ----------------------------------------------------------------------
# Backends: what the protocol verbs do in each process role
# ----------------------------------------------------------------------

class _Backend:
    """The interface the handler calls, and what the roles share.

    Every method below is called unconditionally by
    :class:`AsyncANNServer`; a role overrides what it does differently.
    Shared here: query unpacking, the thread pool that keeps index and
    WAL work off the event loop, the ``insert``/``delete``/``stats``
    envelopes (roles that apply writes themselves supply ``_insert`` /
    ``_delete`` / ``_write_ack``; all supply ``_stats``), and the batch
    epoch that wakes the loop once per micro-batch (:meth:`settled`).
    """

    #: the ``stats.role`` this backend reports
    role = ""
    #: WAL position this process has applied (``None``: no log)
    applied_seq: Optional[int] = None
    #: the :class:`ANNService` answering queries (``None``: none here)
    _service = None

    def __init__(
        self,
        default_kwargs: Optional[dict] = None,
        default_k: int = 10,
        pool_workers: int = 2,
    ):
        self._default_kwargs = dict(default_kwargs or {})
        self._default_k = int(default_k)
        self._pool = ThreadPoolExecutor(
            max_workers=pool_workers,
            thread_name_prefix=f"{type(self).__name__}-pool",
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch: Optional[asyncio.Future] = None

    def parse_query(self, request: dict):
        """request -> ``(q, k, min_version, kwargs)``."""
        payload = dict(request)
        q = np.asarray(payload.pop("query"), dtype=np.float64)
        if not np.isfinite(q).all():  # a JSON null reads as NaN
            raise ValueError("query must be finite numbers")
        k = int(payload.pop("k", self._default_k))
        min_version = payload.pop("min_version", None)
        if min_version is not None:
            min_version = int(min_version)
        kwargs = {**self._default_kwargs, **payload}
        return q, k, min_version, kwargs

    def _in_pool(self, fn):
        return asyncio.get_running_loop().run_in_executor(self._pool, fn)

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind to the serving loop; :meth:`AsyncANNServer.start` calls it
        once, before the first request.

        The service gets one batch listener: after each micro-batch it
        resolves the loop's current *batch epoch* with a single
        ``call_soon_threadsafe``, however many of the batch's futures
        the loop is waiting on.
        """
        self._loop = loop
        self._epoch = loop.create_future()
        if self._service is not None:
            self._service.add_batch_listener(self._batch_done)

    def _batch_done(self) -> None:
        """Batch listener (batcher thread): one loop wake-up per batch."""
        self._loop.call_soon_threadsafe(self._next_epoch)

    def _next_epoch(self) -> None:
        epoch, self._epoch = self._epoch, self._loop.create_future()
        epoch.set_result(None)

    async def settled(self, fut):
        """Wait (on the loop) until the service future ``fut`` is done.

        A batch resolves its futures before it ends the current epoch,
        so this re-checks ``fut`` at most once per batch and never
        misses the one that answers it.  The epoch is shielded: one
        waiter's cancellation must not cancel the future all share.
        """
        while not fut.done():
            await asyncio.shield(self._epoch)

    def query_nowait(self, request: dict, trace=None):
        """Submit a query without awaiting anything.

        Returns a ``concurrent.futures.Future`` of ``(ids, dists)`` —
        already done on a cache hit — or ``None`` when this request has
        to go through :meth:`query`.
        """
        return None

    async def query(self, request: dict, trace=None) -> dict:
        raise NotImplementedError

    async def insert(self, request: dict, trace=None) -> dict:
        vector = np.asarray(request["insert"], dtype=np.float64)
        handle = await self._in_pool(lambda: self._insert(vector, trace))
        return {"handle": int(handle), **self._write_ack()}

    async def delete(self, request: dict, trace=None) -> dict:
        handle = int(request["delete"])
        await self._in_pool(lambda: self._delete(handle, trace))
        return {"deleted": handle, **self._write_ack()}

    async def stats(self, request: dict) -> dict:
        stats = await self._in_pool(self._stats)
        stats["role"] = self.role
        stats["pid"] = os.getpid()
        if self.applied_seq is not None:
            stats["applied_seq"] = int(self.applied_seq)
        return {"stats": stats}

    async def aclose(self) -> None:
        if self._service is not None:
            self._service.remove_batch_listener(self._batch_done)
        self._pool.shutdown(wait=False)


class ServiceBackend(_Backend):
    """Single-process backend: one :class:`ANNService` does everything.

    Queries go through the service's cache + micro-batcher (its
    ``concurrent.futures`` futures are awaited through the batch epoch);
    writes and stats run on a small thread pool so a WAL fsync never
    blocks the loop.
    """

    role = "single"

    def __init__(
        self,
        service,
        default_kwargs: Optional[dict] = None,
        default_k: int = 10,
        durable=None,
    ):
        super().__init__(default_kwargs, default_k)
        self._service = service
        self._durable = durable

    @property
    def applied_seq(self) -> Optional[int]:
        return None if self._durable is None else self._durable.applied_seq

    def query_nowait(self, request: dict, trace=None):
        """The service future, always: nothing here has to be awaited."""
        q, k, min_version, kwargs = self.parse_query(request)
        # Local reads always reflect every acknowledged write, so a
        # min_version from one of our own write responses is
        # trivially satisfied; anything beyond the log is an error.
        if (
            min_version is not None
            and self._durable is not None
            and self._durable.applied_seq < min_version
        ):
            raise RuntimeError(
                f"min_version={min_version} is ahead of the log "
                f"(applied_seq={self._durable.applied_seq})"
            )
        return self._service.query_async(q, k=k, trace=trace, **kwargs)

    def _insert(self, vector, trace):
        return self._service.insert(vector, trace=trace)

    def _delete(self, handle, trace):
        self._service.delete(handle, trace=trace)

    def _write_ack(self) -> dict:
        ack = {"version": self._service.version}
        if self._durable is not None:
            ack["seq"] = int(self._durable.applied_seq)
        return ack

    def _stats(self) -> dict:
        return self._service.stats()


class ReplicaBackend(_Backend):
    """Prefork-worker backend: replica reads, forwarded writes.

    Reads go through the worker's own :class:`ANNService` (so
    cross-connection micro-batching and the cache still apply), built
    on ``replica.index``.  Following the log is the
    :class:`~repro.serve.durability.Replica`'s job; this class adds
    what is server-shaped: a background task that calls its
    ``catch_up`` every ``tail_interval_s``, a bounded wait for
    ``min_version`` reads, and forwarding of writes over a persistent
    connection to the primary process.  Without a ``replica`` the
    worker is read-only (no WAL: nothing to follow, nowhere to write).
    """

    def __init__(
        self,
        service,
        replica=None,
        primary_addr: Optional[Tuple[str, int]] = None,
        default_kwargs: Optional[dict] = None,
        default_k: int = 10,
        tail_interval_s: float = 0.05,
        stale_timeout_s: float = 2.0,
    ):
        super().__init__(default_kwargs, default_k)
        if replica is not None and service.index is not replica.index:
            raise ValueError("service must be built on replica.index")
        self._service = service
        self._replica = replica
        self.role = "replica" if replica is not None else "reader"
        self._primary_addr = primary_addr
        self._primary: Optional[AsyncServeClient] = None
        self._primary_lock: Optional[asyncio.Lock] = None
        self._tail_interval = float(tail_interval_s)
        self._stale_timeout = float(stale_timeout_s)
        self._tail_task: Optional[asyncio.Task] = None

    @property
    def applied_seq(self) -> Optional[int]:
        return None if self._replica is None else self._replica.applied_seq

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind to the loop and launch the WAL tailing task (if any)."""
        super().start(loop)
        if self._replica is not None:
            self._tail_task = loop.create_task(self._tail_loop())

    async def _tail_loop(self) -> None:
        while True:
            await asyncio.sleep(self._tail_interval)
            try:
                await self._in_pool(self._replica.catch_up)
            except Exception:  # transient log race; next tick retries
                continue

    async def _wait_for(self, min_version: int) -> None:
        """Poll the log until it reaches ``min_version``, at most
        ``stale_timeout_s``; then the replica's ``StaleReadError``."""
        if self._replica is None:
            raise RuntimeError(
                "min_version requires --wal-dir (read-only worker has no "
                "log to wait on)"
            )
        from repro.serve.durability import StaleReadError

        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._stale_timeout
        while self._replica.applied_seq < min_version:
            try:
                await self._in_pool(lambda: self._replica.ensure(min_version))
            except StaleReadError:
                if loop.time() >= deadline:
                    raise
                await asyncio.sleep(0.005)

    def query_nowait(self, request: dict, trace=None):
        """The service future for a query that needs no catch-up, else
        ``None`` (a ``min_version`` read may have to wait for the log:
        :meth:`query`)."""
        if "min_version" in request:
            return None
        q, k, _, kwargs = self.parse_query(request)
        return self._service.query_async(q, k=k, trace=trace, **kwargs)

    async def query(self, request: dict, trace=None) -> dict:
        q, k, min_version, kwargs = self.parse_query(request)
        if min_version is not None:
            t0 = time.perf_counter()
            await self._wait_for(min_version)
            if trace is not None:
                trace.add_span(
                    "replica.catchup", t0, time.perf_counter(),
                    min_version=min_version,
                )
        fut = self._service.query_async(q, k=k, trace=trace, **kwargs)
        await self.settled(fut)
        return _query_response(fut.result())

    async def _forward(self, request: dict, trace=None) -> dict:
        if self._primary_addr is None:
            return {
                "error": "read-only worker: writes need --wal-dir (the "
                "primary process applies them)"
            }
        if self._primary_lock is None:
            self._primary_lock = asyncio.Lock()
        t0 = time.perf_counter()
        async with self._primary_lock:
            # A connection the primary closed while idle is replaced
            # before use; once the request is on the wire it is never
            # re-sent, because the primary may already have applied it.
            if self._primary is not None and self._primary.at_eof():
                await self._drop_primary()
            try:
                if self._primary is None:
                    self._primary = await AsyncServeClient.connect(
                        *self._primary_addr
                    )
            except (ConnectionError, OSError) as exc:
                raise ConnectionError(
                    f"cannot reach primary at {self._primary_addr}: {exc}"
                ) from None
            try:
                response = await self._primary.request(request)
            except (ConnectionError, OSError) as exc:
                await self._drop_primary()
                return {
                    "error": f"lost the primary at {self._primary_addr} "
                    f"after sending the write ({exc}); outcome unknown"
                }
            if trace is not None:
                trace.add_span("forward.primary", t0, time.perf_counter())
            # Pull the write home eagerly so even min_version-less
            # follow-up reads usually see it without a tail tick.
            if "error" not in response and self._replica is not None:
                with contextlib.suppress(Exception):
                    await self._in_pool(self._replica.catch_up)
            return response

    async def _drop_primary(self) -> None:
        stale, self._primary = self._primary, None
        if stale is not None:
            with contextlib.suppress(Exception):
                await stale.close()

    insert = delete = _forward  # the primary applies and acknowledges both

    def _stats(self) -> dict:
        stats = self._service.stats()
        if self._replica is not None:
            stats.update(
                {f"replica_{k}": v for k, v in self._replica.stats().items()}
            )
        return stats

    async def aclose(self) -> None:
        if self._tail_task is not None:
            self._tail_task.cancel()
            with contextlib.suppress(BaseException):
                await self._tail_task
            self._tail_task = None
        await self._drop_primary()
        await super().aclose()


class PrimaryBackend(_Backend):
    """Write-only backend for the prefork primary's internal socket.

    Workers forward ``insert``/``delete`` here; a one-thread executor
    serializes them into the :class:`DurableIndex` (log-then-apply,
    fsync per policy) without blocking the loop.  ``seq`` in the
    response is the WAL position the write produced — clients hand it
    back as ``min_version`` for read-your-writes on any worker.
    """

    role = "primary"

    def __init__(self, durable):
        super().__init__(pool_workers=1)
        self._durable = durable
        get_registry().register_collector("primary", self._metric_families)

    @property
    def applied_seq(self) -> int:
        return self._durable.applied_seq

    def _stats(self) -> dict:
        stats = {f"wal_{k}": v for k, v in self._durable.wal_stats().items()}
        tier = getattr(self._durable.inner, "tier_stats", None)
        if callable(tier):
            stats.update({f"tier_{k}": v for k, v in tier().items()})
        return stats

    def _metric_families(self) -> dict:
        from repro.serve.service import families_from_stats

        return families_from_stats(self._stats())

    async def query(self, request: dict, trace=None) -> dict:
        return {"error": "primary serves writes only; query a worker port"}

    def _write(self, fn, trace):
        """Run ``fn`` (on the pool thread) with ``trace`` attached so the
        WAL's append/fsync spans nest under the request."""
        if trace is None:
            return fn()
        tracer = get_tracer()
        with tracer.attach(trace.root), tracer.span("index.write"):
            return fn()

    def _insert(self, vector, trace):
        return self._write(lambda: self._durable.insert(vector), trace)

    def _delete(self, handle, trace):
        self._write(lambda: self._durable.delete(handle), trace)

    def _write_ack(self) -> dict:
        seq = int(self._durable.applied_seq)
        return {"version": seq, "seq": seq}


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------

def _consume_exception(task: asyncio.Task) -> None:
    """Mark a task's exception retrieved (the writer also awaits it)."""
    if not task.cancelled():
        task.exception()


class AsyncANNServer:
    """The JSON-lines request handler: admission control, metrics, drain.

    Protocol handling, per-connection ordering, shedding and latency
    accounting live here, for whatever transport delivers the connection
    (:meth:`start` accepts sockets; :meth:`serve_connection` takes any
    reader/writer pair); what the verbs *do* is delegated to a backend
    (:class:`ServiceBackend` / :class:`ReplicaBackend` /
    :class:`PrimaryBackend`).

    Args:
        backend: a :class:`_Backend`: async ``query``/``insert``/
            ``delete``/``stats`` taking the raw request dict, a plain
            ``query_nowait(request, trace=None)`` returning the
            ``concurrent.futures.Future`` of ``(ids, dists)`` for queries
            it can submit without awaiting (``None`` for the others),
            ``settled(future)`` waiting for one, ``start(loop)`` (called
            by :meth:`start`) and ``aclose()``.
        host / port: listening address (``port=0`` picks one), or pass
            a pre-bound ``sock`` (the prefork workers' SO_REUSEPORT
            sockets come in this way).
        max_inflight: admission bound — requests admitted but not yet
            answered; beyond it new requests get the shed response.
        drain_timeout: after ``begin_drain``, how long existing
            connections may keep the server alive before force-close.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        sock: Optional[socket.socket] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        drain_timeout: float = 10.0,
        name: str = "server",
        tracer: Optional[Tracer] = None,
        obs_spool: Optional[SnapshotSpool] = None,
    ):
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self._backend = backend
        self._host = host
        self._port = port
        self._sock = sock
        self._max_inflight = int(max_inflight)
        self._drain_timeout = float(drain_timeout)
        self.metrics = ServerMetrics()
        self.name = name
        #: request tracer (default: the process-wide one; sample=0 means
        #: the fast path never allocates a trace)
        self.tracer = tracer or get_tracer()
        #: prefork fan-in spool: when set, this server periodically
        #: dumps its registry snapshot and ``metrics`` requests merge
        #: every peer's latest dump
        self._spool = obs_spool
        self._spool_task: Optional[asyncio.Task] = None
        self._inflight = 0
        self._conn_tasks: set = set()
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed: Optional[asyncio.Event] = None
        # Publish this server's request metrics into the unified
        # registry until its drain completes (keyed by role name; the
        # callables are kept so only these registrations are dropped).
        self._collectors = {
            f"server-{self.name}": self.metrics.families,
            f"tracer-{self.name}": self._tracer_families,
        }
        for key, fn in self._collectors.items():
            get_registry().register_collector(key, fn)

    def _tracer_families(self) -> dict:
        stats = self.tracer.stats()
        return {
            "repro_trace_sampled_total": {
                "kind": "counter",
                "help": "requests that carried a sampled trace",
                "samples": [
                    {"labels": {}, "value": stats["sampled_total"]}
                ],
            },
            "repro_trace_slow_total": {
                "kind": "counter",
                "help": "requests that entered the slow-query log",
                "samples": [{"labels": {}, "value": stats["slow_total"]}],
            },
        }

    # -- lifecycle ----------------------------------------------------

    async def start(self, listen: bool = True) -> None:
        """Start the backend on this loop, then accept sockets.

        ``listen=False`` starts everything but the listener, for a
        transport that hands :meth:`serve_connection` its one connection
        itself (``cli serve`` on stdin).  Call once.
        """
        self._closed = asyncio.Event()
        self._backend.start(asyncio.get_running_loop())
        if listen:
            if self._sock is not None:
                where = {"sock": self._sock}
            else:
                where = {"host": self._host, "port": self._port}
            self._server = await asyncio.start_server(
                self.serve_connection, limit=LINE_LIMIT, **where
            )
        if self._spool is not None:
            self._spool_task = asyncio.ensure_future(self._spool_loop())

    async def _spool_loop(self) -> None:
        """Periodically dump this process's snapshot for peer fan-in."""
        while True:
            with contextlib.suppress(Exception):
                self._spool.dump(get_registry().snapshot())
            await asyncio.sleep(1.0)

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    def begin_drain(self) -> None:
        """Stop accepting; let live connections finish, then close.

        Callable from the event-loop thread (signal handlers land
        here).  Idempotent.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        asyncio.ensure_future(self._finish_drain())

    async def _finish_drain(self) -> None:
        if self._server is not None:
            await self._server.wait_closed()
        if self._conn_tasks:
            _, pending = await asyncio.wait(
                set(self._conn_tasks), timeout=self._drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        if self._spool_task is not None:
            self._spool_task.cancel()
            with contextlib.suppress(BaseException):
                await self._spool_task
            # One last dump so peers still see this process's final
            # counters while the file ages out.
            with contextlib.suppress(Exception):
                self._spool.dump(get_registry().snapshot())
        # A drained server's counters must not shadow a live one's.
        for key, fn in self._collectors.items():
            get_registry().unregister_collector(key, fn)
        self._closed.set()

    async def wait_closed(self) -> None:
        """Resolve once a drain has fully completed."""
        await self._closed.wait()

    def server_stats(self) -> dict:
        snap = self.metrics.snapshot()
        snap["inflight"] = self._inflight
        snap["max_inflight"] = self._max_inflight
        snap["draining"] = self._draining
        snap["tracer"] = self.tracer.stats()
        return snap

    # -- observability ops --------------------------------------------

    def _trace_response(self, request: dict) -> dict:
        """Handle ``{"trace": ...}``: recent sampled traces + slow log.

        A positive integer bounds both lists to that many entries;
        anything else (``true``, ``0``, a negative) means everything
        retained.
        """
        arg = request["trace"]
        positive = isinstance(arg, int) and not isinstance(arg, bool) and arg > 0
        n = arg if positive else None
        return {
            "traces": self.tracer.recent(n),
            "slow": self.tracer.slow_log(n),
            "tracer": self.tracer.stats(),
        }

    def _metrics_response(self, request: dict) -> dict:
        """Handle ``{"metrics": ...}``: the merged registry snapshot.

        With a spool (prefork), this worker dumps its own snapshot and
        merges every peer's latest dump, so one scrape on any worker
        covers the whole fleet.  ``{"metrics": "prometheus"}`` returns
        the text exposition under ``"prometheus"``; anything else
        returns the JSON snapshot tree under ``"metrics"``.
        """
        local = get_registry().snapshot()
        if self._spool is not None:
            with contextlib.suppress(Exception):
                self._spool.dump(local)
            snapshots = self._spool.read_all()
            # Peers' files plus our in-memory snapshot; drop our own
            # (possibly stale) file to avoid double counting.
            pid = os.getpid()
            snapshots = [s for s in snapshots if s.get("pid") != pid]
            snapshots.append(local)
        else:
            snapshots = [local]
        merged = merge_snapshots(snapshots)
        if request.get("metrics") == "prometheus":
            return {"prometheus": render_prometheus(merged)}
        return {"metrics": merged}

    # -- connection handling ------------------------------------------

    async def serve_connection(self, reader: asyncio.StreamReader, writer) -> None:
        """Serve one connection until its reader hits EOF.

        Every accepted socket lands here; so may any other transport
        that can dress itself as a ``StreamReader`` plus a writer with
        ``write``/``drain``/``close``/``wait_closed``.
        """
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.metrics.count_connection()
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # drain timeout force-close
        except Exception:
            pass  # one broken connection never kills the server
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(self, reader, writer) -> None:
        out_q: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_loop(writer, out_q))
        try:
            await self._read_loop(reader, out_q)
            out_q.put_nowait(None)
            await writer_task
        except BaseException:
            writer_task.cancel()
            with contextlib.suppress(BaseException):
                await writer_task
            raise

    async def _read_loop(self, reader, out_q: asyncio.Queue) -> None:
        while True:
            try:
                line = await reader.readline()
            except ValueError as exc:  # request line over the limit
                self.metrics.count_bad()
                out_q.put_nowait(("dict", _error_response(exc)))
                return
            if not line:
                return  # client closed
            line = line.strip()
            if not line:
                continue
            try:
                request = decode_line(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                self.metrics.count_bad()
                out_q.put_nowait(("dict", {"error": f"bad request: {exc}"}))
                continue
            if "ping" in request:
                out_q.put_nowait(("dict", {"pong": True}))
                continue
            if "query" in request:
                op = "query"
            elif "insert" in request:
                op = "insert"
            elif "delete" in request:
                op = "delete"
            elif "stats" in request:
                op = "stats"
            elif "trace" in request:
                op = "trace"
            elif "metrics" in request:
                op = "metrics"
            else:
                self.metrics.count_bad()
                out_q.put_nowait(
                    ("dict", {
                        "error": "unknown request (want query/insert/"
                        "delete/stats/trace/metrics)"
                    })
                )
                continue
            # Admission control: past the bound, shed loudly instead of
            # queueing without bound.  The shed response keeps its slot
            # in the per-connection response order.
            over = self._inflight >= self._max_inflight
            if op != "query":
                if over:
                    self._shed(op, out_q)
                    continue
                # Everything but a query defers to the write loop: by the
                # time the loop reaches this item, every earlier request on
                # the connection has answered — the per-connection barrier.
                self._inflight += 1
                out_q.put_nowait(("deferred", op, request))
                continue
            # Submit right here: concurrent queries from every connection
            # meet inside the service's micro-batcher, and this loop does
            # not yield while its buffer holds data — a task would only
            # start once the whole pipelined burst is parsed.
            # start_trace is None unless this request is sampled (and a
            # request past the bound is never traced, as before).
            started = time.perf_counter()
            trace = None if over else self.tracer.start_trace(op, op=op)
            if trace is not None:
                # Root actually began at parse; re-pin its start so
                # child spans can never precede it.
                trace.root.start_s = started
                trace.add_span("admission", started, time.perf_counter())
            response = None
            try:
                pending = self._backend.query_nowait(request, trace=trace)
                if pending is not None and trace is None and pending.done():
                    # The answer is already known (a cache hit): no task,
                    # no admission slot, and never shed — the bound is on
                    # work in flight, and this loop would otherwise count a
                    # whole pipelined burst of hits before the first is
                    # written.
                    response = _query_response(pending.result())
            except Exception as exc:  # refused at submission: bad vector, ...
                response = _error_response(exc)
            if response is not None:
                self._account(op, started, trace, response)
                out_q.put_nowait(("dict", response))
                continue
            if over and (pending is None or pending.cancel()):
                self._shed(op, out_q)
                continue
            # (a submission the executor claimed before cancel() is served)
            self._inflight += 1
            if pending is None:
                pending = asyncio.create_task(
                    self._backend.query(request, trace=trace)
                )
                pending.add_done_callback(_consume_exception)
            out_q.put_nowait(("query", op, pending, started, trace))

    def _shed(self, op: str, out_q: asyncio.Queue) -> None:
        self.metrics.count_shed(op)
        out_q.put_nowait(("dict", dict(SHED_RESPONSE)))

    def _account(self, op: str, started: float, trace, response: dict) -> None:
        """One answered request: close its trace, feed metrics + slow log."""
        elapsed = time.perf_counter() - started
        error = "error" in response
        if trace is not None:
            trace.root.annotate(error=error)
            trace.finish()
        self.metrics.observe(op, elapsed, error=error)
        self.tracer.observe_request(op, elapsed, trace=trace, error=error)

    async def _write_loop(self, writer, out_q: asyncio.Queue) -> None:
        broken = False
        while True:
            item = await out_q.get()
            if item is None:
                return
            if item[0] == "dict":
                response = item[1]
            elif item[0] == "query":
                # ``pending`` is the service's future (submitted by the
                # read loop; the work proceeds whether or not anyone
                # awaits it) or, for backends that had to await first, a
                # task resolving to the finished response.
                _, op, pending, started, trace = item
                try:
                    if isinstance(pending, asyncio.Task):
                        response = await pending
                    else:
                        await self._backend.settled(pending)
                        response = _query_response(pending.result())
                except Exception as exc:
                    response = _error_response(exc)
                except BaseException as exc:
                    # An executor stores whatever the work raised, and that
                    # is this request's failure; anything else was raised
                    # at *this* task — its cancellation — and propagates.
                    stored = pending.done() and not pending.cancelled()
                    if not (stored and pending.exception() is exc):
                        raise
                    response = _error_response(exc)
                self._account(op, started, trace, response)
                self._inflight -= 1
            else:
                _, op, request = item
                started = time.perf_counter()
                trace = None
                try:
                    if op == "insert":
                        trace = self.tracer.start_trace(op, op=op)
                        response = await self._backend.insert(request, trace=trace)
                    elif op == "delete":
                        trace = self.tracer.start_trace(op, op=op)
                        response = await self._backend.delete(request, trace=trace)
                    elif op == "stats":
                        response = await self._backend.stats(request)
                    elif op == "trace":
                        response = self._trace_response(request)
                    else:
                        response = self._metrics_response(request)
                except Exception as exc:
                    response = _error_response(exc)
                if op == "stats" and isinstance(response.get("stats"), dict):
                    response["stats"]["server"] = self.server_stats()
                self._account(op, started, trace, response)
                self._inflight -= 1
            if broken:
                continue  # keep accounting; peer is gone
            try:
                writer.write(encode_line(response))
                await writer.drain()
            except (ConnectionError, OSError):
                broken = True


class ThreadedServer:
    """Run an :class:`AsyncANNServer` on a background thread.

    For tests and embedding: the caller stays synchronous, the server
    gets its own event loop.  ``stop()`` performs a graceful drain.

    >>> with ThreadedServer(ServiceBackend(service)) as ts:
    ...     client = ServeClient("127.0.0.1", ts.port)
    """

    def __init__(self, backend, **server_kwargs):
        self._backend = backend
        self._kwargs = server_kwargs
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self.server: Optional[AsyncANNServer] = None
        self.port: Optional[int] = None

    def start(self) -> "ThreadedServer":
        started = threading.Event()

        def run() -> None:
            async def main() -> None:
                server = AsyncANNServer(self._backend, **self._kwargs)
                await server.start()
                self.server = server
                self.port = server.port
                self._loop = asyncio.get_running_loop()
                started.set()
                await server.wait_closed()
                await self._backend.aclose()

            try:
                asyncio.run(main())
            except BaseException as exc:  # surface to the caller
                self._error = exc
                started.set()

        self._thread = threading.Thread(
            target=run, name="threaded-ann-server", daemon=True
        )
        self._thread.start()
        started.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if self.server is None:
            raise RuntimeError("server did not start within 30s")
        return self

    def drain(self) -> None:
        """Begin a graceful drain without waiting for exit.

        A no-op once an earlier drain has run to completion: the server
        thread then leaves ``asyncio.run`` and closes its loop, possibly
        between any check made here and the call — hence try, not test.
        """
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.begin_drain)
            except RuntimeError:  # "Event loop is closed": already drained
                pass

    def stop(self, timeout: float = 30.0) -> None:
        self.drain()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not stop")

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# CLI driver: single-process and prefork modes
# ----------------------------------------------------------------------

@dataclass
class ServerConfig:
    """Everything ``cli serve`` hands to :func:`run_server`."""

    bundle: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    drain_timeout: float = 10.0
    k: int = 10
    cache_size: int = 1024
    max_batch: int = 64
    mmap: bool = False
    wal_dir: Optional[str] = None
    fsync: str = "always"
    snapshot_every: int = 500
    snapshot_keep: int = 3
    tail_interval_ms: float = 50.0
    #: trace 1 in N requests (0 disables tracing; 1 traces everything)
    trace_sample: int = 0
    #: slow-query threshold (ms): requests at least this slow always
    #: enter the bounded slow-query log, sampled or not
    slow_ms: float = 100.0
    #: where to JSON-lines-dump the slow-query log on drain (optional)
    slow_log_path: Optional[str] = None
    #: shared directory for prefork metric-snapshot fan-in; derived
    #: automatically in prefork mode when unset
    obs_dir: Optional[str] = None


def _configure_obs(config: "ServerConfig") -> Optional[SnapshotSpool]:
    """Apply the config's tracing knobs to the process tracer and open
    the snapshot spool (when fan-in is wanted)."""
    get_tracer().configure(
        sample=config.trace_sample,
        slow_threshold_s=config.slow_ms / 1e3,
    )
    if config.obs_dir:
        return SnapshotSpool(config.obs_dir)
    return None


def _dump_slow_log(config: "ServerConfig") -> None:
    if not config.slow_log_path:
        return
    try:
        n = get_tracer().dump_slow_log(config.slow_log_path)
        _log(f"slow-query log: {n} entries -> {config.slow_log_path}")
    except OSError as exc:  # pragma: no cover - disk full etc.
        _log(f"slow-query log dump failed: {exc}")


def _default_query_kwargs(bundle: str) -> dict:
    from repro.serve.persistence import read_manifest

    manifest = read_manifest(bundle)
    return dict(manifest.get("extra", {}).get("query_kwargs", {}))


def _open_durable(config: ServerConfig):
    """The index of the process that owns writes, behind its WAL.

    Existing WAL state supersedes the bundle payload (which is then
    never loaded): a restart resumes from the acknowledged truth.
    """
    from repro.serve import durability
    from repro.serve.durability.wal import list_segments
    from repro.serve.persistence import load_index

    recovered = os.path.isdir(config.wal_dir) and bool(
        list_segments(config.wal_dir) or durability.list_snapshots(config.wal_dir)
    )
    if recovered:
        index = durability.recover(config.wal_dir, mmap=config.mmap).index
    else:
        index = load_index(config.bundle, mmap=config.mmap)
    snapshots = durability.SnapshotManager(
        config.wal_dir,
        keep=config.snapshot_keep,
        every_ops=config.snapshot_every if config.snapshot_every > 0 else None,
    )
    durable = durability.DurableIndex(
        index, config.wal_dir, fsync=config.fsync, snapshots=snapshots
    )
    if recovered:
        _log(f"recovered WAL state: seq={durable.applied_seq}")
    return durable


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _make_listen_socket(
    host: str, port: int, reuse_port: bool
) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuse_port:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


def _drain_on_signals(server: "AsyncANNServer") -> None:
    """SIGTERM/SIGINT on the running loop begin a graceful drain."""
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(ValueError, NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, server.begin_drain)


def _pin_malloc() -> None:
    """Fix glibc malloc's mmap/trim thresholds: left adaptive, allocation
    history (down to which modules were compiled at import) decides
    whether a query's temporaries are mmapped and unmapped per call, a
    +-20% coin on lone-query throughput.  Other libcs: nothing to pin."""
    import ctypes

    with contextlib.suppress(AttributeError, OSError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def run_server(config: ServerConfig, connect=None) -> int:
    """Blocking driver for ``cli serve``; returns an exit code.

    Listens on ``config.host:port`` — or, given ``connect`` (called on
    the serving loop; returns one ready ``(reader, writer)`` pair, e.g.
    stdin/stdout dressed as a connection), serves just that connection
    and returns when it ends.
    """
    _pin_malloc()  # before any fork: workers inherit it
    if config.workers > 1:
        return _run_prefork(config)
    return _run_single(config, connect)


# -- single process ----------------------------------------------------

def _run_single(config: ServerConfig, connect=None) -> int:
    from repro.serve.persistence import load_index
    from repro.serve.service import ANNService

    default_kwargs = _default_query_kwargs(config.bundle)
    obs_spool = _configure_obs(config)
    durable = None
    if config.wal_dir:
        index = durable = _open_durable(config)
    else:
        index = load_index(config.bundle, mmap=config.mmap)

    service = ANNService(
        index,
        cache_size=config.cache_size,
        max_batch_size=config.max_batch,
    )
    backend = ServiceBackend(
        service,
        default_kwargs=default_kwargs,
        default_k=config.k,
        durable=durable,
    )

    async def main() -> int:
        server = AsyncANNServer(
            backend,
            host=config.host,
            port=config.port,
            max_inflight=config.max_inflight,
            drain_timeout=config.drain_timeout,
            name="single",
            obs_spool=obs_spool,
        )
        await server.start(listen=connect is None)
        if connect is not None:
            await server.serve_connection(*connect())
            server.begin_drain()
            await server.wait_closed()
        else:
            _drain_on_signals(server)
            _log(
                f"listening on {config.host}:{server.port} workers=1 "
                f"max_inflight={config.max_inflight} pid={os.getpid()}"
            )
            await server.wait_closed()
            snap = server.metrics.snapshot()
            _log(
                f"drained: served {snap['requests_total']} requests "
                f"({snap['shed_total']} shed, {snap['errors_total']} errors)"
            )
        await backend.aclose()
        return 0

    try:
        rc = asyncio.run(main())
    finally:
        _dump_slow_log(config)
        service.close()
        if durable is not None:
            durable.close()
            _log(f"WAL at {config.wal_dir}: seq={durable.applied_seq}")
    return rc


# -- prefork -----------------------------------------------------------

def _close_inherited(socks: List[Optional[socket.socket]]) -> None:
    for sock in socks:
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()


def _worker_entry(inherited: List[Optional[socket.socket]], *args) -> None:
    _close_inherited(inherited)
    try:
        asyncio.run(_worker_async(*args))
    except KeyboardInterrupt:  # pragma: no cover - terminal Ctrl-C
        pass


async def _worker_async(
    config: ServerConfig,
    worker_id: int,
    host: str,
    port: int,
    write_port: Optional[int],
    ready,
    shared_sock: Optional[socket.socket],
) -> None:
    from repro.serve.persistence import load_index
    from repro.serve.service import ANNService

    default_kwargs = _default_query_kwargs(config.bundle)
    obs_spool = _configure_obs(config)
    replica = None
    if config.wal_dir:
        from repro.serve.durability import Replica

        # Bootstrap as a log-shipping replica: the primary's baseline
        # snapshot (taken before the fork) plus a log-suffix replay.
        # mmap=True keeps the snapshot's arrays one physical copy
        # shared by every worker on the machine.
        replica = Replica(config.wal_dir, mmap=config.mmap)
        index = replica.index
    else:
        index = load_index(config.bundle, mmap=config.mmap)
    service = ANNService(
        index,
        cache_size=config.cache_size,
        max_batch_size=config.max_batch,
    )
    backend = ReplicaBackend(
        service,
        replica=replica,
        primary_addr=(
            None if write_port is None else ("127.0.0.1", write_port)
        ),
        default_kwargs=default_kwargs,
        default_k=config.k,
        tail_interval_s=config.tail_interval_ms / 1e3,
    )
    sock = shared_sock
    if sock is None:
        sock = _make_listen_socket(host, port, reuse_port=True)
    server = AsyncANNServer(
        backend,
        sock=sock,
        max_inflight=config.max_inflight,
        drain_timeout=config.drain_timeout,
        name=f"worker-{worker_id}",
        obs_spool=obs_spool,
    )
    await server.start()
    _drain_on_signals(server)
    ready.set()
    await server.wait_closed()
    if worker_id == 0:
        # One worker dumps the fleet-local slow log; per-worker files
        # would race over the same path.
        _dump_slow_log(config)
    await backend.aclose()
    service.close()


def _primary_writer_thread(
    write_sock: socket.socket,
    durable,
    stop_event: threading.Event,
    started_event: threading.Event,
    errors: Dict[str, BaseException],
    obs_spool: Optional[SnapshotSpool] = None,
) -> None:
    """The prefork parent's internal write server (its own loop)."""

    async def main() -> None:
        backend = PrimaryBackend(durable)
        server = AsyncANNServer(
            backend,
            sock=write_sock,
            max_inflight=1 << 20,  # workers self-limit; never shed writes
            drain_timeout=5.0,
            name="primary",
            obs_spool=obs_spool,
        )
        await server.start()
        started_event.set()
        while not stop_event.is_set():
            await asyncio.sleep(0.05)
        server.begin_drain()
        await server.wait_closed()
        await backend.aclose()

    try:
        asyncio.run(main())
    except BaseException as exc:  # pragma: no cover - startup failure
        errors["primary"] = exc
        started_event.set()


def _run_prefork(config: ServerConfig) -> int:
    import multiprocessing

    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
        _log("--workers > 1 requires a POSIX platform (fork)")
        return 2
    have_reuseport = hasattr(socket, "SO_REUSEPORT")
    _default_query_kwargs(config.bundle)  # validate the bundle early

    # Pick the shared snapshot-spool directory *before* forking so every
    # worker (and the parent's primary write server) fans into one place.
    if not config.obs_dir:
        if config.wal_dir:
            config.obs_dir = os.path.join(config.wal_dir, "obs")
        else:
            config.obs_dir = tempfile.mkdtemp(prefix="repro-obs-")
    obs_spool = _configure_obs(config)

    host, port = config.host, config.port
    placeholder = None
    shared_sock = None
    if have_reuseport:
        if port == 0:
            # Reserve an ephemeral port all workers can bind: a bound,
            # never-listening SO_REUSEPORT socket holds the number
            # without receiving connections.
            placeholder = _make_listen_socket(host, 0, reuse_port=True)
            port = placeholder.getsockname()[1]
    else:  # pragma: no cover - platforms without SO_REUSEPORT
        # Fall back to one listening socket shared by every forked
        # worker (kernel wakes one accepter per connection).
        shared_sock = _make_listen_socket(host, port, reuse_port=False)
        port = shared_sock.getsockname()[1]

    durable = None
    write_sock = None
    write_port = None
    if config.wal_dir:
        durable = _open_durable(config)
        # The baseline snapshot exists now (DurableIndex takes it when
        # wrapping a fitted index over an empty log), so workers forked
        # below can bootstrap from it.
        write_sock = _make_listen_socket("127.0.0.1", 0, reuse_port=False)
        write_port = write_sock.getsockname()[1]

    ctx = multiprocessing.get_context("fork")
    inherited = [placeholder, write_sock]
    ready_events = [ctx.Event() for _ in range(config.workers)]
    procs = []
    for worker_id in range(config.workers):
        proc = ctx.Process(
            target=_worker_entry,
            args=(
                inherited, config, worker_id, host, port, write_port,
                ready_events[worker_id], shared_sock,
            ),
            name=f"ann-worker-{worker_id}",
        )
        proc.start()
        procs.append(proc)
    if shared_sock is not None:  # pragma: no cover - no-SO_REUSEPORT path
        shared_sock.close()  # workers hold their inherited copies

    def _terminate_all() -> None:
        for proc in procs:
            if proc.is_alive():
                with contextlib.suppress(OSError):
                    proc.terminate()  # SIGTERM -> worker graceful drain

    def _abort(why: str) -> int:
        _log(why)
        _terminate_all()
        for proc in procs:
            proc.join(timeout=10)
        return 1

    # Primary write server (only with a WAL).
    stop_primary = threading.Event()
    primary_errors: Dict[str, BaseException] = {}
    primary_thread = None
    if durable is not None:
        primary_started = threading.Event()
        primary_thread = threading.Thread(
            target=_primary_writer_thread,
            args=(
                write_sock, durable, stop_primary, primary_started,
                primary_errors, obs_spool,
            ),
            name="ann-primary",
            daemon=True,
        )
        primary_thread.start()
        primary_started.wait(timeout=30)
        if "primary" in primary_errors:
            return _abort(
                f"primary write server failed: {primary_errors['primary']}"
            )

    for worker_id, event in enumerate(ready_events):
        if not event.wait(timeout=60):
            return _abort(f"worker {worker_id} failed to start; aborting")
    roles = "replicas" if config.wal_dir else "read-only"
    _log(
        f"listening on {host}:{port} workers={config.workers} ({roles}) "
        f"max_inflight={config.max_inflight} "
        f"pids={[proc.pid for proc in procs]}"
    )

    # Forward SIGTERM/SIGINT to the workers; they drain gracefully and
    # exit, which unblocks the joins below.
    signal.signal(signal.SIGTERM, lambda *_: _terminate_all())
    signal.signal(signal.SIGINT, lambda *_: _terminate_all())

    rc = 0
    try:
        for proc in procs:
            proc.join()
            if proc.exitcode not in (0, -signal.SIGTERM):
                rc = 1
                _log(f"worker {proc.name} exited with {proc.exitcode}")
    except KeyboardInterrupt:  # pragma: no cover - terminal Ctrl-C
        _terminate_all()
        for proc in procs:
            proc.join(timeout=config.drain_timeout + 5)
    finally:
        stop_primary.set()
        if primary_thread is not None:
            primary_thread.join(timeout=15)
        if durable is not None:
            durable.close()
            _log(f"WAL at {config.wal_dir}: seq={durable.applied_seq}")
        _close_inherited([placeholder, write_sock])
    _log("all workers drained")
    return rc
