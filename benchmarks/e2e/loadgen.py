"""Load generator: one asyncio process, pipelined JSON-lines connections.

The server answers in request order per connection, so a connection is a
FIFO: :class:`Pipe` keeps the requests it has written in a deque and
matches each reply line to the oldest one.  Two drivers sit on top:

* :func:`closed_loop` keeps ``window`` requests outstanding per
  connection and sends the next one only when a reply arrives (callers
  that wait for their answer; a slow server receives less load);
* :func:`open_loop` sends on a precomputed arrival schedule whatever the
  server does (independent users; the queue can grow).  Latency is timed
  from the moment a request was *due*, so a stall charges every request
  that had to wait behind it — no coordinated omission.

Replies are kept as raw bytes and checked after the timed window, which
keeps the generator's own CPU out of the measurement.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from time import perf_counter
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np


#: an open-loop sender busy-waits this long before each due time
_SPIN_S = 0.002
#: a control request, or the tail of an open-loop slice, unanswered for this long is lost
_REPLY_TIMEOUT_S = 30.0
#: a closed loop that has not drained this long after it started is given up
_CLOSED_TIMEOUT_S = 120.0

#: the mixed read/write schedule: shares of a connection's ops, and every
#: how-many-th query re-queries one of the connection's own inserts
INSERT_SHARE = 0.25
DELETE_SHARE = 0.05
PROBE_EVERY = 7


class Req:
    """One request and the client's record of what happened to it."""

    __slots__ = ("kind", "key", "line", "due", "sent", "done", "parsed", "reply")

    def __init__(self, kind: str, key, line: bytes):
        self.kind = kind          # "q" pool query, "p" probe, "i" insert, "d" delete, "c" control
        self.key = key            # pool index / insert ordinal
        self.line = line
        self.due = 0.0            # when it should have been sent
        self.sent = 0.0
        self.done: Optional[float] = None     # reply received (None: never answered)
        self.parsed: Optional[float] = None   # reply decoded (traced pass only)
        self.reply: Optional[bytes] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class Pipe(asyncio.Protocol):
    """One pipelined connection; replies matched to requests FIFO."""

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.inflight: Deque[Req] = deque()
        self.max_inflight = 0
        self.on_reply: Optional[Callable[[Req], None]] = None
        self.on_lost: Optional[Callable[[], None]] = None
        self.lost = False
        #: traced pass: decode each reply as it arrives and stamp ``parsed``
        self.parse_inline = False
        self._buf = b""

    def connection_made(self, transport) -> None:
        self.transport = transport

    def send(self, req: Req) -> None:
        req.sent = perf_counter()
        self.inflight.append(req)
        if len(self.inflight) > self.max_inflight:
            self.max_inflight = len(self.inflight)
        self.transport.write(req.line)

    def data_received(self, data: bytes) -> None:
        now = perf_counter()
        if self._buf:
            data = self._buf + data
        lines = data.split(b"\n")
        self._buf = lines.pop()
        for line in lines:
            req = self.inflight.popleft()
            req.done = now
            req.reply = line
            if self.parse_inline:
                json.loads(line)
                req.parsed = perf_counter()
            if self.on_reply is not None:
                self.on_reply(req)

    def connection_lost(self, exc) -> None:
        self.lost = True
        if self.on_lost is not None:
            self.on_lost()

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


async def open_pipe(host: str, port: int) -> Pipe:
    loop = asyncio.get_running_loop()
    _, pipe = await loop.create_connection(Pipe, host, port)
    return pipe


async def rpc(pipe: Pipe, request: dict) -> dict:
    """One control request (stats, ping) on an otherwise idle pipe."""
    loop = asyncio.get_running_loop()
    fut = loop.create_future()
    previous = pipe.on_reply
    pipe.on_reply = lambda req: fut.done() or fut.set_result(req)
    try:
        pipe.send(Req("c", None, json.dumps(request).encode() + b"\n"))
        req = await asyncio.wait_for(fut, _REPLY_TIMEOUT_S)
    finally:
        pipe.on_reply = previous
    return json.loads(req.reply)


# ----------------------------------------------------------------------
# Request sources for the closed loop
# ----------------------------------------------------------------------

class CyclicSource:
    """Pool queries in order, ``start, start+step, ...``, wrapping around.

    The cursor persists across slices, so successive slices continue
    through the pool instead of replaying its head.
    """

    def __init__(self, lines: Sequence[bytes], start: int, step: int):
        self._lines = lines
        self._cursor = start
        self._step = step

    def next(self) -> Optional[Req]:
        key = self._cursor % len(self._lines)
        self._cursor += self._step
        return Req("q", key, self._lines[key])

    def on_reply(self, req: Req) -> None:
        pass


class ListSource:
    """A finite list of prepared requests."""

    def __init__(self, reqs):
        self._reqs = iter(reqs)

    def next(self) -> Optional[Req]:
        return next(self._reqs, None)

    def on_reply(self, req: Req) -> None:
        pass


class _ClosedLoop:
    """Closed-loop driver of one pipe: at most ``window`` outstanding."""

    def __init__(self, pipe, source, window, deadline, log, on_idle):
        self.pipe = pipe
        self.source = source
        self.window = window
        self.deadline = deadline
        self.log = log
        self.on_idle = on_idle
        self.stopped = False
        pipe.on_reply = self._on_reply
        pipe.on_lost = self._on_lost

    def pump(self) -> None:
        pipe = self.pipe
        while not self.stopped and len(pipe.inflight) < self.window:
            if self.deadline is not None and perf_counter() >= self.deadline:
                self.stopped = True
                break
            req = self.source.next()
            if req is None:
                self.stopped = True
                break
            pipe.send(req)
            req.due = req.sent
        if self.stopped and not pipe.inflight:
            self._idle()

    def _on_reply(self, req: Req) -> None:
        self.log.append(req)
        self.source.on_reply(req)
        self.pump()

    def _on_lost(self) -> None:
        self.stopped = True
        self.log.extend(self.pipe.inflight)   # never answered: done stays None
        self.pipe.inflight.clear()
        self._idle()

    def _idle(self) -> None:
        if self.on_idle is not None:
            on_idle, self.on_idle = self.on_idle, None
            on_idle()


async def closed_loop(
    pipes: Sequence[Pipe],
    sources: Sequence,
    window: int,
    deadline: Optional[float] = None,
) -> List[Req]:
    """Drive every pipe closed-loop until ``deadline`` (or the sources end).

    Returns every request sent, in completion order; requests that never
    got a reply (connection lost, timeout) have ``done is None``.
    """
    loop = asyncio.get_running_loop()
    finished = loop.create_future()
    log: List[Req] = []
    remaining = [len(pipes)]

    def one_idle() -> None:
        remaining[0] -= 1
        if remaining[0] == 0 and not finished.done():
            finished.set_result(None)

    drivers = [
        _ClosedLoop(pipe, source, window, deadline, log, one_idle)
        for pipe, source in zip(pipes, sources)
    ]
    for driver in drivers:
        driver.pump()
    try:
        await asyncio.wait_for(finished, _CLOSED_TIMEOUT_S)
    except asyncio.TimeoutError:
        for driver in drivers:
            driver.stopped = True
            log.extend(driver.pipe.inflight)
    finally:
        for pipe in pipes:
            pipe.on_reply = pipe.on_lost = None
    return log


async def open_loop(
    pipes: Sequence[Pipe],
    arrivals: Sequence[Tuple[float, int]],
    lines: Sequence[bytes],
    backlog_marks: Optional[List[int]] = None,
) -> Tuple[List[Req], float]:
    """Send ``(offset_s, key)`` arrivals on schedule; returns (log, t0).

    Arrivals alternate over the pipes.  ``backlog_marks`` (if given)
    receives the number of unanswered requests at each send, which is
    what :func:`backlog_growth` summarises.
    """
    loop = asyncio.get_running_loop()
    finished = loop.create_future()
    log: List[Req] = []
    sending = [True]

    def check_idle() -> None:
        if not sending[0] and not finished.done() and not any(
            pipe.inflight for pipe in pipes if not pipe.lost
        ):
            finished.set_result(None)

    def on_reply(req: Req) -> None:
        log.append(req)
        check_idle()

    for pipe in pipes:
        pipe.on_reply = on_reply
        pipe.on_lost = check_idle
    t0 = perf_counter() + 0.02
    try:
        for i, (offset, key) in enumerate(arrivals):
            due = t0 + offset
            # The event loop's timers are a millisecond coarse: sleep to
            # just before the due time, then spin through the loop (which
            # keeps reading replies) for the rest.  Always yields at least
            # once per arrival, also when the sender is behind schedule.
            while True:
                delay = due - perf_counter()
                await asyncio.sleep(delay - _SPIN_S if delay > _SPIN_S else 0)
                if delay <= _SPIN_S and due <= perf_counter():
                    break
            req = Req("q", key, lines[key])
            req.due = due
            pipe = pipes[i % len(pipes)]
            if backlog_marks is not None:
                backlog_marks.append(sum(len(p.inflight) for p in pipes))
            pipe.send(req)
        sending[0] = False
        check_idle()
        await asyncio.wait_for(finished, _REPLY_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    finally:
        for pipe in pipes:
            log.extend(pipe.inflight)      # unanswered: done stays None
            pipe.inflight.clear()
            pipe.on_reply = pipe.on_lost = None
    return log, t0


def backlog_growth(marks: Sequence[int]) -> float:
    """Mean outstanding count in the last quarter minus the first quarter,
    per request sent: ~0 when the server keeps up, positive when a queue builds."""
    if len(marks) < 8:
        return 0.0
    quarter = len(marks) // 4
    head = sum(marks[:quarter]) / quarter
    tail = sum(marks[-quarter:]) / quarter
    return (tail - head) / len(marks)


# ----------------------------------------------------------------------
# Seeded schedules
# ----------------------------------------------------------------------

def poisson_arrivals(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process of ``rate``/s over ``duration``."""
    count = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return offsets[offsets < duration]


def zipf_keys(rng: np.random.Generator, n_keys: int, size: int, s: float = 1.1) -> np.ndarray:
    """``size`` keys in ``[0, n_keys)`` with P(key = r) proportional to (r+1)^-s."""
    weights = np.arange(1, n_keys + 1, dtype=np.float64) ** -s
    return rng.choice(n_keys, size=size, p=weights / weights.sum())


Op = Tuple[str, int]   # (kind, pool index | insert ordinal)


def op_schedule(
    rng: np.random.Generator,
    n_ops: int,
    n_conns: int,
    window: int,
    n_query_keys: int,
) -> List[List[Op]]:
    """The fixed mixed read/write schedule, one op list per connection.

    Exactly ``INSERT_SHARE`` of each connection's ops are inserts (so seal
    and compaction counts repeat exactly), ``DELETE_SHARE`` are deletes of
    the connection's *own* earlier inserts, and the rest are queries, of
    which every ``PROBE_EVERY``-th (when a target exists) re-queries one of
    the connection's own inserted vectors.  A delete or probe only targets
    an insert at least ``window`` positions earlier: in a closed loop with
    ``window`` outstanding that insert has been acknowledged before the
    dependent op is sent, so its handle is known and read-your-writes
    must hold.  Insert ordinals are global and unique.
    """
    per_conn = n_ops // n_conns
    n_ins = int(round(per_conn * INSERT_SHARE))
    n_del = int(round(per_conn * DELETE_SHARE))
    schedules: List[List[Op]] = []
    ordinal = 0
    for _ in range(n_conns):
        kinds = ["i"] * n_ins + ["d"] * n_del + ["q"] * (per_conn - n_ins - n_del)
        rng.shuffle(kinds)
        ops: List[Op] = []
        inserted: List[Tuple[int, int]] = []      # (position, ordinal), still live
        deleted: List[Tuple[int, int]] = []       # (delete position, ordinal)
        owed = 0                                  # deletes waiting for a target
        queries = 0
        for pos, kind in enumerate(kinds):
            ripe = [item for item in inserted if item[0] <= pos - window]
            if kind == "i":
                ops.append(("i", ordinal))
                inserted.append((pos, ordinal))
                ordinal += 1
                continue
            if kind == "d":
                owed += 1
            if owed and ripe:
                target = ripe[int(rng.integers(len(ripe)))]
                inserted.remove(target)
                deleted.append((pos, target[1]))
                ops.append(("d", target[1]))
                owed -= 1
                continue
            queries += 1
            settled = [o for p, o in deleted if p <= pos - window]
            targets = [o for _, o in ripe] + settled
            if queries % PROBE_EVERY == 0 and targets:
                ops.append(("p", targets[int(rng.integers(len(targets)))]))
            else:
                ops.append(("q", int(rng.integers(n_query_keys))))
        schedules.append(ops)
    return schedules
