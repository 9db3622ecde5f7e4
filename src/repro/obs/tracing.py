"""Per-request tracing: spans, propagation tokens, sampling, slow log.

One *trace* is the story of one request: a tree of *spans*, each a
named ``[start, end]`` interval with attributes.  The serve stack hops
threads (asyncio loop -> micro-batch executor -> WAL thread pool) and
processes (prefork workers), so the API offers both an implicit
thread-local "current span" (cheap nesting within one thread) and an
explicit propagation token — a :class:`Span` is its own token: carry it
across a thread hop and :meth:`Tracer.attach` it on the other side.

Overhead discipline
-------------------

Tracing must cost ~nothing on the hot path when a request is not
sampled.  The contract:

* :meth:`Tracer.start_trace` returns ``None`` unless the 1-in-N
  sampling counter fires — the caller keeps its own wall-clock timing
  (it already does, for metrics) and passes it to
  :meth:`Tracer.observe_request` at the end.
* :func:`span` / :meth:`Tracer.span` are no-ops (a shared, reusable
  null context manager) whenever no sampled span is active on the
  current thread, so instrumented layers (WAL, LSM) can call them
  unconditionally.
* The **slow-query log is always on**: ``observe_request`` compares one
  float against the threshold; only genuinely slow requests pay for an
  entry.  A slow *sampled* request carries its full span tree into the
  log; a slow unsampled one still records ``(op, duration)``.

The :meth:`Tracer.on_span` callback hook fires for every finished span
of a sampled trace — the substrate ROADMAP item 4's history
recorder/consistency checker subscribes to (a recorded client history
is exactly the stream of request root spans).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "get_tracer",
    "span",
    "render_trace",
]

_ids = itertools.count(1)
# The pid prefix is cached (os.getpid() is a syscall, ids are minted on
# every span) and refreshed in forked children so prefork workers mint
# globally unique ids.
_id_prefix = f"{os.getpid():x}-"


def _refresh_id_prefix() -> None:
    global _id_prefix
    _id_prefix = f"{os.getpid():x}-"


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_refresh_id_prefix)


def _next_id() -> str:
    return "%s%x" % (_id_prefix, next(_ids))


class Span:
    """One named interval inside a trace.

    A Span doubles as the **propagation token**: pass it to another
    thread and open child spans under it with ``tracer.attach(span)``
    or ``tracer.span(name, parent=span)``.
    """

    __slots__ = (
        "trace", "name", "span_id", "parent_id", "start_s", "end_s", "attrs",
    )

    def __init__(
        self,
        trace: "Trace",
        name: str,
        parent_id: Optional[str],
        start_s: Optional[float] = None,
        attrs: Optional[dict] = None,
    ):
        self.trace = trace
        self.name = name
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.start_s = time.perf_counter() if start_s is None else start_s
        self.end_s: Optional[float] = None
        self.attrs: dict = attrs or {}

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def annotate(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, end_s: Optional[float] = None) -> "Span":
        if self.end_s is None:
            self.end_s = time.perf_counter() if end_s is None else end_s
            trace = self.trace
            if trace is not None:  # None after the owning trace finished
                trace._finished(self)
        return self

    def to_dict(self) -> dict:
        trace = self.trace
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": trace.trace_id if trace is not None else None,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dur = self.duration_s
        dur_txt = "open" if dur is None else f"{dur * 1e3:.3f}ms"
        return f"Span({self.name!r}, {dur_txt})"


class Trace:
    """One request's span tree.  Created via :meth:`Tracer.start_trace`."""

    __slots__ = ("tracer", "trace_id", "root", "spans", "_lock", "_payload")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._payload: Optional[dict] = None
        self.root = Span(self, name, parent_id=None, attrs=attrs)
        # the root span *is* the trace: share its id
        self.trace_id = self.root.span_id

    def _finished(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)
        for cb in self.tracer._on_span:
            try:
                cb(span)
            except Exception:  # a broken subscriber never breaks serving
                pass

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        """Record an already-measured interval as a finished span.

        Used for timings captured outside the tracing machinery — e.g.
        the micro-batcher grafting per-stage kernel timings (measured by
        the index itself) under a request's batch span.
        """
        sp = Span(
            self, name,
            parent_id=(parent or self.root).span_id,
            start_s=start_s, attrs=attrs,
        )
        sp.finish(end_s)
        self._payload = None  # grafted after finish: rebuild on demand
        return sp

    def finish(self, end_s: Optional[float] = None) -> "Trace":
        """Finish the root span and hand the trace to the tracer."""
        if self.root.end_s is None:
            self.root.finish(end_s)
            self._payload = self.to_dict()
            self.tracer._completed(self)
            # span.trace <-> trace.spans is a reference cycle: drop the
            # back-references so finished traces die by refcount instead
            # of lingering for the cyclic GC (measurable pressure at
            # high QPS).  The payload above is cached, so to_dict()
            # keeps working.
            with self._lock:
                spans = list(self.spans)
            for sp in spans:
                sp.trace = None
        return self

    @property
    def duration_s(self) -> Optional[float]:
        return self.root.duration_s

    def to_dict(self) -> dict:
        if self._payload is not None:
            return self._payload
        with self._lock:
            spans = list(self.spans)
        if self.root.end_s is None and self.root not in spans:
            spans = spans + [self.root]
        spans.sort(key=lambda s: s.start_s)
        payloads = [s.to_dict() for s in spans]
        for p in payloads:  # spans detached post-finish lose the back-ref
            p["trace_id"] = self.trace_id
        return {
            "trace_id": self.trace_id,
            "name": self.root.name,
            "duration_s": self.duration_s,
            "spans": payloads,
        }


class _NullSpan:
    """Reusable no-op context manager for the unsampled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def finish(self, end_s=None) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that finishes a real span and pops thread-local."""

    __slots__ = ("_tracer", "_span", "_prev")

    def __init__(self, tracer: "Tracer", span: Span, prev):
        self._tracer = tracer
        self._span = span
        self._prev = prev

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._span.finish()
        self._tracer._tls.current = self._prev

    def annotate(self, **attrs) -> "_ActiveSpan":
        self._span.annotate(**attrs)
        return self


class _Attach:
    """Context manager making ``token`` the current span on this thread."""

    __slots__ = ("_tracer", "_token", "_prev")

    def __init__(self, tracer: "Tracer", token: Optional[Span]):
        self._tracer = tracer
        self._token = token
        self._prev = None

    def __enter__(self) -> Optional[Span]:
        self._prev = getattr(self._tracer._tls, "current", None)
        self._tracer._tls.current = self._token
        return self._token

    def __exit__(self, *exc) -> None:
        self._tracer._tls.current = self._prev


class Tracer:
    """Sampling tracer + bounded slow-query log + recent-trace ring.

    Args:
        sample: trace 1 in every ``sample`` requests (``0`` disables
            tracing entirely; ``1`` traces everything).
        slow_threshold_s: requests at least this slow always land in the
            slow-query log, sampled or not.
        slow_log_size: how many slowest requests to retain (top-N by
            duration).
        recent_size: how many completed sampled traces the in-memory
            ring keeps for the ``trace`` protocol op.
    """

    def __init__(
        self,
        sample: int = 0,
        slow_threshold_s: float = 0.1,
        slow_log_size: int = 32,
        recent_size: int = 64,
    ):
        self.configure(
            sample=sample,
            slow_threshold_s=slow_threshold_s,
            slow_log_size=slow_log_size,
            recent_size=recent_size,
        )
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._recent: List[dict] = []
        self._slow: List[dict] = []
        self._sampled_total = 0
        self._slow_total = 0
        self._on_span: List[Callable[[Span], None]] = []
        self._on_trace: List[Callable[[Trace], None]] = []

    # -- configuration -------------------------------------------------

    def configure(
        self,
        sample: Optional[int] = None,
        slow_threshold_s: Optional[float] = None,
        slow_log_size: Optional[int] = None,
        recent_size: Optional[int] = None,
    ) -> "Tracer":
        if sample is not None:
            if sample < 0:
                raise ValueError("sample must be >= 0 (0 disables tracing)")
            self.sample = int(sample)
            # countdown sampler: 0 means disabled, 1 means "next request
            # is traced"; decrement-and-test beats increment+modulo on
            # the per-request fast path
            self._countdown = self.sample
        if slow_threshold_s is not None:
            self.slow_threshold_s = float(slow_threshold_s)
        if slow_log_size is not None:
            self.slow_log_size = max(1, int(slow_log_size))
        if recent_size is not None:
            self.recent_size = max(1, int(recent_size))
        return self

    # -- recorder hooks ------------------------------------------------

    def on_span(self, callback: Callable[[Span], None]) -> None:
        """Subscribe to every finished span of sampled traces.

        This is the history-recorder hook: a consistency checker (see
        ROADMAP item 4) receives each request's spans as they complete
        and can reconstruct the concurrent client history offline.
        """
        self._on_span.append(callback)

    def on_trace(self, callback: Callable[[Trace], None]) -> None:
        """Subscribe to completed sampled traces."""
        self._on_trace.append(callback)

    def remove_on_span(self, callback) -> None:
        if callback in self._on_span:
            self._on_span.remove(callback)

    def remove_on_trace(self, callback) -> None:
        if callback in self._on_trace:
            self._on_trace.remove(callback)

    # -- trace lifecycle -----------------------------------------------

    def start_trace(self, name: str, **attrs) -> Optional[Trace]:
        """A new sampled :class:`Trace`, or ``None`` (not sampled).

        The 1-in-N countdown is intentionally racy-tolerant (no lock):
        under the GIL decrements are close enough to exact, and a
        slightly off sampling phase is harmless.
        """
        n = self._countdown
        if n != 1:  # 0 = disabled, >1 = not this request's turn
            if n > 1:
                self._countdown = n - 1
            return None
        self._countdown = self.sample
        return Trace(self, name, attrs)

    def attach(self, token: Optional[Span]) -> _Attach:
        """Make ``token`` the current span for the enclosed block.

        The cross-thread half of propagation: the thread that owns the
        request passes the span; the worker thread attaches it so
        nested :meth:`span` calls land in the right tree.  ``None`` is
        accepted (and attaches nothing) so call sites stay branch-free.
        """
        return _Attach(self, token)

    def current(self) -> Optional[Span]:
        return getattr(self._tls, "current", None)

    def span(self, name: str, parent: Optional[Span] = None, **attrs):
        """Open a child span under ``parent`` or the thread's current
        span; a shared no-op when neither exists (the fast path)."""
        if parent is None:
            parent = getattr(self._tls, "current", None)
            if parent is None:
                return _NULL_SPAN
        sp = Span(parent.trace, name, parent_id=parent.span_id, attrs=attrs)
        prev = getattr(self._tls, "current", None)
        self._tls.current = sp
        return _ActiveSpan(self, sp, prev)

    def _completed(self, trace: Trace) -> None:
        payload = trace.to_dict()
        with self._lock:
            self._sampled_total += 1
            self._recent.append(payload)
            if len(self._recent) > self.recent_size:
                del self._recent[: len(self._recent) - self.recent_size]
        for cb in self._on_trace:
            try:
                cb(trace)
            except Exception:
                pass

    # -- request accounting / slow log ---------------------------------

    def observe_request(
        self,
        op: str,
        duration_s: float,
        trace: Optional[Trace] = None,
        error: bool = False,
    ) -> None:
        """Feed one finished request into the always-on slow-query log.

        Cheap by design: one comparison unless the request was slow.
        ``trace`` (if the request was sampled) rides into the log entry
        so "why was this slow" has the span tree attached.
        """
        if duration_s < self.slow_threshold_s:
            return
        entry = {
            "op": op,
            "duration_s": float(duration_s),
            "ts": time.time(),
            "error": bool(error),
        }
        if trace is not None:
            entry["trace"] = trace.to_dict()
        with self._lock:
            self._slow_total += 1
            self._slow.append(entry)
            # Top-N by duration: sort-and-trim is fine at these sizes
            # (the log only grows on requests already >= threshold).
            if len(self._slow) > self.slow_log_size:
                self._slow.sort(key=lambda e: e["duration_s"], reverse=True)
                del self._slow[self.slow_log_size:]

    # -- inspection ----------------------------------------------------

    def recent(self, n: Optional[int] = None) -> List[dict]:
        """The ``n`` most recently completed sampled traces (``None``:
        all retained), newest last.  ``n`` must be positive: ``out[-0:]``
        would be everything."""
        if n is not None and n <= 0:
            raise ValueError(f"n must be positive, got {n!r}")
        with self._lock:
            out = list(self._recent)
        return out if n is None else out[-n:]

    def slow_log(self, n: Optional[int] = None) -> List[dict]:
        """The ``n`` slowest retained requests (``None``: all retained),
        slowest first.  ``n`` must be positive: ``out[:-1]`` would drop the
        wrong end."""
        if n is not None and n <= 0:
            raise ValueError(f"n must be positive, got {n!r}")
        with self._lock:
            out = sorted(
                self._slow, key=lambda e: e["duration_s"], reverse=True
            )
        return out if n is None else out[:n]

    def dump_slow_log(self, path: str) -> int:
        """Write the slow-query log as JSON-lines; returns entry count."""
        entries = self.slow_log()
        with open(path, "w", encoding="utf-8") as f:
            for entry in entries:
                f.write(json.dumps(entry) + "\n")
        return len(entries)

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "sample": float(self.sample),
                "slow_threshold_s": float(self.slow_threshold_s),
                "sampled_total": float(self._sampled_total),
                "slow_total": float(self._slow_total),
                "recent": float(len(self._recent)),
                "slow_retained": float(len(self._slow)),
            }

    def reset(self) -> None:
        """Drop retained traces and counters (tests / live reconfig)."""
        with self._lock:
            self._recent.clear()
            self._slow.clear()
            self._sampled_total = 0
            self._slow_total = 0


#: process-wide default tracer; disabled until configured (sample=0)
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


def span(name: str, **attrs):
    """Module-level child-span helper on the default tracer.

    Instrumented layers (WAL append/fsync, LSM compaction) call this
    unconditionally; it is a shared no-op unless a sampled span is
    active on the current thread.
    """
    return TRACER.span(name, **attrs)


def render_trace(payload: dict, width: int = 72) -> str:
    """ASCII span tree for one ``Trace.to_dict()`` payload.

    Indentation follows parentage; each line shows the span name, its
    offset from the root start, and its duration.
    """
    spans = payload.get("spans", [])
    if not spans:
        return f"trace {payload.get('trace_id')} (no spans)"
    by_parent: Dict[Optional[str], List[dict]] = {}
    by_id = {s["span_id"]: s for s in spans}
    for s in spans:
        parent = s["parent_id"]
        if parent is not None and parent not in by_id:
            parent = None  # orphan: show at the root level
        by_parent.setdefault(parent, []).append(s)
    for children in by_parent.values():
        children.sort(key=lambda s: s["start_s"])
    roots = by_parent.get(None, [])
    t0 = min(s["start_s"] for s in spans)
    lines = [
        f"trace {payload['trace_id']} "
        f"({(payload.get('duration_s') or 0.0) * 1e3:.3f} ms)"
    ]

    def emit(s: dict, depth: int) -> None:
        dur = s.get("duration_s")
        dur_txt = "open" if dur is None else f"{dur * 1e3:.3f} ms"
        offset = (s["start_s"] - t0) * 1e3
        attrs = s.get("attrs") or {}
        attr_txt = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            if attrs
            else ""
        )
        name = ("  " * depth) + s["name"]
        lines.append(f"{name:<{width - 28}} +{offset:8.3f} ms {dur_txt:>12}{attr_txt}")
        for child in by_parent.get(s["span_id"], []):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)
