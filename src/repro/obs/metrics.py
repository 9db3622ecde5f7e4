"""Unified metrics plane: histograms, counters, gauges, one registry.

This module is the metrics half of :mod:`repro.obs`.  It hosts the
latency histogram and per-op server metrics that previously lived in
``repro.serve.metrics`` (which now re-exports them for back-compat),
plus a process-wide :class:`MetricsRegistry` that every serving layer
publishes into:

* the TCP server registers its :class:`ServerMetrics` (requests,
  errors, sheds, per-op latency),
* :class:`~repro.serve.service.ANNService` registers a collector
  mapping its ``stats()`` (cache, micro-batcher, index, LSM tier, WAL
  counters) onto well-named families,
* :class:`~repro.serve.concurrency.ConcurrentIndex` records lock-wait
  latency histograms,
* the LSM index and the WAL contribute compaction / fsync timings.

``registry.snapshot()`` returns one JSON-safe tree; rendering it as
Prometheus text and merging snapshots across prefork workers live in
:mod:`repro.obs.export`.

Histogram shape
---------------

:class:`LatencyHistogram` uses a fixed set of geometrically spaced
buckets (1 µs .. ~100 s, 25 % growth per bucket), the classic shape
used by serving systems (HdrHistogram, Prometheus) because it keeps
quantile error bounded (< ~12.5 %, half the bucket ratio) with O(1)
record cost and a few hundred bytes of state.  Percentiles are
interpolated inside the covering bucket, and exact ``min``/``max``/
``sum`` are kept on the side so the tails and the mean are not
quantised.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LatencyHistogram",
    "ServerMetrics",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "get_registry",
    "bucket_upper_bounds",
]

#: smallest bucketed latency (seconds); everything below lands in bucket 0
_BASE_S = 1e-6
#: geometric growth per bucket — 25 % keeps quantile error under ~12.5 %
_GROWTH = 1.25
#: bucket count: covers 1 µs .. ~100 s (log(1e8) / log(1.25) ≈ 83)
_BUCKETS = 84
_LOG_GROWTH = math.log(_GROWTH)

#: documented relative quantile-error bound: half the bucket growth
#: ratio (pinned by tests/test_metrics_properties.py)
QUANTILE_ERROR_BOUND = (_GROWTH - 1.0) / 2.0


def _bucket_index(seconds: float) -> int:
    if seconds <= _BASE_S:
        return 0
    idx = int(math.log(seconds / _BASE_S) / _LOG_GROWTH) + 1
    return min(idx, _BUCKETS - 1)


def _bucket_upper_s(idx: int) -> float:
    """Upper latency bound (seconds) of bucket ``idx``."""
    return _BASE_S * _GROWTH**idx


def bucket_upper_bounds() -> List[float]:
    """Upper bound (seconds) of every bucket, for Prometheus ``le=``."""
    return [_bucket_upper_s(i) for i in range(_BUCKETS)]


class LatencyHistogram:
    """Fixed-size log-bucketed latency histogram with exact extremes.

    ``record`` is O(1); ``percentile`` walks the (84-entry) bucket
    array.  All methods are thread-safe.
    """

    def __init__(self) -> None:
        self._counts: List[int] = [0] * _BUCKETS
        self._n = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        with self._lock:
            self._record_locked(seconds)

    def _record_locked(self, seconds: float) -> None:
        """Record without taking the lock (caller holds it, or holds an
        enclosing lock that already serializes every mutator)."""
        self._counts[_bucket_index(seconds)] += 1
        self._n += 1
        self._sum += seconds
        self._min = min(self._min, seconds)
        self._max = max(self._max, seconds)

    @property
    def count(self) -> int:
        return self._n

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram (for fan-in).

        Merging a histogram into **itself** is a no-op: the fan-in loops
        this method serves ("merge every worker's histogram into the
        first") naturally revisit the accumulator, and the old behaviour
        — doubling the counts while leaving ``min``/``max`` untouched —
        silently corrupted the totals.  Both locks are taken in a
        deterministic global order (by object id), so two histograms
        concurrently merged into each other from two threads cannot
        deadlock on the crossed acquisition.
        """
        if other is self:
            return
        first, second = (
            (self, other) if id(self) < id(other) else (other, self)
        )
        with first._lock:
            with second._lock:
                for i, c in enumerate(other._counts):
                    self._counts[i] += c
                self._n += other._n
                self._sum += other._sum
                self._min = min(self._min, other._min)
                self._max = max(self._max, other._max)

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile latency in seconds (None if empty).

        Linear interpolation inside the covering bucket; clamped to the
        exact observed ``min``/``max`` so tails are never invented.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("p must be in [0, 100]")
        with self._lock:
            if self._n == 0:
                return None
            rank = p / 100.0 * self._n
            seen = 0
            for idx, c in enumerate(self._counts):
                if c == 0:
                    continue
                if seen + c >= rank:
                    lower = _bucket_upper_s(idx - 1) if idx > 0 else 0.0
                    upper = _bucket_upper_s(idx)
                    frac = (rank - seen) / c
                    est = lower + frac * (upper - lower)
                    return min(max(est, self._min), self._max)
                seen += c
            return self._max  # pragma: no cover - rounding safety net

    def state(self) -> dict:
        """Raw mergeable state: bucket counts plus exact extremes.

        This is what registry snapshots carry, so fan-in across prefork
        workers merges full distributions (not just pre-computed
        percentiles, which do not compose).
        """
        with self._lock:
            return {
                "buckets": list(self._counts),
                "count": self._n,
                "sum": self._sum,
                "min": None if self._n == 0 else self._min,
                "max": None if self._n == 0 else self._max,
            }

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`state` dict (e.g. from another process) in."""
        with self._lock:
            for i, c in enumerate(state["buckets"][:_BUCKETS]):
                self._counts[i] += int(c)
            self._n += int(state["count"])
            self._sum += float(state["sum"])
            if state.get("min") is not None:
                self._min = min(self._min, float(state["min"]))
            if state.get("max") is not None:
                self._max = max(self._max, float(state["max"]))

    def snapshot(self) -> dict:
        """JSON-safe summary: count, mean/min/max and p50/p95/p99 (ms)."""
        with self._lock:
            n, total = self._n, self._sum
            lo, hi = self._min, self._max
        out = {"count": n}
        if n == 0:
            return out
        out["mean_ms"] = total / n * 1e3
        out["min_ms"] = lo * 1e3
        out["max_ms"] = hi * 1e3
        for p, name in ((50, "p50_ms"), (95, "p95_ms"), (99, "p99_ms")):
            val = self.percentile(p)
            out[name] = None if val is None else val * 1e3
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LatencyHistogram(n={self._n})"


class _OpMetrics:
    __slots__ = ("requests", "errors", "shed", "latency")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.shed = 0
        self.latency = LatencyHistogram()


class ServerMetrics:
    """Per-op request/error/shed counters + latency histograms.

    ``observe(op, seconds, error=...)`` records one *finished* request;
    ``count_shed(op)`` records one request rejected by admission
    control (shed requests are counted separately and never enter the
    latency histogram — they would drag the percentiles toward the
    trivial rejection cost).  Unknown/bad requests are tallied via
    ``count_bad()``.

    **Consistency**: every mutation happens under one instance-wide
    lock, and ``observe`` bumps the request counter and records the
    latency sample inside the same critical section, so a ``snapshot``
    (which holds the same lock across the whole rollup) can never show
    ``requests`` disagreeing with the histogram ``count``.
    """

    #: op types with their own histograms; others fold into "other"
    OPS = ("query", "insert", "delete", "stats", "trace", "metrics")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ops: Dict[str, _OpMetrics] = {}
        self._bad = 0
        self._connections = 0

    def _op_locked(self, op: str) -> _OpMetrics:
        if op not in self.OPS:
            op = "other"
        entry = self._ops.get(op)
        if entry is None:
            entry = self._ops[op] = _OpMetrics()
        return entry

    def observe(self, op: str, seconds: float, error: bool = False) -> None:
        seconds = max(0.0, float(seconds))
        with self._lock:
            entry = self._op_locked(op)
            entry.requests += 1
            if error:
                entry.errors += 1
            # Inside the same critical section as the counter bump:
            # requests == latency.count holds at every instant a
            # snapshot can observe.  (The histogram's own lock is not
            # taken — this lock already serializes every mutator.)
            entry.latency._record_locked(seconds)

    def count_shed(self, op: str) -> None:
        with self._lock:
            entry = self._op_locked(op)
            entry.requests += 1
            entry.shed += 1

    def count_bad(self) -> None:
        """A line that never became a request (bad JSON / unknown op)."""
        with self._lock:
            self._bad += 1

    def count_connection(self) -> None:
        with self._lock:
            self._connections += 1

    def snapshot(self) -> dict:
        """JSON-safe rollup: totals plus a per-op breakdown.

        The whole rollup is built under the instance lock, so the
        counters and every histogram summary describe one instant.
        """
        with self._lock:
            out: dict = {
                "connections": self._connections,
                "bad_requests": self._bad,
                "requests_total": 0,
                "errors_total": 0,
                "shed_total": 0,
                "ops": {},
            }
            for name, entry in sorted(self._ops.items()):
                out["requests_total"] += entry.requests
                out["errors_total"] += entry.errors
                out["shed_total"] += entry.shed
                op_out = {
                    "requests": entry.requests,
                    "errors": entry.errors,
                    "shed": entry.shed,
                }
                op_out.update(entry.latency.snapshot())
                out["ops"][name] = op_out
        return out

    def families(self, prefix: str = "repro_server") -> dict:
        """Metric families for the registry (one consistent snapshot)."""
        with self._lock:
            ops = {
                name: (
                    entry.requests, entry.errors, entry.shed,
                    entry.latency.state(),
                )
                for name, entry in self._ops.items()
            }
            bad = self._bad
            connections = self._connections
        requests = _family("counter", "requests handled per op")
        errors = _family("counter", "error responses per op")
        shed = _family("counter", "requests shed by admission control")
        latency = _family("histogram", "request latency per op (seconds)")
        for name in sorted(ops):
            req, err, sh, state = ops[name]
            labels = {"op": name}
            requests["samples"].append({"labels": labels, "value": req})
            errors["samples"].append({"labels": labels, "value": err})
            shed["samples"].append({"labels": labels, "value": sh})
            latency["samples"].append({"labels": labels, **state})
        return {
            f"{prefix}_requests_total": requests,
            f"{prefix}_errors_total": errors,
            f"{prefix}_shed_total": shed,
            f"{prefix}_request_latency_seconds": latency,
            f"{prefix}_bad_requests_total": _family(
                "counter", "lines that never became a request",
                [{"labels": {}, "value": bad}],
            ),
            f"{prefix}_connections_total": _family(
                "counter", "accepted connections",
                [{"labels": {}, "value": connections}],
            ),
        }


# ----------------------------------------------------------------------
# Registry: named counters / gauges / histograms + pluggable collectors
# ----------------------------------------------------------------------

def _family(kind: str, help_text: str, samples: Optional[list] = None,
            merge: Optional[str] = None) -> dict:
    fam = {"kind": kind, "help": help_text, "samples": samples or []}
    if merge is not None:
        fam["merge"] = merge
    return fam


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonic counter family, optionally labelled."""

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._values: Dict[tuple, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def family(self) -> dict:
        with self._lock:
            samples = [
                {"labels": dict(key), "value": val}
                for key, val in sorted(self._values.items())
            ]
        return _family("counter", self.help, samples)


class Gauge:
    """Point-in-time value; set directly or sampled from a callback.

    ``merge`` declares how prefork fan-in combines per-process values:
    ``"sum"`` (sizes, totals — the default), ``"max"`` (sequence
    numbers, high-water marks) or ``"last"``.
    """

    def __init__(self, name: str, help_text: str, merge: str = "sum",
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help_text
        self.merge = merge
        self._fn = fn
        self._values: Dict[tuple, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def family(self) -> dict:
        if self._fn is not None:
            try:
                samples = [{"labels": {}, "value": float(self._fn())}]
            except Exception:
                samples = []
        else:
            with self._lock:
                samples = [
                    {"labels": dict(key), "value": val}
                    for key, val in sorted(self._values.items())
                ]
        return _family("gauge", self.help, samples, merge=self.merge)


class HistogramMetric:
    """Named family of :class:`LatencyHistogram` per label set."""

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._hists: Dict[tuple, LatencyHistogram] = {}
        self._lock = threading.Lock()

    def observe(self, seconds: float, **labels) -> None:
        key = _label_key(labels)
        hist = self._hists.get(key)
        if hist is None:
            with self._lock:
                hist = self._hists.setdefault(key, LatencyHistogram())
        hist.record(seconds)

    def get(self, **labels) -> Optional[LatencyHistogram]:
        return self._hists.get(_label_key(labels))

    def family(self) -> dict:
        with self._lock:
            items = list(self._hists.items())
        samples = [
            {"labels": dict(key), **hist.state()}
            for key, hist in sorted(items, key=lambda kv: kv[0])
        ]
        return _family("histogram", self.help, samples)


class MetricsRegistry:
    """Name -> metric registry with pluggable snapshot collectors.

    ``counter``/``gauge``/``histogram`` create (or return the existing)
    named metric — idempotent, so layers can declare their metrics at
    construction without coordinating.  ``register_collector`` plugs a
    whole component in (e.g. an ``ANNService``): the callback returns a
    dict of families at snapshot time.  Re-registering a collector key
    replaces it — the newest service/server instance in a process wins,
    matching one-serving-process-one-stack reality (and keeping tests
    that build many short-lived services leak-free).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        self._collectors: Dict[str, Callable[[], dict]] = {}

    def _declare(self, name: str, factory, kind) -> object:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._declare(name, lambda: Counter(name, help_text), Counter)

    def gauge(self, name: str, help_text: str = "", merge: str = "sum",
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._declare(
            name, lambda: Gauge(name, help_text, merge=merge, fn=fn), Gauge
        )

    def histogram(self, name: str, help_text: str = "") -> HistogramMetric:
        return self._declare(
            name, lambda: HistogramMetric(name, help_text), HistogramMetric
        )

    def register_collector(self, key: str, fn: Callable[[], dict]) -> None:
        with self._lock:
            # Re-registering moves the key last: where two collectors
            # publish one family, the newest registration wins.
            self._collectors.pop(key, None)
            self._collectors[key] = fn

    def unregister_collector(self, key: str, fn=None) -> None:
        """Remove collector ``key``; if ``fn`` is given, only when it is
        still the registered callback (a newer registrant wins)."""
        with self._lock:
            if fn is None or self._collectors.get(key) is fn:
                self._collectors.pop(key, None)

    def snapshot(self) -> dict:
        """One JSON-safe tree of every family this process publishes."""
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors.items())
        families: Dict[str, dict] = {}
        for metric in metrics:
            families[metric.name] = metric.family()
        for _, fn in collectors:
            try:
                for name, family in fn().items():
                    families[name] = family
            except Exception:  # a broken collector never breaks a scrape
                continue
        import os as _os

        return {"pid": _os.getpid(), "families": families}

    def clear(self) -> None:
        """Drop every metric and collector (tests only)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()


#: process-wide default registry: serving layers publish here unless
#: handed an explicit registry
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
