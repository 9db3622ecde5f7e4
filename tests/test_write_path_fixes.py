"""Regression tests for the serving write-path bugfix sweep.

Two fixes pinned here:

* :meth:`LatencyHistogram.merge` used to take ``self._lock`` then
  ``other._lock`` — two threads cross-merging (``a.merge(b)`` vs
  ``b.merge(a)``, the shape a stats aggregator produces) could each
  grab their first lock and deadlock forever.  The fix orders
  acquisition by ``id()`` so every thread locks the pair in the same
  order.
* :meth:`ANNService.query_async` probed the result cache before
  checking ``_stop``, so a *closed* service kept answering queries
  that happened to hit the cache while missing ones raised — behavior
  depended on cache state.  Closed must mean closed, uniformly.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import LatencyHistogram

DIM = 6


# ----------------------------------------------------------------------
# LatencyHistogram.merge lock ordering
# ----------------------------------------------------------------------

def _filled(n=100, scale=1.0, seed=0):
    hist = LatencyHistogram()
    rng = np.random.default_rng(seed)
    for v in rng.exponential(scale, size=n):
        hist.record(float(v))
    return hist


def _total_seconds(hist):
    snap = hist.snapshot()
    return snap["count"] * snap["mean_ms"] / 1e3


def test_merge_accumulates_counts_and_sum():
    a, b = _filled(50, seed=1), _filled(70, scale=2.0, seed=2)
    expected_sum = _total_seconds(a) + _total_seconds(b)
    a.merge(b)
    assert a.count == 120
    assert _total_seconds(a) == pytest.approx(expected_sum)
    # b is untouched
    assert b.count == 70


def test_self_merge_is_noop():
    """merge(self) must be idempotent.

    The old behavior doubled counts and sums while leaving min/max
    untouched — a fan-in loop that revisited its accumulator silently
    corrupted totals.  Now the histogram is simply unchanged.
    """
    hist = _filled(30)
    before = _total_seconds(hist)
    before_snap = hist.snapshot()
    hist.merge(hist)
    assert hist.count == 30
    assert _total_seconds(hist) == pytest.approx(before)
    after_snap = hist.snapshot()
    assert after_snap["min_ms"] == before_snap["min_ms"]
    assert after_snap["max_ms"] == before_snap["max_ms"]
    assert after_snap["mean_ms"] == pytest.approx(before_snap["mean_ms"])


def test_cross_merge_does_not_deadlock():
    """Two threads merging a↔b concurrently: the old self-then-other
    lock order deadlocked; id()-ordered acquisition must finish."""
    a, b = _filled(200, seed=3), _filled(200, seed=4)
    stop = time.monotonic() + 0.5
    barrier = threading.Barrier(2)

    def worker(dst, src):
        barrier.wait()
        while time.monotonic() < stop:
            dst.merge(src)

    threads = [
        threading.Thread(target=worker, args=(a, b), daemon=True),
        threading.Thread(target=worker, args=(b, a), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    # Daemon threads: a deadlock shows up as still-alive workers rather
    # than a hung test run.
    assert not any(t.is_alive() for t in threads), "cross-merge deadlocked"


# ----------------------------------------------------------------------
# ANNService.query_async after close
# ----------------------------------------------------------------------

def test_query_async_closed_rejects_even_cache_hits():
    from repro import DynamicLCCSLSH
    from repro.serve import ANNService

    rng = np.random.default_rng(5)
    index = DynamicLCCSLSH(dim=DIM, m=8, w=4.0, seed=2).fit(
        rng.normal(size=(30, DIM))
    )
    service = ANNService(index, cache_size=32)
    q_cached = rng.normal(size=DIM)
    q_cold = rng.normal(size=DIM)
    service.query(q_cached, k=3)  # populate the cache
    service.close()
    # The old code answered q_cached from the cache after close but
    # raised on q_cold — closed-service behavior must be uniform.
    with pytest.raises(RuntimeError):
        service.query_async(q_cached, k=3)
    with pytest.raises(RuntimeError):
        service.query_async(q_cold, k=3)
