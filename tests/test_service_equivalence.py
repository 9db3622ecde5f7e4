"""ANNService equivalence: micro-batching changes nothing but speed.

Every request through :class:`~repro.serve.service.ANNService` —
whether it executed alone, coalesced into a micro-batch with strangers,
duplicated within one batch, or served from the cache — must return
exactly what a direct ``batch_query`` (equivalently, per PR 1, a direct
``query``) on the unwrapped index returns: same ids, same distances,
same tie-breaks, byte for byte.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import DynamicLCCSLSH, IndexSpec, LCCSLSH, ShardedIndex
from repro.base import ANNIndex
from repro.serve import ANNService

DIM = 10


def _data(n=400, seed=0):
    return np.random.default_rng(seed).normal(size=(n, DIM))


def _lccs(n=400) -> LCCSLSH:
    return LCCSLSH(dim=DIM, m=16, w=4.0, seed=4).fit(_data(n))


def _assert_rows_match(service_rows, direct_ids, direct_dists):
    """Service per-request results == padded direct batch rows."""
    for i, (ids, dists) in enumerate(service_rows):
        valid = direct_ids[i] >= 0
        want_ids, want_dists = direct_ids[i][valid], direct_dists[i][valid]
        assert ids.tobytes() == want_ids.tobytes(), f"ids diverge at row {i}"
        assert dists.tobytes() == want_dists.tobytes(), (
            f"distances diverge at row {i}"
        )


@pytest.mark.parametrize("k", [1, 5, 1000])  # 1000 > n: padded rows
def test_async_singles_equal_direct_batch(k):
    index = _lccs()
    queries = np.random.default_rng(1).normal(size=(40, DIM))
    direct_ids, direct_dists = index.batch_query(
        queries, k=k, num_candidates=60
    )
    with ANNService(
        index, cache_size=0, max_batch_size=40
    ) as service:
        futures = [
            service.query_async(q, k=k, num_candidates=60) for q in queries
        ]
        rows = [f.result() for f in futures]
        stats = service.stats()
    _assert_rows_match(rows, direct_ids, direct_dists)
    # the 40 requests must actually have coalesced (that's the point)
    assert stats["batches"] < len(queries)
    assert stats["largest_batch"] > 1
    assert stats["batched_queries"] == len(queries)


def test_duplicate_queries_in_one_batch():
    index = _lccs()
    rng = np.random.default_rng(2)
    base = rng.normal(size=(4, DIM))
    queries = np.vstack([base, base, base[::-1]])  # heavy duplication
    direct_ids, direct_dists = index.batch_query(
        queries, k=7, num_candidates=50
    )
    with ANNService(
        index, cache_size=0, max_batch_size=len(queries)
    ) as service:
        futures = [
            service.query_async(q, k=7, num_candidates=50) for q in queries
        ]
        rows = [f.result() for f in futures]
    _assert_rows_match(rows, direct_ids, direct_dists)


def test_mixed_k_requests_split_into_groups():
    """Different (k, kwargs) never share a batch, and all stay correct."""
    index = _lccs()
    rng = np.random.default_rng(3)
    queries = rng.normal(size=(12, DIM))
    ks = [3 if i % 2 == 0 else 8 for i in range(len(queries))]
    with ANNService(
        index, cache_size=0, max_batch_size=32
    ) as service:
        futures = [
            service.query_async(q, k=k, num_candidates=40)
            for q, k in zip(queries, ks)
        ]
        rows = [f.result() for f in futures]
    for q, k, (ids, dists) in zip(queries, ks, rows):
        want_ids, want_dists = index.query(q, k=k, num_candidates=40)
        assert ids.tobytes() == want_ids.tobytes()
        assert dists.tobytes() == want_dists.tobytes()


def test_threaded_clients_equal_direct_batch():
    """Blocking service.query from many client threads, byte-identical."""
    index = _lccs()
    queries = np.random.default_rng(4).normal(size=(32, DIM))
    direct_ids, direct_dists = index.batch_query(
        queries, k=5, num_candidates=60
    )
    with ANNService(
        index, cache_size=64, max_batch_size=16
    ) as service:
        with ThreadPoolExecutor(max_workers=8) as clients:
            rows = list(
                clients.map(
                    lambda q: service.query(q, k=5, num_candidates=60),
                    queries,
                )
            )
    _assert_rows_match(rows, direct_ids, direct_dists)


def test_service_batch_query_passthrough_is_byte_identical():
    index = _lccs()
    queries = np.random.default_rng(5).normal(size=(25, DIM))
    want_ids, want_dists = index.batch_query(queries, k=6, num_candidates=60)
    with ANNService(index, cache_size=128) as service:
        got_ids, got_dists = service.batch_query(
            queries, k=6, num_candidates=60
        )
        assert got_ids.tobytes() == want_ids.tobytes()
        assert got_dists.tobytes() == want_dists.tobytes()
        # rows were written into the cache: single queries now hit
        before = service.stats()["cache_hits"]
        ids, dists = service.query(queries[3], k=6, num_candidates=60)
        assert service.stats()["cache_hits"] == before + 1
        valid = want_ids[3] >= 0
        assert ids.tobytes() == want_ids[3][valid].tobytes()
        assert dists.tobytes() == want_dists[3][valid].tobytes()


def test_service_over_sharded_index():
    spec = IndexSpec("LCCSLSH", dim=DIM, m=16, w=4.0, seed=4)
    sharded = ShardedIndex(spec, num_shards=3, parallel="thread").fit(
        _data(300)
    )
    queries = np.random.default_rng(6).normal(size=(15, DIM))
    direct_ids, direct_dists = sharded.batch_query(
        queries, k=4, num_candidates=40
    )
    with ANNService(
        sharded, cache_size=32, max_batch_size=15
    ) as service:
        futures = [
            service.query_async(q, k=4, num_candidates=40) for q in queries
        ]
        rows = [f.result() for f in futures]
    _assert_rows_match(rows, direct_ids, direct_dists)
    sharded.close()


def test_service_validates_requests_and_closes():
    index = _lccs(100)
    service = ANNService(index, cache_size=4)
    with pytest.raises(ValueError, match="shape"):
        service.query(np.zeros(DIM + 1), k=1)
    with pytest.raises(ValueError, match="k"):
        service.query(np.zeros(DIM), k=0)
    service.close()
    service.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        service.query(np.zeros(DIM), k=1)


def test_write_through_service_matches_dynamic_index():
    """Read-your-writes: service inserts/deletes behave like the index."""
    rng = np.random.default_rng(7)
    data = rng.normal(size=(80, DIM))
    served = DynamicLCCSLSH(dim=DIM, m=8, w=4.0, seed=1).fit(data)
    direct = DynamicLCCSLSH(dim=DIM, m=8, w=4.0, seed=1).fit(data)
    with ANNService(served, cache_size=16) as service:
        vec = rng.normal(size=DIM)
        assert service.insert(vec) == direct.insert(vec)
        service.delete(3)
        direct.delete(3)
        q = rng.normal(size=DIM)
        got = service.query(q, k=6, num_candidates=40)
        want = direct.query(q, k=6, num_candidates=40)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_evaluate_service_matches_evaluate_accuracy(clustered):
    """Harness integration: served evaluation scores like the direct one."""
    from repro.eval import evaluate, evaluate_service

    data, queries, gt = clustered
    index = LCCSLSH(dim=data.shape[1], m=16, w=4.0, seed=3).fit(data)
    direct = evaluate(
        index, data, queries, gt, k=10,
        query_kwargs={"num_candidates": 200},
    )
    served = evaluate_service(
        index, data, queries, gt, k=10,
        query_kwargs={"num_candidates": 200},
        threads=2, cache_size=64,
    )
    # identical results => identical accuracy metrics
    assert served.recall == direct.recall
    assert served.ratio == direct.ratio
    assert served.method.endswith("+service")
    assert served.qps > 0
    assert served.stats["reads"] >= 1
    assert served.params["threads"] == 2


class _GatedIndex(ANNIndex):
    """Answers like ``inner``, but parks every batch on ``gate`` first —
    a batch the test can hold open while more requests queue behind it."""

    def __init__(self, inner):
        super().__init__(inner.dim, inner.metric)
        self._inner = inner
        self._data = inner._data  # fitted
        self.entered = threading.Event()
        self.gate = threading.Event()

    def _fit(self, data):  # pragma: no cover - never refitted
        raise NotImplementedError

    def _query(self, q, k, **kwargs):
        return self._inner.query(q, k=k, **kwargs)

    def _batch_query(self, queries, k, **kwargs):
        self.entered.set()
        assert self.gate.wait(timeout=30)
        return [self._query(q, k, **kwargs) for q in queries]


def test_cancelled_future_does_not_kill_the_executor():
    """A caller cancelling its future must not take the service down.

    Nothing waits in a window any more, so the one place a request can
    still be cancelled is the queue behind a running batch: hold a batch
    open, queue a second request, cancel it, release."""
    index = _lccs(100)
    gated = _GatedIndex(index)
    rng = np.random.default_rng(8)
    q_held, q_cancelled = rng.normal(size=(2, DIM))
    with ANNService(gated, cache_size=0) as service:
        held = service.query_async(q_held, k=3, num_candidates=40)
        assert gated.entered.wait(timeout=10)  # the executor is inside it
        queued = service.query_async(q_cancelled, k=3, num_candidates=40)
        assert queued.cancel()  # still queued behind the held batch
        gated.gate.set()
        ids, dists = held.result(timeout=10)
        want_ids, want_dists = index.query(q_held, k=3, num_candidates=40)
        assert ids.tobytes() == want_ids.tobytes()
        assert dists.tobytes() == want_dists.tobytes()
        # the executor must survive the cancelled request and keep answering
        ids, dists = service.query(q_cancelled, k=3, num_candidates=40)
        want_ids, want_dists = index.query(q_cancelled, k=3, num_candidates=40)
        assert ids.tobytes() == want_ids.tobytes()
        assert dists.tobytes() == want_dists.tobytes()
        assert service._executor.is_alive()
        # the cancelled request was dropped, never executed
        assert service.stats()["batched_queries"] == 2
