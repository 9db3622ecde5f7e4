"""Query-cache correctness: LRU mechanics and the no-staleness property.

The load-bearing property (hypothesis-driven): under **arbitrary
interleavings** of query / insert / delete through an
:class:`~repro.serve.service.ANNService`, a query answer served from the
cache is always byte-identical to a fresh ``query`` against a replica
index in the same state — i.e. the version-keyed cache can never return
a stale result, no matter how ops interleave.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicLCCSLSH
from repro.serve import ANNService, QueryCache, query_key

DIM = 8


def _fitted_dynamic(seed: int = 3) -> DynamicLCCSLSH:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(60, DIM))
    return DynamicLCCSLSH(
        dim=DIM, m=8, w=4.0, seed=7, rebuild_threshold=0.15
    ).fit(data)


# ----------------------------------------------------------------------
# QueryCache units
# ----------------------------------------------------------------------


def test_cache_hit_returns_copies():
    cache = QueryCache(max_entries=4)
    key = query_key(np.arange(DIM, dtype=np.float64), 3, 0, {})
    ids = np.array([1, 2, 3], dtype=np.int64)
    dists = np.array([0.1, 0.2, 0.3])
    cache.put(key, ids, dists)
    got_ids, got_dists = cache.get(key)
    assert np.array_equal(got_ids, ids) and np.array_equal(got_dists, dists)
    got_ids[0] = 99  # mutating a hit must not poison the cache
    again_ids, _ = cache.get(key)
    assert again_ids[0] == 1
    stats = cache.stats()
    assert stats["hits"] == 2 and stats["misses"] == 0


def test_cache_lru_eviction_order():
    cache = QueryCache(max_entries=2)
    keys = [
        query_key(np.full(DIM, float(i)), 1, 0, {}) for i in range(3)
    ]
    empty = (np.empty(0, dtype=np.int64), np.empty(0))
    cache.put(keys[0], *empty)
    cache.put(keys[1], *empty)
    assert cache.get(keys[0]) is not None  # key0 is now most recent
    cache.put(keys[2], *empty)  # evicts key1, the LRU
    assert cache.get(keys[1]) is None
    assert cache.get(keys[0]) is not None
    assert cache.get(keys[2]) is not None
    assert cache.stats()["evictions"] == 1


def test_cache_key_distinguishes_everything():
    q = np.arange(DIM, dtype=np.float64)
    base = query_key(q, 3, 0, {})
    assert query_key(q, 4, 0, {}) != base          # k
    assert query_key(q, 3, 1, {}) != base          # version
    assert query_key(q, 3, 0, {"num_candidates": 5}) != base  # kwargs
    assert query_key(q + 1, 3, 0, {}) != base      # bytes
    assert query_key(q.astype(np.float32), 3, 0, {}) != base  # dtype
    assert query_key(q, 3, 0, {}) == base          # deterministic


def test_cache_invalidate_clears_but_counts():
    cache = QueryCache(max_entries=8)
    key = query_key(np.zeros(DIM), 1, 0, {})
    cache.put(key, np.array([0], dtype=np.int64), np.array([0.0]))
    cache.invalidate()
    assert len(cache) == 0
    assert cache.get(key) is None
    assert cache.stats()["invalidations"] == 1


def test_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        QueryCache(max_entries=0)


# ----------------------------------------------------------------------
# Service-level staleness property (hypothesis)
# ----------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, 7), st.integers(1, 6)),
        st.tuples(st.just("insert"), st.integers(0, 15), st.just(0)),
        st.tuples(st.just("delete"), st.integers(0, 200), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_cache_never_stale_under_interleavings(ops):
    """Service answers (cached or not) always match a fresh replica query.

    The service runs with an aggressive cache (every query cached, big
    window disabled) while a bare replica index receives the identical
    op sequence; any stale cache entry surviving a write would make the
    post-write comparison fail.
    """
    rng = np.random.default_rng(11)
    query_pool = rng.normal(size=(8, DIM))
    insert_pool = rng.normal(size=(16, DIM))
    service_index = _fitted_dynamic()
    replica = _fitted_dynamic()
    live: list = list(range(60))  # handles believed live, mirror-side
    writes = 0
    with ANNService(
        service_index, cache_size=256, max_batch_size=8
    ) as service:
        for op, a, b in ops:
            if op == "query":
                q = query_pool[a]
                got_ids, got_dists = service.query(q, k=b, num_candidates=30)
                want_ids, want_dists = replica.query(q, k=b, num_candidates=30)
                assert got_ids.tobytes() == want_ids.tobytes()
                assert got_dists.tobytes() == want_dists.tobytes()
                # and a repeat (likely a cache hit) must agree too
                rep_ids, rep_dists = service.query(q, k=b, num_candidates=30)
                assert rep_ids.tobytes() == want_ids.tobytes()
                assert rep_dists.tobytes() == want_dists.tobytes()
            elif op == "insert":
                vector = insert_pool[a]
                handle = service.insert(vector)
                assert handle == replica.insert(vector)
                live.append(handle)
                writes += 1
            else:  # delete a pseudo-random live handle, if any
                if not live:
                    continue
                handle = live.pop(a % len(live))
                service.delete(handle)
                replica.delete(handle)
                writes += 1
        stats = service.stats()
        assert stats["version"] == writes  # every write bumped the version


def test_cached_hit_equals_fresh_query_at_same_version():
    """Direct statement of the invariant: hit bytes == fresh-query bytes."""
    index = _fitted_dynamic()
    replica = _fitted_dynamic()
    rng = np.random.default_rng(21)
    q = rng.normal(size=DIM)
    with ANNService(index, cache_size=16) as service:
        first = service.query(q, k=4, num_candidates=30)
        hit = service.query(q, k=4, num_candidates=30)
        assert service.stats()["cache_hits"] >= 1
        fresh = replica.query(q, k=4, num_candidates=30)
        for got in (first, hit):
            assert got[0].tobytes() == fresh[0].tobytes()
            assert got[1].tobytes() == fresh[1].tobytes()
        # a write makes the old entry unreachable: the next query must
        # reflect the new point, not the cached pre-write answer
        handle = service.insert(q)  # the query point itself: nearest hit
        ids, dists = service.query(q, k=4, num_candidates=30)
        assert ids[0] == handle and dists[0] == 0.0


def test_cache_disabled_service_still_correct():
    index = _fitted_dynamic()
    replica = _fitted_dynamic()
    rng = np.random.default_rng(22)
    q = rng.normal(size=DIM)
    with ANNService(index, cache_size=0) as service:
        got = service.query(q, k=3, num_candidates=30)
        want = replica.query(q, k=3, num_candidates=30)
        assert got[0].tobytes() == want[0].tobytes()
        assert "cache_hits" not in service.stats()


# ----------------------------------------------------------------------
# Unhashable kwarg values (regression: TypeError from query_key, and a
# ValueError killing the micro-batcher's group comparison)
# ----------------------------------------------------------------------


def test_query_key_accepts_unhashable_kwarg_values():
    """Regression: list/ndarray/dict kwarg values used to raise

    ``TypeError: unhashable type`` the moment the key hit the cache's
    dict.  ``freeze_kwargs`` must normalize them into hashable
    equivalents, insensitive to kwarg order.
    """
    q = np.arange(DIM, dtype=np.float64)
    kwargs = {
        "subset": [1, 2, 3],
        "weights": np.array([0.5, 0.25]),
        "opts": {"b": 2, "a": 1},
    }
    key = query_key(q, 3, 0, kwargs)
    assert {key: "cached"}[key] == "cached"  # usable as a dict key
    same = query_key(
        q, 3, 0,
        {
            "opts": {"a": 1, "b": 2},
            "weights": np.array([0.5, 0.25]),
            "subset": (1, 2, 3),  # list vs tuple: same frozen sequence
        },
    )
    assert key == same
    different = query_key(
        q, 3, 0, {**kwargs, "subset": [1, 2, 4]}
    )
    assert key != different


def test_freeze_kwargs_distinguishes_dtype_shape_and_scalars():
    from repro.serve import freeze_kwargs

    base = freeze_kwargs({"w": np.array([1.0, 2.0])})
    assert base == freeze_kwargs({"w": np.array([1.0, 2.0])})
    assert base != freeze_kwargs({"w": np.array([1.0, 2.0], np.float32)})
    assert base != freeze_kwargs({"w": np.array([[1.0], [2.0]])})
    # numpy scalars fold to their python value: np.int64(5) and 5 are
    # the same query, so they must be the same cache key
    assert freeze_kwargs({"n": np.int64(5)}) == freeze_kwargs({"n": 5})


def test_request_group_comparison_is_plain_bool_with_array_kwargs():
    """Regression: ``_Request.group`` held raw kwarg values, so the

    batcher's ``group == group`` comparison on ndarray values raised
    ``ValueError: truth value of an array ... is ambiguous`` inside the
    executor thread, killing the micro-batcher.
    """
    from repro.serve.service import _Request

    q = np.zeros(DIM)
    r1 = _Request(q, 3, {"weights": np.array([1.0, 2.0])})
    r2 = _Request(q.copy(), 3, {"weights": np.array([1.0, 2.0])})
    r3 = _Request(q, 3, {"weights": np.array([1.0, 3.0])})
    assert (r1.group == r2.group) is True
    assert (r1.group == r3.group) is False


def test_service_query_with_numpy_kwarg_end_to_end():
    """The whole path — cache lookup, batch grouping, cache fill — must

    work when a kwarg value is a numpy scalar, and hit the same cache
    entry as the equivalent python int.
    """
    index = _fitted_dynamic()
    rng = np.random.default_rng(23)
    q = rng.normal(size=DIM)
    with ANNService(index, cache_size=16) as service:
        first = service.query(q, k=3, num_candidates=np.int64(30))
        again = service.query(q, k=3, num_candidates=30)
        assert service.stats()["cache_hits"] >= 1
        assert first[0].tobytes() == again[0].tobytes()
        assert first[1].tobytes() == again[1].tobytes()
