"""Batch-vs-single equivalence: the vectorised engine changes nothing.

The batched query path (``batch_k_lccs``, ``batch_query``) is a pure
performance refactor: for every index in the LCCS family and for the CSA
itself it must return *exactly* the single-query results — same ids, same
LCCS lengths, same distances, same tie-breaks.  These tests pin that
contract down across metrics and the edge cases that stress the merge
(k > n, duplicate rows, m not a power of two, all-identical strings).

"Single-query results" means the scalar oracle of ``tests/helpers.py``,
not ``index.query``: which engine ``query`` and small batches run is the
index's own choice (by kernel backend and batch size), so both are
checked against the oracle, across the batch sizes where that choice
flips.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_matches_oracle, oracle_query
from repro import DynamicLCCSLSH, LCCSLSH, MPLCCSLSH, kernels
from repro.core import CircularShiftArray
from repro.core.lccs_lsh import SCALAR_CROSSOVER


def assert_csa_batch_matches(strings: np.ndarray, queries: np.ndarray, k: int):
    csa = CircularShiftArray(strings)
    batched = csa.batch_k_lccs(queries, k)
    assert len(batched) == len(queries)
    for qi, q in enumerate(queries):
        ids, lens = csa.k_lccs(q, k)
        bids, blens = batched[qi]
        assert np.array_equal(ids, bids), f"ids diverge for query {qi}"
        assert np.array_equal(lens, blens), f"lengths diverge for query {qi}"


def assert_index_batch_matches(index, queries: np.ndarray, k: int, **kwargs):
    """``batch_query`` rows and ``query`` both equal the scalar oracle."""
    batch_ids, batch_dists = index.batch_query(queries, k=k, **kwargs)
    assert batch_ids.shape == (len(queries), k)
    assert batch_dists.shape == (len(queries), k)
    for qi, q in enumerate(queries):
        want = oracle_query(index, q, k, **kwargs)
        assert_matches_oracle(index.query(q, k=k, **kwargs), want, f"query {qi}")
        n_found = len(want[0])
        assert_matches_oracle(
            (batch_ids[qi, :n_found], batch_dists[qi, :n_found]), want,
            f"batch row {qi}",
        )
        # padding beyond the true result count
        assert (batch_ids[qi, n_found:] == -1).all()
        assert np.isinf(batch_dists[qi, n_found:]).all()


# ----------------------------------------------------------------------
# CSA level: batch_k_lccs == k_lccs
# ----------------------------------------------------------------------

def test_csa_batch_random(rng):
    strings = rng.integers(0, 4, size=(60, 12))
    queries = rng.integers(0, 4, size=(15, 12))
    assert_csa_batch_matches(strings, queries, k=10)


def test_csa_batch_k_exceeds_n(rng):
    strings = rng.integers(0, 3, size=(7, 6))
    queries = rng.integers(0, 3, size=(5, 6))
    assert_csa_batch_matches(strings, queries, k=50)


def test_csa_batch_duplicate_rows(rng):
    strings = rng.integers(0, 3, size=(40, 8))
    strings[10:25] = strings[3]  # heavy duplication
    queries = np.vstack([strings[3], rng.integers(0, 3, size=(6, 8))])
    assert_csa_batch_matches(strings, queries, k=20)


def test_csa_batch_m_not_power_of_two(rng):
    strings = rng.integers(0, 5, size=(50, 11))
    queries = rng.integers(0, 5, size=(8, 11))
    assert_csa_batch_matches(strings, queries, k=12)


def test_csa_batch_all_identical_strings():
    strings = np.tile(np.array([2, 1, 2, 1, 0]), (12, 1))
    queries = np.array([[2, 1, 2, 1, 0], [0, 0, 0, 0, 0]])
    assert_csa_batch_matches(strings, queries, k=12)


def test_csa_batch_single_query_single_string(rng):
    assert_csa_batch_matches(
        np.array([[5, 6, 7]]), np.array([[5, 6, 0]]), k=3
    )


def test_csa_batch_empty_batch(rng):
    csa = CircularShiftArray(rng.integers(0, 3, size=(10, 4)))
    assert csa.batch_k_lccs(np.empty((0, 4), dtype=np.int64), 5) == []


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_csa_batch_equivalence_property(data):
    n = data.draw(st.integers(2, 25))
    m = data.draw(st.integers(2, 9))
    alpha = data.draw(st.integers(1, 3))
    nq = data.draw(st.integers(1, 5))
    strings = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, alpha), min_size=m, max_size=m),
                min_size=n, max_size=n,
            )
        )
    )
    queries = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, alpha), min_size=m, max_size=m),
                min_size=nq, max_size=nq,
            )
        )
    )
    k = data.draw(st.integers(1, n + 2))
    assert_csa_batch_matches(strings, queries, k)


# ----------------------------------------------------------------------
# Index level: batch_query == query, per index and metric
# ----------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["euclidean", "angular"])
def test_lccs_lsh_batch_matches_single(rng, metric):
    data = rng.normal(size=(500, 16))
    queries = rng.normal(size=(25, 16))
    if metric == "angular":
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    index = LCCSLSH(dim=16, m=24, metric=metric, seed=5).fit(data)
    assert_index_batch_matches(index, queries, k=8)


def test_lccs_lsh_batch_matches_single_hamming(rng):
    data = rng.integers(0, 2, size=(300, 64))
    queries = rng.integers(0, 2, size=(15, 64))
    index = LCCSLSH(dim=64, m=24, metric="hamming", seed=4).fit(data)
    assert_index_batch_matches(index, queries, k=6)


def test_lccs_lsh_batch_k_exceeds_n(rng):
    data = rng.normal(size=(9, 8))
    queries = rng.normal(size=(4, 8))
    index = LCCSLSH(dim=8, m=16, seed=2).fit(data)
    assert_index_batch_matches(index, queries, k=30)


def test_lccs_lsh_batch_duplicate_points(rng):
    data = rng.normal(size=(120, 12))
    data[40:80] = data[0]  # duplicate vectors hash identically
    queries = np.vstack([data[0][None, :], rng.normal(size=(5, 12))])
    index = LCCSLSH(dim=12, m=20, seed=9).fit(data)
    assert_index_batch_matches(index, queries, k=15)


def test_lccs_lsh_batch_m_not_power_of_two(rng):
    data = rng.normal(size=(400, 10))
    queries = rng.normal(size=(10, 10))
    index = LCCSLSH(dim=10, m=17, seed=21).fit(data)
    assert_index_batch_matches(index, queries, k=5)


def test_lccs_lsh_batch_explicit_num_candidates(rng):
    data = rng.normal(size=(300, 8))
    queries = rng.normal(size=(12, 8))
    index = LCCSLSH(dim=8, m=16, seed=13).fit(data)
    assert_index_batch_matches(index, queries, k=4, num_candidates=40)


def test_mp_lccs_lsh_batch_matches_single(rng):
    data = rng.normal(size=(400, 12))
    queries = rng.normal(size=(15, 12))
    index = MPLCCSLSH(dim=12, m=16, n_probes=10, seed=3).fit(data)
    assert_index_batch_matches(index, queries, k=6)


def test_mp_lccs_lsh_batch_explicit_probes(rng):
    data = rng.normal(size=(250, 10))
    queries = rng.normal(size=(8, 10))
    index = MPLCCSLSH(dim=10, m=12, n_probes=4, seed=17).fit(data)
    assert_index_batch_matches(index, queries, k=5, n_probes=12)


def test_dynamic_batch_matches_single_with_buffer(rng):
    data = rng.normal(size=(300, 12))
    index = DynamicLCCSLSH(dim=12, m=16, seed=8).fit(data)
    # leave pending inserts in the buffer and a few tombstones
    for row in rng.normal(size=(20, 12)):
        index.insert(row)
    index.delete(5)
    index.delete(305)
    queries = rng.normal(size=(12, 12))
    assert_index_batch_matches(index, queries, k=7)


def test_dynamic_batch_matches_single_angular_buffer(rng):
    data = rng.normal(size=(200, 10))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    index = DynamicLCCSLSH(dim=10, m=12, metric="angular", seed=4).fit(data)
    extra = rng.normal(size=(10, 10))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    for row in extra:
        index.insert(row)
    queries = rng.normal(size=(8, 10))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    assert_index_batch_matches(index, queries, k=6)


def test_dynamic_batch_matches_single_before_fitting_inner(rng):
    # tiny index: everything sits in the rebuild path/buffer states
    data = rng.normal(size=(10, 6))
    index = DynamicLCCSLSH(dim=6, m=8, seed=1).fit(data)
    for row in rng.normal(size=(3, 6)):
        index.insert(row)
    queries = rng.normal(size=(5, 6))
    assert_index_batch_matches(index, queries, k=20)


# ----------------------------------------------------------------------
# Batch sizes around the engine's own crossover, on every backend
# ----------------------------------------------------------------------

BACKENDS = [b for b in ("numpy", "cext") if b in kernels.available_backends()]
GRID_QUERIES = 33
GRID_K = 6


def _grid_lccs(rng):
    return LCCSLSH(dim=12, m=16, seed=5).fit(rng.normal(size=(300, 12)))


def _grid_mp(rng):
    return MPLCCSLSH(dim=12, m=8, n_probes=5, seed=3).fit(
        rng.normal(size=(200, 12))
    )


def _grid_dynamic_aged(rng):
    """Several sealed segments of different sizes, a part-filled memtable
    and tombstones in both: what a served index looks like after a while."""
    index = DynamicLCCSLSH(
        dim=12, m=16, seed=8, memtable_size=16, max_segments=8
    ).fit(rng.normal(size=(200, 12)))
    # 7 seals + 8 rows pending.  The size-tiered policy folds equal-sized
    # seals together as they land (PR 23), so "several segments" now takes
    # enough inserts to leave one segment per size tier: 200 / 64 / 32 / 16.
    for row in rng.normal(size=(120, 12)):
        index.insert(row)
    for handle in (3, 57, 203, 270, 300, 316):  # every tier + the memtable
        index.delete(handle)
    assert index.tier_stats()["segment_rows"] == [200, 64, 32, 16]
    assert index.buffer_size == 8
    return index


@pytest.fixture(scope="module", params=["lccs", "mp", "dynamic-aged"])
def grid_case(request):
    """(index, queries, oracle answers), built once per index kind."""
    rng = np.random.default_rng(2024)
    build = {
        "lccs": _grid_lccs, "mp": _grid_mp, "dynamic-aged": _grid_dynamic_aged,
    }[request.param]
    index = build(rng)
    queries = rng.normal(size=(GRID_QUERIES, 12))
    return index, queries, [oracle_query(index, q, GRID_K) for q in queries]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "batch", [1, 2, 3, SCALAR_CROSSOVER, SCALAR_CROSSOVER + 1, GRID_QUERIES]
)
def test_every_batch_size_matches_the_oracle(grid_case, batch, backend):
    """B in {1, 2, 3, 12, 13, 33} x {numpy, cext}: below the crossover the
    reference backend (and the multi-probe index everywhere) loops the
    scalar path, at and above it the lock-step kernels run, and compiled
    backends batch from B=1 — every combination answers like the oracle,
    as does ``query`` itself."""
    index, queries, want = grid_case
    assert index.set_kernel_backend(backend) == backend
    ids, dists = index.batch_query(queries[:batch], k=GRID_K)
    for qi in range(batch):
        found = ids[qi] >= 0
        assert_matches_oracle(
            (ids[qi][found], dists[qi][found]), want[qi],
            f"{backend} B={batch} row {qi}",
        )
    last = batch - 1
    assert_matches_oracle(
        index.query(queries[last], k=GRID_K), want[last], f"{backend} query"
    )


def test_default_batch_hook_loops_single_path(rng):
    """Indexes without a vectorised override still satisfy the contract."""
    from repro.baselines import LinearScan

    data = rng.normal(size=(80, 6))
    queries = rng.normal(size=(7, 6))
    index = LinearScan(dim=6).fit(data)
    assert_index_batch_matches(index, queries, k=5)


# ----------------------------------------------------------------------
# Distance kernels: the batched kernels agree with the single-query one
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "metric", ["euclidean", "squared_euclidean", "manhattan", "angular",
               "cosine", "hamming", "jaccard"]
)
def test_pairwise_rows_bit_identical_to_pairwise(rng, metric):
    from repro.distances import pairwise, pairwise_rows

    if metric in ("hamming", "jaccard"):
        data = rng.integers(0, 2, size=(30, 12))
        q = rng.integers(0, 2, size=12)
    else:
        data = rng.normal(size=(30, 12))
        q = rng.normal(size=12)
    single = pairwise(data, q, metric)
    rows = pairwise_rows(data, np.tile(q, (len(data), 1)), metric)
    assert np.array_equal(single, rows)  # bit-identical, not just close


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "hamming"])
def test_pairwise_cross_matches_pairwise(rng, metric):
    from repro.distances import pairwise, pairwise_cross

    if metric == "hamming":
        data = rng.integers(0, 2, size=(20, 8))
        queries = rng.integers(0, 2, size=(5, 8))
    else:
        data = rng.normal(size=(20, 8))
        queries = rng.normal(size=(5, 8))
    cross = pairwise_cross(data, queries, metric)
    for i, q in enumerate(queries):
        assert np.array_equal(cross[i], pairwise(data, q, metric))


def test_batch_stats_accumulate_over_batch(rng):
    data = rng.normal(size=(200, 8))
    queries = rng.normal(size=(10, 8))
    index = LCCSLSH(dim=8, m=16, seed=6).fit(data)
    index.batch_query(queries, k=5)
    batch_cands = index.last_stats["candidates"]
    total = 0.0
    for q in queries:
        index.query(q, k=5)
        total += index.last_stats["candidates"]
    assert batch_cands == total


def test_default_batch_hook_sums_stats(rng):
    """The loop fallback must also report batch-total work counters."""
    from repro.baselines import E2LSH

    data = rng.normal(size=(300, 8))
    queries = rng.normal(size=(12, 8))
    index = E2LSH(dim=8, seed=7).fit(data)
    index.batch_query(queries, k=5)
    batch_stats = dict(index.last_stats)
    totals: dict = {}
    for q in queries:
        index.query(q, k=5)
        for key, val in index.last_stats.items():
            totals[key] = totals.get(key, 0.0) + float(val)
    assert batch_stats == totals
    assert batch_stats["candidates"] > index.last_stats["candidates"]
