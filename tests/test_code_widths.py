"""Narrow CSA codes at their boundaries (property tests).

The CSA stores hash strings as unsigned codes of the narrowest width
that holds the fitted range: ``W = 1`` up to 254 values (codes 1..254),
``W = 2`` up to 65 534, ``W = 4`` up to ``2**32 - 2``, ``W = 8``
beyond.  Query characters outside the range clamp to codes 0 and
``2**(8W) - 1``.  Here the value spans sit exactly on each side of each
boundary, at negative offsets and at the int64 extremes, and queries
carry characters below the range, above it and inside it but absent
from the data.  Engine, scalar path and ``brute_force_k_lccs`` must
agree; without a compiler the scalar path and the NumPy encoder are
still checked against brute force.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LCCSLSH
from repro.core.csa import CircularShiftArray
from repro.core.lccs import brute_force_k_lccs, lccs_length
from repro.hashes.base import HashFamily

INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)

#: number of values hi - lo + 1 -> the width that must hold them
SPANS = {
    "constant": (1, 1),
    "w1-top": (254, 1),
    "w2-bottom": (255, 2),
    "w2-top": (65_534, 2),
    "w4-bottom": (65_535, 4),
    "w4-top": (2**32 - 2, 4),
    "w8-bottom": (2**32 - 1, 8),
    "int64": (2**64, 8),
}
LENGTHS = [1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 19]


@st.composite
def layouts(draw):
    """``(lo, hi, width)`` of a value range sitting on a width boundary."""
    count, width = SPANS[draw(st.sampled_from(sorted(SPANS)))]
    if count == 2**64:
        return INT64_MIN, INT64_MAX, 8
    top = INT64_MAX - (count - 1)
    lo = draw(
        st.one_of(
            st.integers(-(2**40), 2**40),
            st.sampled_from([INT64_MIN, INT64_MIN + 1, -count, 0, top]),
        )
    )
    lo = min(lo, top)
    if lo == INT64_MIN:  # code 0 must stay free: the widest codes hold it
        width = 8
    return lo, lo + count - 1, width


def _strings(rng, n, m, lo, hi):
    """Rows over a small pool holding ``lo`` and ``hi``: long common runs,
    duplicate rows and constant rows."""
    pool = np.array(
        [lo, hi] + [int(v) for v in rng.integers(lo, hi, size=4, endpoint=True)],
        dtype=np.int64,
    )
    strings = pool[rng.integers(0, len(pool), size=(n, m))]
    strings[0, 0], strings[-1, -1] = lo, hi
    strings[1] = strings[-1]  # a duplicate row
    strings[2] = pool[int(rng.integers(0, len(pool)))]  # a constant row
    return strings, pool


def _queries(rng, strings, pool, lo, hi, count):
    """Rows of the data with characters swapped for out-of-range and
    absent values."""
    specials = [INT64_MIN, INT64_MAX]
    if lo > INT64_MIN:
        specials.append(lo - 1)
    if hi < INT64_MAX:
        specials.append(hi + 1)
    absent = [
        v for v in (lo + 1, (lo + hi) // 2, hi - 1)
        if lo <= v <= hi and v not in pool
    ]
    specials += absent
    n, m = strings.shape
    queries = strings[rng.integers(0, n, size=count)].copy()
    for q in queries:
        swaps = rng.random(m) < 0.3
        q[swaps] = np.array(specials, dtype=np.int64)[
            rng.integers(0, len(specials), size=int(swaps.sum()))
        ]
    return queries


def _assert_same(got, want):
    for (ids, lens), (want_ids, want_lens) in zip(got, want, strict=True):
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(lens, want_lens)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_codes_at_width_boundaries(data):
    lo, hi, width = data.draw(layouts())
    n = data.draw(st.integers(3, 40))
    m = data.draw(st.sampled_from(LENGTHS))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    strings, pool = _strings(rng, n, m, lo, hi)
    queries = _queries(rng, strings, pool, lo, hi, 13)
    k = data.draw(st.integers(1, n + 2))

    csa = CircularShiftArray(strings)
    assert csa.width == width
    assert csa._doubled.dtype == np.dtype(f"u{width}")
    assert np.array_equal(csa.strings, strings)
    # Codes order as the values do, and a value absent from the data
    # equals no stored code.
    values = np.unique(np.concatenate([queries.ravel(), strings.ravel()]))
    codes = csa.encode(values)
    assert np.all(codes[1:] >= codes[:-1])
    stored = set(csa._doubled.ravel().tolist())
    present = set(strings.ravel().tolist())
    assert [c in stored for c in codes.tolist()] == [
        v in present for v in values.tolist()
    ]
    engine = csa._engine

    shifts = rng.integers(0, m, size=17)
    q_rots = np.stack(
        [csa.query_rotations(queries[i % 13])[s : s + m]
         for i, s in enumerate(shifts)]
    )
    csa._engine = None
    want = [csa.k_lccs(q, k) for q in queries]
    want_bounds = csa.batch_search_all_shifts(queries)
    want_lanes = csa._batch_search_arrays(shifts, q_rots)
    csa._engine = engine

    for q, (ids, lens) in zip(queries, want):
        assert [lccs_length(strings[i], q) for i in ids] == lens.tolist()
        oracle = brute_force_k_lccs(strings, q, k)
        assert sorted(lens.tolist(), reverse=True) == sorted(
            (lccs_length(strings[i], q) for i in oracle), reverse=True
        )
    if engine is None:
        return
    assert np.array_equal(
        engine.encode(queries, csa.offset, width), csa.encode(queries)
    )
    _assert_same(csa.batch_k_lccs(queries, k), want)
    _assert_same(
        [csa.batch_k_lccs(q[None, :], k)[0] for q in queries], want
    )
    for got, exp in zip(csa.batch_search_all_shifts(queries), want_bounds):
        assert np.array_equal(got, exp)
    for got, exp in zip(csa._batch_search_arrays(shifts, q_rots), want_lanes):
        assert np.array_equal(got, exp)


class _TableFamily(HashFamily):
    """Hashes the vector ``[i]`` to row ``i`` of a fixed table, and
    offers each query position a few fixed alternatives: hash strings
    chosen by the test, behind the real multi-probe path."""

    supports_probing = True

    def __init__(self, table, alternatives):
        super().__init__(dim=1, m=table.shape[1], seed=0)
        self.table = table
        self.alternatives = alternatives

    def _hash_batch(self, data):
        return self.table[data[:, 0].astype(np.int64)]

    def query_alternatives(self, q, max_alternatives=8):
        codes = self.table[int(q[0])]
        scores = np.arange(1.0, len(self.alternatives) + 1)
        return codes, [(self.alternatives, scores)] * self.m


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_probes_at_width_boundaries(data):
    """``n_probes=5`` with out-of-range alternatives: the engine's
    batches at B = 1 and 13 answer like the scalar probe path."""
    lo, hi, width = data.draw(layouts())
    n = data.draw(st.integers(3, 40))
    m = data.draw(st.sampled_from(LENGTHS[1:]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    strings, pool = _strings(rng, n, m, lo, hi)
    queries = _queries(rng, strings, pool, lo, hi, 13)
    alternatives = np.unique(
        np.concatenate([_queries(rng, strings, pool, lo, hi, 1)[0], pool])
    )[:6]
    family = _TableFamily(np.concatenate([strings, queries]), alternatives)
    index = LCCSLSH(dim=1, m=m, family=family).fit(
        np.arange(n, dtype=np.float64)[:, None]
    )
    assert index.csa.width == width
    vectors = np.arange(n, n + 13, dtype=np.float64)[:, None]
    k = min(3, n)
    engine = index.csa._engine
    index.csa._engine = None
    want = [index.query(v, k=k, n_probes=5) for v in vectors]
    index.csa._engine = engine
    if engine is None:
        return
    ids, dists = index.batch_query(vectors, k=k, n_probes=5)
    for i, (want_ids, want_dists) in enumerate(want):
        assert ids[i, : len(want_ids)].tolist() == want_ids.tolist()
        assert dists[i, : len(want_dists)].tolist() == want_dists.tolist()
    _assert_same([index.query(v, k=k, n_probes=5) for v in vectors], want)

