"""Tests for the Circular Shift Array (paper §3.2, Algorithms 1-2)."""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import CircularShiftArray, brute_force_k_lccs, lccs_length, shift
from repro.core.csa import rank_dtype

INT64 = np.iinfo(np.int64)


def rotations_matrix(strings, s):
    return np.array([shift(row, s) for row in strings])


# ----------------------------------------------------------------------
# Construction invariants (Algorithm 1)
# ----------------------------------------------------------------------

def test_sorted_indices_are_sorted_per_shift(rng):
    strings = rng.integers(0, 3, size=(40, 9))
    csa = CircularShiftArray(strings)
    for s in range(csa.m):
        rots = rotations_matrix(strings, s)[csa.sorted_idx[s]]
        for i in range(len(rots) - 1):
            assert tuple(rots[i]) <= tuple(rots[i + 1])


def test_next_links_point_to_same_string(rng):
    strings = rng.integers(0, 4, size=(25, 6))
    csa = CircularShiftArray(strings)
    for s in range(csa.m):
        nxt = (s + 1) % csa.m
        for j in range(csa.n):
            sid = csa.sorted_idx[s][j]
            assert csa.sorted_idx[nxt][csa.next_link[s][j]] == sid


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_key_build_equals_lexsort_build(data):
    """One packed-key argsort per doubling round (the fast build) and the
    two-key lexsort (kept for when the packed key would overflow int64)
    must produce the very same arrays — duplicate-heavy inputs included,
    where equal rotations decide whether sort stability matters (it does
    not: equal pairs get equal ranks)."""
    n = data.draw(st.integers(1, 30))
    m = data.draw(st.integers(1, 12))
    alphabet = data.draw(st.integers(0, 3))  # 0: all rows identical
    rows = st.lists(st.integers(0, alphabet), min_size=m, max_size=m)
    strings = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)))
    if data.draw(st.booleans()) and n > 2:
        strings[n // 2:] = strings[0]  # a block of exact duplicates
    csa = CircularShiftArray(strings)
    packed = csa._build(packed_keys=True)
    lexsort = csa._build(packed_keys=False)
    for got, want, built in zip(packed, lexsort, (csa.sorted_idx, csa.next_link)):
        assert got.dtype == want.dtype == built.dtype
        assert got.tobytes() == want.tobytes() == built.tobytes()


@pytest.fixture(scope="module")
def engine():
    """The compiled engine; its tests skip where it cannot be built."""
    backend = kernels.engine()
    if backend is None:
        pytest.skip("the cext engine cannot be built here")
    return backend


def _assert_same_build(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == rank_dtype(g.shape[1])
        assert g.tobytes() == w.tobytes()


def _alphabet_strings(rng, n, m, alphabet):
    if alphabet == "single":
        return np.full((n, m), 3, dtype=np.int64)
    if alphabet == "binary":
        return rng.integers(0, 2, size=(n, m))
    if alphabet == "sixteen":
        return rng.integers(-8, 8, size=(n, m))
    if alphabet == "wide":  # > 256 values, several radix digits
        return rng.integers(0, 300, size=(n, m)) * 65537 - 9_000_000
    strings = rng.integers(INT64.min, INT64.max, size=(n, m), endpoint=True)
    extremes = np.array([INT64.min, INT64.max, -1, 0])
    mask = rng.random((n, m)) < 0.3
    strings[mask] = extremes[rng.integers(0, 4, size=int(mask.sum()))]
    return strings


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_engine_build_equals_rank_doubling(engine, data):
    """The engine's CSA build and both rank-doubling sorts emit the same
    bytes, dtype included: the contract (ids by rotation, equal rotations
    by ascending id) fixes the output, whatever the alphabet."""
    n = data.draw(st.integers(1, 200))
    m = data.draw(st.sampled_from([1, 2, 7, 63, 64, 65, 70]))
    alphabet = data.draw(
        st.sampled_from(["single", "binary", "sixteen", "wide", "full"])
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    strings = _alphabet_strings(rng, n, m, alphabet)
    if data.draw(st.booleans()) and n > 2:  # a block of duplicate rows
        strings[n // 2:] = strings[data.draw(st.integers(0, n // 2 - 1))]
    if data.draw(st.booleans()):  # periodic rows: abab..., abcabc...
        period = min(data.draw(st.integers(1, 3)), m)
        rows = rng.random(n) < 0.5
        strings[rows] = np.tile(strings[rows, :period], m)[:, :m]
    csa = CircularShiftArray(strings)
    built = engine.csa_build(csa.strings)
    _assert_same_build(built, (csa.sorted_idx, csa.next_link))
    _assert_same_build(built, csa._build(packed_keys=True))
    _assert_same_build(built, csa._build(packed_keys=False))


def test_engine_builds_concurrently(engine):
    """The build holds no global state: 4 threads building 8 CSAs each at
    once get exactly what the same builds give one at a time."""
    rng = np.random.default_rng(5)
    alphabets = ("binary", "sixteen", "wide", "full")
    inputs = [
        [
            _alphabet_strings(rng, 1500 + 37 * j, 64, alphabets[(t + j) % 4])
            for j in range(8)
        ]
        for t in range(4)
    ]
    want = [[engine.csa_build(s) for s in row] for row in inputs]
    got = [[None] * 8 for _ in range(4)]
    start = threading.Barrier(4, timeout=30)

    def run(t):
        start.wait()
        for j, strings in enumerate(inputs[t]):
            got[t][j] = engine.csa_build(strings)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for t in range(4):
        for j in range(8):
            _assert_same_build(got[t][j], want[t][j])


def _sha1(arr):
    return hashlib.sha1(arr.tobytes()).hexdigest()


@pytest.mark.parametrize("family", ["random_projection", "minhash"])
def test_engine_build_sha1_at_serving_scale(engine, family):
    """n=10k, m=64 (the e2e bundle's shape): the engine's arrays hash the
    same as the rank-doubling build's."""
    from repro.data.synthetic import sift_like
    from repro.hashes.minhash import MinHashFamily
    from repro.hashes.random_projection import RandomProjectionFamily

    if family == "random_projection":
        strings = RandomProjectionFamily(128, 64, w=256.0, seed=1).hash(
            sift_like(10_000, 128, seed=1)
        )
    else:
        sets = np.random.default_rng(1).random((10_000, 128)) < 0.1
        strings = MinHashFamily(128, 64, seed=1).hash(sets.astype(np.float64))
    csa = CircularShiftArray(strings)
    fallback = csa._build()
    assert _sha1(csa.sorted_idx) == _sha1(fallback[0])
    assert _sha1(csa.next_link) == _sha1(fallback[1])
    assert csa.sorted_idx.dtype == fallback[0].dtype == np.uint16


def test_strings_are_stored_as_int64_codes():
    """Characters are int64 values, stored as codes: uint64 characters
    >= 2**63 would wrap and order differently, so they are refused; every
    other integer input is stored as the narrowest codes, decodes back to
    its int64 values, and the build, the engine and the scalar path see
    the same characters.  ``from_arrays`` adopts codes with their offset
    only."""
    rng = np.random.default_rng(3)
    values = np.array([0, 1, 2, 2**63 + 5], dtype=np.uint64)
    with pytest.raises(ValueError):
        CircularShiftArray(values[rng.integers(0, 4, size=(50, 8))])
    fits = values[:3][rng.integers(0, 3, size=(50, 8))]
    csa = CircularShiftArray(fits)
    assert csa.width == 1 and csa._doubled.dtype == np.uint8
    assert csa.strings.dtype == np.int64
    assert np.array_equal(csa.strings, fits.astype(np.int64))
    queries = values[:3][rng.integers(0, 3, size=(6, 8))].astype(np.int64)
    for q, (ids, lens) in zip(queries, csa.batch_k_lccs(queries, 9)):
        want_ids, want_lens = csa.k_lccs(q, 9)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(lens, want_lens)
    arrays = csa.export_arrays()
    for bad in (
        dict(arrays, doubled=arrays["doubled"].astype(np.int64)),
        dict(arrays, doubled=np.concatenate([csa.strings] * 2, axis=1)),
        {k: v for k, v in arrays.items() if k != "offset"},
    ):
        with pytest.raises(ValueError):
            CircularShiftArray.from_arrays(bad)


def test_paper_figure2_example():
    """Figure 2 / Example 3.2: I_1 = [1, 3, 2] and N_1 = [3, 1, 2] (1-based)."""
    o1 = [1, 2, 4, 5, 6, 6, 7, 8]
    o2 = [5, 2, 2, 4, 3, 6, 7, 8]
    o3 = [3, 1, 3, 5, 5, 6, 4, 9]
    csa = CircularShiftArray(np.array([o1, o2, o3]))
    # 0-based: I_1 (shift 0) sorts o1 < o3 < o2 -> ids [0, 2, 1]
    assert csa.sorted_idx[0].tolist() == [0, 2, 1]
    # N_1 maps ranks in I_1 to ranks in I_2; paper gives [3, 1, 2] 1-based.
    assert (csa.next_link[0] + 1).tolist() == [3, 1, 2]


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        CircularShiftArray(np.zeros((0, 4), dtype=int))
    with pytest.raises(ValueError):
        CircularShiftArray(np.zeros((4, 0), dtype=int))
    with pytest.raises(ValueError):
        CircularShiftArray(np.zeros(4, dtype=int))
    with pytest.raises(TypeError):
        CircularShiftArray(np.zeros((3, 3)))


def test_size_bytes_positive(rng):
    csa = CircularShiftArray(rng.integers(0, 5, size=(10, 4)))
    assert csa.size_bytes() > 0


def test_size_bytes_counts_each_exported_buffer_once(rng):
    """``strings`` decodes from ``doubled``: it is not stored."""
    csa = CircularShiftArray(rng.integers(0, 5, size=(10, 4)))
    assert "strings" not in csa.__dict__
    assert csa.size_bytes() == sum(
        arr.nbytes for arr in csa.export_arrays().values()
    )


# ----------------------------------------------------------------------
# Binary search (full and windowed)
# ----------------------------------------------------------------------

def test_binary_search_bounds_bracket_query(rng):
    strings = rng.integers(0, 3, size=(60, 7))
    csa = CircularShiftArray(strings)
    for _ in range(20):
        q = rng.integers(0, 3, size=7)
        qd = csa.query_rotations(q)
        for s in range(csa.m):
            b = csa.binary_search(s, qd[s : s + csa.m])
            q_rot = tuple(shift(q, s))
            if b.pos_lower >= 0:
                low = tuple(shift(strings[csa.sorted_idx[s][b.pos_lower]], s))
                assert low <= q_rot
            if b.pos_upper < csa.n:
                up = tuple(shift(strings[csa.sorted_idx[s][b.pos_upper]], s))
                assert up > q_rot
            # adjacent ranks: everything below pos_lower is <= query too
            assert b.pos_upper == b.pos_lower + 1


def test_windowed_search_matches_full_search(rng):
    """Chained (Lemma 3.1) searches agree with independent full searches."""
    strings = rng.integers(0, 3, size=(80, 10))
    csa = CircularShiftArray(strings)
    for _ in range(25):
        q = rng.integers(0, 3, size=10)
        qd = csa.query_rotations(q)
        chained = csa.search_all_shifts(q)
        for s, b in enumerate(chained):
            full = csa.binary_search(s, qd[s : s + csa.m])
            assert (b.pos_lower, b.pos_upper) == (full.pos_lower, full.pos_upper)
            assert (b.len_lower, b.len_upper) == (full.len_lower, full.len_upper)


def test_search_all_shifts_rejects_bad_length(rng):
    csa = CircularShiftArray(rng.integers(0, 3, size=(5, 4)))
    with pytest.raises(ValueError):
        csa.search_all_shifts(np.array([1, 2, 3]))


# ----------------------------------------------------------------------
# k-LCCS search (Algorithm 2) vs the brute-force oracle
# ----------------------------------------------------------------------

def assert_k_lccs_exact(strings, q, k):
    csa = CircularShiftArray(strings)
    ids, lens = csa.k_lccs(q, k)
    # no duplicates
    assert len(set(ids.tolist())) == len(ids)
    # reported length is the true LCCS length
    for i, l in zip(ids, lens):
        assert lccs_length(strings[i], q) == l
    # multiset of lengths matches the oracle's top-k
    oracle = brute_force_k_lccs(strings, q, k)
    want = sorted((lccs_length(strings[i], q) for i in oracle), reverse=True)
    assert sorted(lens.tolist(), reverse=True) == want
    # lengths are emitted in non-increasing order
    assert all(lens[i] >= lens[i + 1] for i in range(len(lens) - 1))


def test_k_lccs_exact_random(rng):
    strings = rng.integers(0, 3, size=(100, 12))
    for _ in range(20):
        q = rng.integers(0, 3, size=12)
        assert_k_lccs_exact(strings, q, 10)


def test_k_lccs_exact_large_alphabet(rng):
    strings = rng.integers(0, 1000, size=(80, 8))
    strings[: 10] = strings[0]  # duplicates
    for _ in range(10):
        q = strings[rng.integers(0, 80)].copy()
        q[rng.integers(0, 8)] += 1
        assert_k_lccs_exact(strings, q, 15)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_k_lccs_exact_property(data):
    n = data.draw(st.integers(2, 30))
    m = data.draw(st.integers(2, 10))
    alpha = data.draw(st.integers(1, 3))
    strings = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, alpha), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )
    q = np.array(data.draw(st.lists(st.integers(0, alpha), min_size=m, max_size=m)))
    k = data.draw(st.integers(1, n))
    assert_k_lccs_exact(strings, q, k)


def test_k_lccs_query_present_in_dataset(rng):
    strings = rng.integers(0, 4, size=(50, 9))
    q = strings[17].copy()
    csa = CircularShiftArray(strings)
    ids, lens = csa.k_lccs(q, 1)
    assert lens[0] == 9  # full-length match found
    assert lccs_length(strings[ids[0]], q) == 9


def test_k_lccs_all_identical_strings():
    strings = np.tile(np.array([1, 2, 3, 4]), (10, 1))
    csa = CircularShiftArray(strings)
    ids, lens = csa.k_lccs(np.array([1, 2, 3, 4]), 10)
    assert len(ids) == 10
    assert (lens == 4).all()


def test_k_lccs_single_string():
    csa = CircularShiftArray(np.array([[5, 6, 7]]))
    ids, lens = csa.k_lccs(np.array([5, 6, 0]), 3)
    assert ids.tolist() == [0]
    assert lens.tolist() == [2]


def test_k_lccs_k_exceeds_n(rng):
    strings = rng.integers(0, 3, size=(6, 5))
    csa = CircularShiftArray(strings)
    ids, lens = csa.k_lccs(rng.integers(0, 3, size=5), 50)
    assert len(ids) == 6  # everything returned once


def test_k_lccs_rejects_bad_k(rng):
    csa = CircularShiftArray(rng.integers(0, 3, size=(5, 4)))
    with pytest.raises(ValueError):
        csa.k_lccs(np.zeros(4, dtype=int), 0)


def test_rotation_view_matches_shift(rng):
    strings = rng.integers(0, 9, size=(7, 6))
    csa = CircularShiftArray(strings)
    for sid in range(7):
        for s in range(6):
            rot = csa.rotation(sid, s)
            assert rot.tolist() == shift(csa.encode(strings[sid]), s).tolist()
