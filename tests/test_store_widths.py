"""The vector store's type: the narrowest one that holds the vectors exactly.

``narrow_store`` picks the first of uint8, int8, uint16, int16, float32
and float64 that every value round-trips through bit for bit; here the
values sit on each edge of that choice.  Whatever the type, answers are
byte-identical to a float64 store of the same values — on the engine
and on the scalar path, for every metric the verify kernels serve, at
B = 1 and 13, with and without multi-probe — and every hash family
hashes a narrow array exactly as its float64 widening.  A dynamic store
widens when an insert does not fit and stays exact through seals,
compactions, bundles and recovery.  Queries of any type are read as
float64 (integer queries against an integer store used to wrap).
"""

import numpy as np
import pytest

from repro import ANNService, DynamicLCCSLSH, IndexSpec, LCCSLSH
from repro import hashes
from repro.core.store import STORE_DTYPES, narrow_store
from repro.data.synthetic import sift_like
from repro.serve import load_index, save_index
from repro.serve.durability import DurableIndex, recover
from tests.helpers import assert_matches_oracle, engine_detached, oracle_query

DIM, K = 8, 5
F32_SUBNORMAL = float(np.float32(1e-45))

EDGES = [
    ([0.0, 255.0], "u1"),
    ([0.0, 256.0], "u2"),
    ([-128.0, 127.0], "i1"),
    ([-129.0, 0.0], "i2"),
    ([-1.0, 255.0], "i2"),
    ([65_535.0], "u2"),
    ([65_536.0], "f4"),
    ([-1.0, 65_535.0], "f4"),
    ([-0.0], "f4"),
    ([0.0, -0.0, 3.0], "f4"),
    ([np.nan], "f8"),
    ([1.0, np.nan], "f8"),
    ([np.inf, 2.0], "f4"),
    ([-np.inf], "f4"),
    ([0.5, 3.25], "f4"),
    ([0.1], "f8"),
    ([5e-324], "f8"),
    ([F32_SUBNORMAL], "f4"),
    ([1e300], "f8"),
]


def _bits(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return arr.view(np.uint64)


@pytest.mark.parametrize("values,want", EDGES)
def test_store_dtype_edges(values, want):
    data = np.array(values, dtype=np.float64).reshape(1, -1)
    got = narrow_store(data)
    assert got.dtype == np.dtype(want)
    assert got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(data))  # bit for bit


@pytest.mark.parametrize(
    "data,want",
    [
        (np.array([[2**53 + 1, 7]], dtype=np.int64), "f4"),  # 2^53 in float64
        (np.array([[2**53 + 2, 7]], dtype=np.int64), "f8"),
        (np.array([[3, 200]], dtype=np.int64), "u1"),
        (np.array([[True, False]]), "u1"),
        (np.array([[0.5, -2.0]], dtype=np.float16), "f4"),
        (np.array([[1, 300]], dtype=np.uint16), "u2"),
        (np.array([[1, 200]], dtype=np.uint16), "u1"),
        (np.array([[-3, 5]], dtype=np.int16), "i1"),
        (np.array([[-3, 5]], dtype=np.int8), "i1"),  # not 253 as uint8
        (np.array([[-1000, 5]], dtype=np.int16), "i2"),  # not uint16
        (np.array([[-30_000, 5]], dtype=np.int16), "i2"),
        (np.array([[-3.0, 5.0]], dtype=np.float32), "i1"),
        (np.array([[-0.0, 4.0]], dtype=np.float32), "f4"),
        (np.array([[7.0, 4.0]], dtype=np.float32), "u1"),
    ],
)
def test_other_input_types_are_read_as_float64(data, want):
    """int64, bool and float16 go through float64 first (int64 above
    2^53 loses what every distance computation already lost); a narrow
    input narrows further when its values allow."""
    got = narrow_store(data)
    assert got.dtype == np.dtype(want)
    assert np.array_equal(_bits(got), _bits(data.astype(np.float64)))


def test_float64_input_is_kept_or_copied():
    data = np.random.default_rng(0).normal(size=(4, DIM))
    assert narrow_store(data) is data
    copied = narrow_store(data, copy=True)
    assert copied is not data and np.array_equal(copied, data)


@pytest.mark.parametrize("dtype", ["i1", "i2"])
def test_static_fit_on_signed_input_keeps_its_values(dtype):
    data = np.random.default_rng(16).integers(-100, 101, size=(50, DIM))
    index = LCCSLSH(dim=DIM, m=12, w=40.0, seed=4).fit(data.astype(dtype))
    assert index._data.dtype == np.int8
    assert np.array_equal(index._data.astype(np.int64), data)


# ----------------------------------------------------------------------
# Answers: a narrow store answers exactly as the float64 store
# ----------------------------------------------------------------------

def _rows(dtype, n, seed):
    """``n`` rows whose narrowest exact store type is ``dtype``, held as
    float64; no row is zero (angular distance needs a norm)."""
    rng = np.random.default_rng(seed)
    ints = rng.integers(1, 120, size=(n, DIM)).astype(np.float64)
    edge = {
        "u1": 255.0, "i1": -100.0, "u2": 60_000.0, "i2": -30_000.0,
        "f4": 0.375, "f8": 0.1,
    }[np.dtype(dtype).str[1:]]
    ints[rng.integers(0, n, size=3), rng.integers(0, DIM, size=3)] = edge
    if np.dtype(dtype).kind == "f":
        ints += rng.integers(0, 8, size=(n, DIM)) * edge
    return ints


def _index(metric, data, seed=3):
    if metric == "hamming":
        return LCCSLSH(dim=DIM, m=16, metric="hamming", seed=seed).fit(data)
    if metric == "angular":
        return LCCSLSH(dim=DIM, m=16, metric="angular", cp_dim=4, seed=seed).fit(data)
    index = LCCSLSH(dim=DIM, m=16, w=40.0, seed=seed).fit(data)
    index.metric = metric  # the random-projection family, another metric
    return index


def _float64_twin(index):
    """The same index over a float64 store of the same values."""
    twin = _index(index.metric, np.asarray(index._data, dtype=np.float64))
    twin._data = np.ascontiguousarray(index._data, dtype=np.float64)
    return twin


def _answers(index, queries, n_probes):
    out = [index.batch_query(queries, k=K, n_probes=n_probes)]
    out.append(index.batch_query(queries[:1], k=K, n_probes=n_probes))
    for q in queries[:3]:
        out.append(index.query(q, k=K, n_probes=n_probes))
    return [(ids.tobytes(), dists.tobytes()) for ids, dists in out]


CASES = [
    ("euclidean", "u1"), ("euclidean", "i1"), ("euclidean", "u2"),
    ("euclidean", "i2"), ("euclidean", "f4"), ("squared_euclidean", "u1"),
    ("squared_euclidean", "i2"), ("manhattan", "u1"), ("manhattan", "f4"),
    ("angular", "u1"), ("angular", "i1"), ("hamming", "u1"),
    ("hamming", "u2"),
]


@pytest.mark.parametrize("n_probes", [1, 5])
@pytest.mark.parametrize("metric,dtype", CASES)
def test_narrow_store_answers_like_float64(metric, dtype, n_probes):
    if metric == "hamming" and dtype == "u1":
        data = np.random.default_rng(5).integers(0, 2, size=(120, DIM))
        data = data.astype(np.float64)
        queries = np.random.default_rng(6).integers(0, 2, size=(13, DIM))
    else:
        data = _rows(dtype, 120, seed=5)
        queries = _rows(dtype, 13, seed=6)
    index = _index(metric, data)
    assert index._data.dtype == np.dtype(dtype)
    if n_probes > 1 and metric == "hamming" and dtype != "u1":
        pytest.skip("bit sampling probes binary data only")
    twin = _float64_twin(index)
    assert _answers(index, queries, n_probes) == _answers(twin, queries, n_probes)
    with engine_detached(index), engine_detached(twin):
        want = _answers(twin, queries, n_probes)
        assert _answers(index, queries, n_probes) == want


# ----------------------------------------------------------------------
# Hashing: a narrow array hashes as its float64 widening
# ----------------------------------------------------------------------

FAMILIES = [
    lambda: hashes.RandomProjectionFamily(DIM, 12, w=30.0, seed=1),
    lambda: hashes.CauchyProjectionFamily(DIM, 12, w=30.0, seed=1),
    lambda: hashes.CrossPolytopeFamily(DIM, 12, cp_dim=4, seed=1),
    lambda: hashes.HyperplaneFamily(DIM, 12, seed=1),
    lambda: hashes.BitSamplingFamily(DIM, 12, seed=1),
    lambda: hashes.MinHashFamily(DIM, 12, seed=1),
]


def test_every_family_is_listed():
    listed = {type(make()).__name__ for make in FAMILIES}
    exported = {
        name for name in hashes.__all__
        if name.endswith("Family") and name != "HashFamily"
    }
    assert listed == exported


@pytest.mark.parametrize("make", FAMILIES)
@pytest.mark.parametrize("dtype", ["u1", "i1", "u2", "i2", "f4"])
def test_hash_of_narrow_equals_hash_of_float64(make, dtype):
    family = make()
    data = _rows(dtype, 40, seed=9)
    if family.metric in ("hamming", "jaccard"):
        data = (data > 100).astype(np.float64)
    narrow = narrow_store(data)
    assert narrow.dtype in STORE_DTYPES
    want = family.hash(narrow.astype(np.float64))
    assert np.array_equal(family.hash(narrow), want)
    assert np.array_equal(family.hash(narrow[0]), want[0])


# ----------------------------------------------------------------------
# Integer queries (regression: uint8 - uint8 wrapped in verification)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("detached", [False, True])
@pytest.mark.parametrize("cls", [LCCSLSH, DynamicLCCSLSH])
def test_integer_queries_answer_like_float64_queries(cls, detached):
    data = sift_like(2000, 128, seed=1)
    index = cls(dim=128, m=64, w=256, seed=1).fit(data.astype(np.uint8))
    queries = data[:5]
    with engine_detached(index) if detached else _nothing():
        want_ids, want_dists = index.batch_query(queries, k=2)
        got_ids, got_dists = index.batch_query(queries.astype(np.uint8), k=2)
        assert got_ids.tobytes() == want_ids.tobytes()
        assert got_dists.tobytes() == want_dists.tobytes()
        assert (got_dists[:, 1] > 50).all()  # not a wrapped difference
        for q in queries[:2]:
            one = index.query(q.astype(np.uint8), k=2)
            assert one[1].tobytes() == index.query(q, k=2)[1].tobytes()


class _nothing:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


# ----------------------------------------------------------------------
# The dynamic store: widening on insert, then every path that rebuilds
# ----------------------------------------------------------------------

SPEC = IndexSpec("DynamicLCCSLSH", dim=DIM, m=12, w=40.0, seed=4, memtable_size=6)
QUERIES = np.random.default_rng(12).integers(0, 255, size=(13, DIM)).astype(float)


def _assert_oracle(index, what):
    ids, dists = index.batch_query(QUERIES, k=K)
    for qi, q in enumerate(QUERIES):
        want = oracle_query(index, q, K)
        n = len(want[0])
        assert_matches_oracle((ids[qi, :n], dists[qi, :n]), want, what)
    return ids.tobytes() + dists.tobytes()


def test_dynamic_store_widens_and_stays_exact(tmp_path):
    rng = np.random.default_rng(13)
    base = rng.integers(0, 255, size=(40, DIM)).astype(np.float64)
    wal_dir = str(tmp_path / "wal")
    durable = DurableIndex(SPEC.build(), wal_dir, fsync="off", spec=SPEC)
    durable.fit(base)
    index = durable.inner
    assert index._store.dtype == np.uint8
    widths = []
    for fill in (300.0, 0.5, 0.1):
        for _ in range(3):
            durable.insert(rng.integers(0, 255, size=DIM).astype(np.float64))
        vector = rng.integers(0, 255, size=DIM).astype(np.float64)
        vector[0] = fill
        handle = durable.insert(vector)
        widths.append(index._store.dtype.str[1:])
        got = index.get_vector(handle)
        assert got.dtype == np.float64 and np.array_equal(_bits(got), _bits(vector))
        _assert_oracle(index, f"after inserting {fill}")
    assert widths == ["u2", "f4", "f8"]
    durable.delete(3)
    index.flush()  # seal
    _assert_oracle(index, "after a seal")
    assert index.compact()
    digest = _assert_oracle(index, "after a compaction")
    assert index._store.dtype == np.float64  # never narrows back
    path = str(tmp_path / "dynamic.bundle")
    save_index(index, path)
    for mmap in (False, True):
        loaded = load_index(path, mmap=mmap)
        assert loaded._store.dtype == np.float64
        assert _assert_oracle(loaded, f"loaded, mmap={mmap}") == digest
    durable.close()
    recovered = recover(wal_dir).index
    assert _assert_oracle(recovered, "recovered") == digest


@pytest.mark.parametrize("low,want", [(-100, "i1"), (-30_000, "i2")])
def test_dynamic_store_of_negative_integers_stays_exact(low, want):
    """Segments fit on rows read from a signed store: each one holds the
    values it was given (a signed store re-read as unsigned used to
    pass its own round trip and store ``-3`` as ``253``)."""
    rng = np.random.default_rng(15)
    data = rng.integers(low, 101, size=(70, DIM)).astype(np.float64)
    data[0, 0] = low
    index = SPEC.build().fit(data[:40])

    def check(what):
        assert index._store.dtype == np.dtype(want), what
        assert np.array_equal(index._vectors.astype(np.float64), data[: index.n])
        for seg in index._state.segments:
            assert seg.inner._data.dtype == np.dtype(want), what
            rows = seg.inner._data.astype(np.float64)
            assert np.array_equal(rows, data[seg.handles]), what
        ids, dists = index.batch_query(QUERIES, k=K)
        for qi, q in enumerate(QUERIES):
            want_dists = np.linalg.norm(data[ids[qi]] - q, axis=1)
            np.testing.assert_allclose(dists[qi], want_dists, rtol=1e-12)
        _assert_oracle(index, what)

    check("after fit")
    for row in data[40:]:
        index.insert(row)
    assert index.seals >= 2
    check("after seals")
    assert index.compact()
    check("after a compaction")


def test_segments_and_store_narrow_at_fit(tmp_path):
    data = sift_like(300, DIM, seed=3)
    index = SPEC.build().fit(data)
    for row in sift_like(20, DIM, seed=4):
        index.insert(row)
    assert index._store.dtype == np.uint8
    segments = index._state.segments
    assert len(segments) >= 2
    assert all(seg.inner._data.dtype == np.uint8 for seg in segments)
    path = str(tmp_path / "b")
    save_index(index, path)
    for mmap in (False, True):
        loaded = load_index(path, mmap=mmap)
        assert loaded._store.dtype == np.uint8
        assert _assert_oracle(loaded, "loaded") == _assert_oracle(index, "fitted")


# ----------------------------------------------------------------------
# The result cache over a narrow store
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dynamic", [False, True])
def test_cached_hits_equal_misses_on_a_narrow_store(dynamic):
    data = sift_like(500, DIM, seed=8)
    if dynamic:
        index = SPEC.build().fit(data)
        twin = SPEC.build().fit(data)
    else:
        index = LCCSLSH(dim=DIM, m=12, w=40.0, seed=4).fit(data)
        twin = LCCSLSH(dim=DIM, m=12, w=40.0, seed=4).fit(data)
    assert index.n == 500
    with ANNService(index, cache_size=64) as service:
        for q in QUERIES:
            miss = service.query(q, k=K)
            hit = service.query(q, k=K)
            want = twin.query(q, k=K)
            for got in (miss, hit):
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
        assert service.stats()["cache_hits"] >= len(QUERIES)
