"""Bundle format v5 (narrow vector stores) and reading what v2–v4 wrote.

Format v3 stores each CSA's hash strings as unsigned codes of the
narrowest width that holds them, plus the offset that decodes them;
format v4 also stores the ranks of a CSA of at most 65 536 strings as
uint16; format v5 also stores the vectors in the narrowest exact type.
A v3 bundle's int32 ranks and a v4 bundle's float64 vectors load as
they are, in place.  The fixtures under ``tests/fixtures/format_v3``
were written by :func:`write_v3_fixtures` run on the last v3 release of
this library, and those under ``tests/fixtures/format_v4`` by
:func:`write_v4_fixtures` on the last v4 release, with the digests of
their answers.

Format v2 stored the strings as int64; this library still reads it,
encoding the int64 strings once at load.  The fixtures under
``tests/fixtures/format_v2`` were written by :func:`write_v2_fixtures`
run on the last v2 release of this library, together with the digests
of its answers (``expected.json``): a static bundle per code width and
a durable directory — a v2 snapshot of a dynamic index plus the WAL
suffix recorded after it.  (The v2 library also wrote pickle-serializer
bundles for baselines; those are refused now, see
``test_persistence_roundtrip``.)
"""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from repro import DynamicLCCSLSH, IndexSpec, LCCSLSH
from repro.core.store import narrow_store
from repro.data.synthetic import sift_like, sparse_sets
from repro.serve import FORMAT_VERSION, load_index, read_manifest, save_index
from repro.serve.durability import DurableIndex, SnapshotManager, recover
from tests.helpers import _csas

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "format_v2")
V3_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "format_v3")
V4_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "format_v4")
K = 5
SPEC = IndexSpec(
    "DynamicLCCSLSH", dim=8, m=16, w=1.0, seed=7, memtable_size=8
)


def _queries(name):
    if name == "minhash":
        return sparse_sets(13, 64, avg_size=8, seed=21).astype(np.float64)
    return np.random.default_rng(21).normal(size=(13, 8))


def _build(name):
    data = np.random.default_rng(20).normal(size=(150, 8))
    if name == "lccs":
        return LCCSLSH(dim=8, m=16, w=1.0, seed=1).fit(data)
    data = sparse_sets(120, 64, avg_size=8, seed=20).astype(np.float64)
    return LCCSLSH(dim=64, m=8, metric="jaccard", seed=2).fit(data)


def answer_digest(index, queries):
    """sha1 over ``batch_query`` at B = 13 and ``query`` per row."""
    ids, dists = index.batch_query(queries, k=K)
    h = hashlib.sha1(ids.tobytes() + dists.tobytes())
    for q in queries:
        got_ids, got_dists = index.query(q, k=K)
        h.update(got_ids.tobytes() + got_dists.tobytes())
    return h.hexdigest()


def write_v2_fixtures(root):
    """Write the fixtures and ``expected.json`` under ``root``."""
    expected = {}
    for name in ("lccs", "minhash"):
        index = _build(name)
        save_index(index, os.path.join(root, f"{name}.bundle"))
        expected[name] = answer_digest(index, _queries(name))
    wal_dir = os.path.join(root, "durable")
    rng = np.random.default_rng(22)
    durable = DurableIndex(
        SPEC.build(), wal_dir, fsync="off", spec=SPEC,
        snapshots=SnapshotManager(wal_dir, keep=1),
    )
    durable.fit(rng.normal(size=(60, 8)))
    for _ in range(20):
        durable.insert(rng.normal(size=8))
    durable.checkpoint()
    for _ in range(12):  # the WAL suffix recovery replays
        durable.insert(rng.normal(size=8))
    for handle in (3, 61, 75):
        durable.delete(handle)
    expected["durable"] = answer_digest(durable.inner, _queries("durable"))
    durable.close()
    with open(os.path.join(root, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)


def write_v3_fixtures(root):
    """Write a static and a dynamic (several segments) bundle and their
    ``expected.json`` under ``root``."""
    index = _build("lccs")
    save_index(index, os.path.join(root, "lccs.bundle"))
    expected = {"lccs": answer_digest(index, _queries("lccs"))}
    rng = np.random.default_rng(23)
    dynamic = SPEC.build()
    dynamic.fit(rng.normal(size=(60, 8)))
    for _ in range(40):
        dynamic.insert(rng.normal(size=8))
    for handle in (3, 61, 95):
        dynamic.delete(handle)
    assert dynamic.tier_stats()["segments"] >= 2
    save_index(dynamic, os.path.join(root, "dynamic.bundle"))
    expected["dynamic"] = answer_digest(dynamic, _queries("dynamic"))
    with open(os.path.join(root, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)


V4_SPEC = IndexSpec(
    "DynamicLCCSLSH", dim=8, m=16, w=16.0, seed=7, memtable_size=8
)


def _v4_queries():
    """Integer-valued queries, like the v4 fixtures' rows."""
    return sift_like(13, 8, n_clusters=4, seed=21)


def write_v4_fixtures(root):
    """Write a static and a dynamic (several segments) bundle over
    integer-valued rows, and their ``expected.json``, under ``root``.

    The rows are SIFT-like integers in 0..255 held as float64: a v4
    bundle stores them as float64, where a v5 build would store uint8.
    """
    index = LCCSLSH(dim=8, m=16, w=16.0, seed=1).fit(
        sift_like(150, 8, n_clusters=4, seed=20)
    )
    save_index(index, os.path.join(root, "lccs.bundle"))
    expected = {"lccs": answer_digest(index, _v4_queries())}
    rows = sift_like(100, 8, n_clusters=4, seed=23)
    dynamic = V4_SPEC.build()
    dynamic.fit(rows[:60])
    for row in rows[60:]:
        dynamic.insert(row)
    for handle in (3, 61, 95):
        dynamic.delete(handle)
    assert dynamic.tier_stats()["segments"] >= 2
    save_index(dynamic, os.path.join(root, "dynamic.bundle"))
    expected["dynamic"] = answer_digest(dynamic, _v4_queries())
    with open(os.path.join(root, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)


def _expected(root=FIXTURES):
    with open(os.path.join(root, "expected.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize("name,width", [("lccs", 1), ("minhash", 8)])
def test_v2_bundle_answers_like_the_v2_library(name, width, mmap):
    path = os.path.join(FIXTURES, f"{name}.bundle")
    assert read_manifest(path)["format_version"] == 2
    index = load_index(path, mmap=mmap)
    assert index.csa.width == width
    assert index.csa.export_arrays()["doubled"].dtype == np.dtype(f"u{width}")
    assert answer_digest(index, _queries(name)) == _expected()[name]
    assert index.hash_strings.dtype == np.int64


@pytest.mark.parametrize("mmap", [False, True])
def test_v2_durable_directory_recovers(tmp_path, mmap):
    wal_dir = str(tmp_path / "durable")
    shutil.copytree(os.path.join(FIXTURES, "durable"), wal_dir)
    result = recover(wal_dir, mmap=mmap)
    assert result.corrupt == []  # the v2 snapshot was read, not skipped
    assert result.snapshot_seq > 0 and result.replayed == 15
    assert isinstance(result.index, DynamicLCCSLSH)
    digest = answer_digest(result.index, _queries("durable"))
    assert digest == _expected()["durable"]


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize("name", ["lccs", "dynamic"])
def test_v3_bundle_serves_int32_ranks_in_place(name, mmap):
    """A v3 bundle's int32 ranks are what the loaded CSAs hold — the
    arrays read from the bundle, memory maps when ``mmap`` — and the
    answers are the v3 library's."""
    path = os.path.join(V3_FIXTURES, f"{name}.bundle")
    assert read_manifest(path)["format_version"] == 3
    index = load_index(path, mmap=mmap)
    csas = _csas(index)
    assert len(csas) == (1 if name == "lccs" else 2)
    for csa in csas:
        for ranks in (csa.sorted_idx, csa.next_link):
            assert ranks.dtype == np.int32
            assert isinstance(ranks.base, np.memmap) == mmap
    assert answer_digest(index, _queries(name)) == _expected(V3_FIXTURES)[name]


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize("name", ["lccs", "dynamic"])
def test_v4_bundle_serves_float64_vectors_in_place(name, mmap):
    """A v4 bundle's float64 vectors are what the loaded index holds —
    the arrays read from the bundle, memory maps when ``mmap`` — though
    its integer values would narrow to uint8 at a fit; the answers are
    the v4 library's."""
    path = os.path.join(V4_FIXTURES, f"{name}.bundle")
    assert read_manifest(path)["format_version"] == 4
    index = load_index(path, mmap=mmap)
    stores = [index._data]
    if name == "dynamic":
        stores = [index._store] + [seg.inner._data for seg in index._state.segments]
        assert len(stores) == 3
    for store in stores:
        assert store.dtype == np.float64
        mapped = isinstance(store, np.memmap) or isinstance(store.base, np.memmap)
        assert mapped == mmap
        assert narrow_store(store).dtype == np.uint8
    want = _expected(V4_FIXTURES)[name]
    assert answer_digest(index, _v4_queries()) == want


@pytest.mark.parametrize("name", ["lccs", "minhash"])
def test_save_writes_v3_codes(tmp_path, name):
    index = _build(name)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    manifest = read_manifest(path)
    assert manifest["format_version"] == FORMAT_VERSION == 5
    codes = manifest["array_index"]["csa.doubled"]
    assert np.dtype(codes["dtype"]) == np.dtype(f"u{index.csa.width}")
    assert "csa.offset" in manifest["array_index"]
    for ranks in ("csa.sorted_idx", "csa.next_link"):
        assert manifest["array_index"][ranks]["dtype"] == "<u2"
    for mmap in (False, True):
        loaded = load_index(path, mmap=mmap)
        assert answer_digest(loaded, _queries(name)) == _expected()[name]
        assert np.array_equal(loaded.hash_strings, index.hash_strings)


def test_hash_strings_decode_to_the_hash_values():
    """``hash_strings`` is the family's int64 output, decoded from codes."""
    for name in ("lccs", "minhash"):
        index = _build(name)
        want = index.family.hash(index._data)
        assert index.hash_strings.dtype == np.int64
        assert np.array_equal(index.hash_strings, want)
