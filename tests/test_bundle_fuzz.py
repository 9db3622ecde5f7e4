"""Bundle fuzzer: one change at a time, two allowed outcomes.

A small ``LCCSLSH`` bundle and a small aged ``DynamicLCCSLSH`` bundle
(several segments, a memtable, tombstones) are written once.  Every
example copies one of them, changes exactly one thing — a manifest
``array_index`` shape, dtype or offset, the ``serializer``, the
``class``, one entry of the dynamic index's segment list, a truncated
``.npy`` file, one value written into ``sorted_idx``, ``next_link``
or ``handles``, the type of one such array or of a vector store
(manifest entry to match), or an array's file moved out of the bundle
with its entry pointing at it — and opens the copy eagerly or
memory-mapped.  The only allowed outcomes are :class:`BundleError` at
load, or ``batch_query`` at B = 1 and B = 13 answering with ids in
``[-1, n)``; a bundle whose manifest names a file outside it, or that
holds its vectors in a type other than the store types, must be
refused, and one re-typed to another store type must answer.  Anything else — an other exception, an id
outside the index, a dead process — fails.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DynamicLCCSLSH, LCCSLSH
from repro.serve import BundleError, index_registry, load_index, save_index

DIM = 8
K = 5
QUERIES = np.random.default_rng(31).normal(size=(13, DIM))


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """``{"lccs": path, "dynamic": path}``: the bundles every example copies."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(30)
    data = rng.normal(size=(60, DIM))
    static = LCCSLSH(dim=DIM, m=8, w=2.0, seed=4).fit(data)
    dynamic = DynamicLCCSLSH(dim=DIM, m=8, w=2.0, seed=4, memtable_size=8)
    dynamic.fit(data)
    for _ in range(20):
        dynamic.insert(rng.normal(size=DIM))
    for handle in (2, 61, 75):
        dynamic.delete(handle)
    assert dynamic.tier_stats()["segments"] >= 2 and dynamic.buffer_size
    paths = {}
    for name, index in (("lccs", static), ("dynamic", dynamic)):
        paths[name] = str(root / f"{name}.bundle")
        save_index(index, paths[name])
    return paths


def _manifest(path):
    with open(os.path.join(path, "manifest.json")) as f:
        return json.load(f)


def _write_manifest(path, manifest):
    with open(os.path.join(path, "manifest.json"), "w") as f:
        json.dump(manifest, f)


def _rank_arrays(manifest):
    """Arrays whose values index rows: CSA ranks and segment handles."""
    return sorted(
        name for name in manifest["array_index"]
        if name.endswith(("csa.sorted_idx", "csa.next_link", ".handles"))
    )


# ----------------------------------------------------------------------
# Mutations: each takes (path, manifest, data) and changes one thing
# ----------------------------------------------------------------------

def _entry_field(path, manifest, data):
    name = data.draw(st.sampled_from(sorted(manifest["array_index"])))
    entry = manifest["array_index"][name]
    field = data.draw(st.sampled_from(["shape", "dtype", "offset"]))
    if field == "shape":
        shape = list(entry["shape"])
        entry["shape"] = data.draw(st.one_of(
            st.just(shape + [1]),
            st.just(shape[:-1]),
            st.lists(st.integers(0, 200), max_size=3),
            st.just(None),
        ))
    elif field == "dtype":
        entry["dtype"] = data.draw(st.sampled_from(
            ["|u1", "<u2", "<i4", "<i8", "<f8", ">i4", "<f4", "nonsense", 7]
        ))
    else:
        entry["offset"] = data.draw(st.integers(-1, 1 << 20))
    _write_manifest(path, manifest)


def _serializer(path, manifest, data):
    manifest["serializer"] = data.draw(
        st.sampled_from(["pickle", "numpy", "", None, 3])
    )
    _write_manifest(path, manifest)


def _class(path, manifest, data):
    names = sorted(index_registry())
    manifest["class"] = data.draw(
        st.sampled_from(names + ["NoSuchIndex", None, 5, ["LCCSLSH"]])
    )
    _write_manifest(path, manifest)


def _segment_entry(path, manifest, data):
    segments = manifest["state"].get("segments")
    if not segments:  # static bundle: mutate its state instead
        key = data.draw(st.sampled_from(sorted(manifest["state"])))
        manifest["state"][key] = data.draw(
            st.sampled_from([None, 0, 3, -1, "x", [], {}])
        )
        _write_manifest(path, manifest)
        return
    i = data.draw(st.integers(0, len(segments) - 1))
    how = data.draw(st.sampled_from(
        ["drop", "duplicate", "swap", "not-a-dict", "class", "dim", "m",
         "format_version", "state-key"]
    ))
    seg = segments[i]
    if how == "drop":
        del segments[i]
    elif how == "duplicate":
        segments.insert(i, dict(seg))
    elif how == "swap" and len(segments) > 1:
        j = (i + 1) % len(segments)
        segments[i], segments[j] = segments[j], segments[i]
    elif how == "not-a-dict":
        segments[i] = data.draw(st.sampled_from([None, "seg", 1, []]))
    elif how == "class":
        seg["class"] = data.draw(st.sampled_from(
            ["LinearScan", "DynamicLCCSLSH", "E2LSH", "QALSH"]
        ))
    elif how == "dim":
        seg["dim"] = data.draw(st.sampled_from([DIM - 1, DIM + 1, 0]))
    elif how == "m":
        seg["state"]["m"] = data.draw(st.sampled_from([2, 4, 16]))
    elif how == "format_version":
        seg["format_version"] = data.draw(st.sampled_from([1, 2, 5]))
    else:
        key = data.draw(st.sampled_from(sorted(seg["state"])))
        seg["state"][key] = data.draw(st.sampled_from([None, 0, "x", []]))
    _write_manifest(path, manifest)


def _truncate(path, manifest, data):
    name = data.draw(st.sampled_from(sorted(manifest["array_index"])))
    fpath = os.path.join(path, manifest["array_index"][name]["file"])
    size = os.path.getsize(fpath)
    keep = data.draw(st.integers(0, size - 1))
    with open(fpath, "r+b") as f:
        f.truncate(keep)


def _rank_value(path, manifest, data):
    name = data.draw(st.sampled_from(_rank_arrays(manifest)))
    fpath = os.path.join(path, manifest["array_index"][name]["file"])
    arr = np.load(fpath)
    if arr.size == 0:
        return
    info = np.iinfo(arr.dtype)
    # Out of range (the point of the check) or in range but wrong: the
    # kernels must survive ranks that are not a permutation, too.
    bound = arr.shape[-1] if "csa." in name else int(arr.max()) + 1
    specials = [-1, bound, bound + 5, info.max, info.min]
    value = data.draw(st.one_of(
        st.sampled_from([v for v in specials if info.min <= v <= info.max]),
        st.integers(int(info.min), int(info.max)),
        st.integers(0, max(0, bound - 1)),
    ))
    flat = arr.reshape(-1).copy()
    flat[data.draw(st.integers(0, flat.size - 1))] = value
    np.save(fpath, flat.reshape(arr.shape))


def _rank_dtype(path, manifest, data):
    """One rank or handle array re-typed, its manifest entry to match:
    narrowed values wrap, and the two rank arrays of a CSA may differ."""
    name = data.draw(st.sampled_from(_rank_arrays(manifest)))
    entry = manifest["array_index"][name]
    fpath = os.path.join(path, entry["file"])
    dtype = np.dtype(data.draw(st.sampled_from(
        ["u1", "<u2", "<i2", "<i4", "<u4", "<i8", ">i4", "<f8"]
    )))
    np.save(fpath, np.load(fpath).astype(dtype))
    entry["dtype"] = dtype.str
    _write_manifest(path, manifest)


#: the vector store's types: a format-5 bundle holding its vectors in
#: anything else is refused
STORE_TYPES = ["u1", "i1", "<u2", "<i2", "<f4", "<f8"]


def _store_dtype(path, manifest, data):
    """One vector store (``data``, ``store`` or a segment's data)
    re-typed, its manifest entry to match: a store type loads (values
    may wrap) and answers; any other type is refused."""
    names = sorted(
        n for n in manifest["array_index"] if n in ("data", "store")
        or n.endswith(".data")
    )
    name = data.draw(st.sampled_from(names))
    entry = manifest["array_index"][name]
    fpath = os.path.join(path, entry["file"])
    dtype = np.dtype(data.draw(st.sampled_from(
        STORE_TYPES + ["<u4", "<i8", "<f2", "?", "<c16", ">f8"]
    )))
    with np.errstate(all="ignore"):
        np.save(fpath, np.load(fpath).astype(dtype))
    entry["dtype"] = dtype.str
    _write_manifest(path, manifest)
    return "load" if dtype in map(np.dtype, STORE_TYPES) else True


def _escape(path, manifest, data):
    """One array's file moved out of the bundle, its manifest entry
    naming the new place by absolute path or by ``../``.  Refused."""
    name = data.draw(st.sampled_from(sorted(manifest["array_index"])))
    entry = manifest["array_index"][name]
    outside = os.path.join(os.path.dirname(path), "outside")
    os.makedirs(outside, exist_ok=True)
    moved = os.path.join(outside, os.path.basename(entry["file"]))
    shutil.move(os.path.join(path, entry["file"]), moved)
    entry["file"] = data.draw(st.sampled_from(
        [moved, os.path.relpath(moved, path)]
    ))
    _write_manifest(path, manifest)
    return True


MUTATIONS = {
    "entry": _entry_field,
    "serializer": _serializer,
    "class": _class,
    "segment": _segment_entry,
    "truncate": _truncate,
    "rank": _rank_value,
    "rank-dtype": _rank_dtype,
    "store-dtype": _store_dtype,
    "escape": _escape,
}


def _check_outcome(path, mmap, refuse=False):
    """BundleError at load, or (unless ``refuse``) answers with ids
    inside the index; ``refuse="load"`` insists on the answers."""
    try:
        index = load_index(path, mmap=mmap)
    except BundleError:
        assert refuse != "load", "refused a bundle that must load"
        return
    assert refuse in (False, "load"), "loaded a bundle that must be refused"
    for batch in (1, 13):
        ids, dists = index.batch_query(QUERIES[:batch], k=K)
        assert ids.shape == dists.shape == (batch, K)
        assert ((ids >= -1) & (ids < index.n)).all(), ids


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(["lccs", "dynamic"]),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    mmap=st.booleans(),
    data=st.data(),
)
def test_mutated_bundle_is_refused_or_answers_inside_the_index(
    pristine, kind, mutation, mmap, data
):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "bundle")
        shutil.copytree(pristine[kind], path)
        refuse = MUTATIONS[mutation](path, _manifest(path), data)
        _check_outcome(path, mmap, refuse=refuse or False)


class _TouchOnUnpickle:
    """Unpickling an instance creates ``path`` (via ``__reduce__``)."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.mark.parametrize("kind", ["lccs", "dynamic"])
def test_pickle_payload_never_runs(pristine, kind, tmp_path, monkeypatch):
    """A ``__pickle__`` array that would create a file if unpickled,
    added to a real bundle and named by its manifest (what earlier
    builds wrote for the baselines): refused before any array is
    opened, and the file never appears."""
    sentinel = tmp_path / "unpickled"
    path = str(tmp_path / "bundle")
    shutil.copytree(pristine[kind], path)
    payload = np.frombuffer(
        pickle.dumps(_TouchOnUnpickle(str(sentinel))), dtype=np.uint8
    )
    np.save(os.path.join(path, "arrays", "__pickle__.npy"), payload)
    manifest = _manifest(path)
    manifest["serializer"] = "pickle"
    manifest["array_names"] = ["__pickle__"]
    manifest["array_index"]["__pickle__"] = {
        "file": "arrays/__pickle__.npy", "shape": [len(payload)],
        "dtype": "|u1", "offset": 128, "nbytes": len(payload),
    }
    _write_manifest(path, manifest)

    def no_payload_reads(*args, **kwargs):
        raise AssertionError("a pickle bundle's array was opened")

    monkeypatch.setattr(np, "load", no_payload_reads)
    for mmap in (False, True):
        with pytest.raises(BundleError, match="'pickle' is not read"):
            load_index(path, mmap=mmap)
    assert not sentinel.exists()
