"""Save -> load round trips for every index in the serving registry.

The equivalence contract: ``fit -> query -> save -> load -> query``
returns *identical* ``(ids, distances)``, and the loaded index preserves
``dim`` / ``metric`` / ``seed`` / ``build_time`` and the work counters
in ``last_stats``.  Native bundles (LCCS family, LinearScan, Sharded)
and pickle-fallback bundles (the remaining baselines) go through the
same assertions.  Corrupt manifests, wrong format versions, unknown
classes and missing payloads must raise :class:`BundleError` — not
arbitrary exceptions.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil

import numpy as np
import pytest

from repro import DynamicLCCSLSH, LCCSLSH, MPLCCSLSH
from repro.baselines import (
    C2LSH,
    E2LSH,
    FALCONN,
    LSBForest,
    LSHForest,
    LazyLSH,
    LinearScan,
    MultiProbeLSH,
    QALSH,
    SKLSH,
    SRS,
    StaticConcatIndex,
)
from repro.core.cascade import E2LSHCascade, LCCSCascade
from repro.serve import (
    FORMAT_VERSION,
    BundleError,
    IndexSpec,
    ShardedIndex,
    index_registry,
    load_index,
    read_manifest,
    save_index,
)

DIM = 16
SEED = 3

#: registry name -> zero-arg builder; the coverage test forces every new
#: index class to either appear here or explicitly opt out.
BUILDERS = {
    "C2LSH": lambda: C2LSH(dim=DIM, m=8, l=2, w=2.0, beta=0.1, seed=SEED),
    "DynamicLCCSLSH": lambda: DynamicLCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED),
    "E2LSH": lambda: E2LSH(dim=DIM, K=2, L=4, w=2.0, seed=SEED),
    "E2LSHCascade": lambda: E2LSHCascade(
        dim=DIM, r_min=1.0, r_max=8.0, L=4, seed=SEED
    ),
    "FALCONN": lambda: FALCONN(dim=DIM, K=1, L=4, cp_dim=8, n_probes=8, seed=SEED),
    "LCCSCascade": lambda: LCCSCascade(
        dim=DIM, r_min=1.0, r_max=8.0, m=16, w=2.0, seed=SEED
    ),
    "LCCSLSH": lambda: LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED),
    "LSBForest": lambda: LSBForest(
        dim=DIM, K=4, L=2, w=2.0, seed=SEED, bits_per_dim=8
    ),
    "LSHForest": lambda: LSHForest(dim=DIM, K_max=8, L=4, w=2.0, seed=SEED),
    "LazyLSH": lambda: LazyLSH(dim=DIM, m=8, l=2, w=2.0, seed=SEED),
    "LinearScan": lambda: LinearScan(dim=DIM, seed=SEED),
    "MPLCCSLSH": lambda: MPLCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED, n_probes=9),
    "MultiProbeLSH": lambda: MultiProbeLSH(
        dim=DIM, K=4, L=2, w=2.0, n_probes=8, seed=SEED
    ),
    "QALSH": lambda: QALSH(dim=DIM, m=8, l=2, w=1.0, beta=0.1, seed=SEED),
    "SKLSH": lambda: SKLSH(dim=DIM, K=4, L=2, w=2.0, seed=SEED),
    "SRS": lambda: SRS(
        dim=DIM, d_proj=4, c=2.0, max_fraction=0.2, seed=SEED
    ),
    "ShardedIndex": lambda: ShardedIndex(
        IndexSpec("LCCSLSH", dim=DIM, m=16, w=2.0, seed=SEED),
        num_shards=3,
        parallel="serial",
    ),
    "StaticConcatIndex": lambda: StaticConcatIndex(
        dim=DIM, K=2, L=2, w=2.0, seed=SEED
    ),
}

#: indexes with native (pickle-free) bundle serializers; the remaining
#: baselines must still round-trip, just through the documented pickle
#: fallback
NATIVE = {
    "LCCSLSH", "MPLCCSLSH", "DynamicLCCSLSH", "LinearScan", "ShardedIndex",
    "QALSH", "SKLSH", "LSBForest", "SRS",
}


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    return rng.normal(size=(150, DIM)), rng.normal(size=DIM)


def test_builders_cover_registry():
    """Every registered index class must have a round-trip builder."""
    assert set(BUILDERS) == set(index_registry())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fit_save_load_query_identical(name, tmp_path, workload):
    data, q = workload
    index = BUILDERS[name]().fit(data)
    want_ids, want_dists = index.query(q, k=5)
    want_stats = dict(index.last_stats)
    path = str(tmp_path / "bundle")
    save_index(index, path)

    manifest = read_manifest(path)
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["class"] == name
    expected = "native" if name in NATIVE else "pickle"
    assert manifest["serializer"] == expected

    loaded = load_index(path)
    assert type(loaded) is type(index)
    assert loaded.dim == index.dim
    assert loaded.metric == index.metric
    assert loaded.seed == index.seed
    assert loaded.build_time == pytest.approx(index.build_time)
    assert loaded.last_stats == pytest.approx(want_stats)
    assert loaded.n == index.n

    got_ids, got_dists = loaded.query(q, k=5)
    assert got_ids.tolist() == want_ids.tolist()
    assert got_dists.tolist() == want_dists.tolist()


@pytest.mark.parametrize("name", sorted(NATIVE))
def test_native_bundles_load_without_pickle(name, tmp_path, workload):
    """Native arrays must be readable with ``allow_pickle=False``."""
    data, _ = workload
    index = BUILDERS[name]().fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    manifest = read_manifest(path)
    names = sorted(manifest["array_index"])
    assert names  # at least the data payload
    assert "__pickle__" not in names
    for name_ in names:
        entry = manifest["array_index"][name_]
        arr = np.load(os.path.join(path, entry["file"]), allow_pickle=False)
        assert list(arr.shape) == entry["shape"]


def test_unfitted_index_roundtrip(tmp_path):
    index = LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    loaded = load_index(path)
    assert not loaded.is_fitted
    assert loaded.m == index.m


def test_dynamic_roundtrip_preserves_updates(tmp_path, workload):
    data, q = workload
    rng = np.random.default_rng(9)
    index = DynamicLCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    handles = [index.insert(rng.normal(size=DIM)) for _ in range(12)]
    index.delete(handles[4])
    index.delete(7)
    want = index.query(q, k=8, num_candidates=index.n)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.live_count == index.live_count
    assert loaded.buffer_size == index.buffer_size
    assert loaded.rebuilds == index.rebuilds
    got = loaded.query(q, k=8, num_candidates=loaded.n)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    # the loaded index keeps accepting updates with the same handles
    assert loaded.insert(rng.normal(size=DIM)) == index.insert(rng.normal(size=DIM))


# ----------------------------------------------------------------------
# Manifest-only inspection (CLI `inspect`)
# ----------------------------------------------------------------------

def test_bundle_summary_reads_headers_without_loading(tmp_path, workload):
    from repro.serve.persistence import bundle_summary

    data, _ = workload
    index = ShardedIndex(
        IndexSpec("LCCSLSH", dim=DIM, m=16, w=2.0, seed=SEED),
        num_shards=2, parallel="serial",
    ).fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path, extra={"dataset": "unit"})
    summary = bundle_summary(path)
    assert summary["class"] == "ShardedIndex"
    assert summary["serializer"] == "native"
    assert summary["shards"] == 2
    assert summary["extra"] == {"dataset": "unit"}
    by_name = {a["name"]: a for a in summary["arrays"]}
    # Shard payload shapes are reported exactly, without loading them.
    assert by_name["shard0.data"]["shape"] == (75, DIM)
    assert by_name["shard0.data"]["dtype"] == "float64"
    assert by_name["shard0.data"]["bytes"] == 75 * DIM * 8
    assert summary["total_bytes"] == sum(a["bytes"] for a in summary["arrays"])
    assert summary["total_stored_bytes"] > 0


def test_cli_inspect_prints_manifest_and_arrays(tmp_path, workload, capsys):
    from repro.cli import main

    data, _ = workload
    index = LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    assert main(["inspect", path]) == 0
    out = capsys.readouterr().out
    assert "LCCSLSH" in out
    assert "csa.sorted_idx" in out
    assert "150x16" in out  # the data payload's shape
    # JSON mode emits the machine-readable summary.
    assert main(["inspect", path, "--json"]) == 0
    out = capsys.readouterr().out
    assert '"class": "LCCSLSH"' in out


def test_cli_inspect_bad_bundle_exit_code(tmp_path, capsys):
    from repro.cli import main

    assert main(["inspect", str(tmp_path / "nope")]) == 2
    assert "cannot inspect" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Error paths: corrupt or incompatible bundles fail loudly and cleanly
# ----------------------------------------------------------------------

@pytest.fixture()
def bundle(tmp_path, workload):
    data, _ = workload
    index = LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    return path


def _rewrite_manifest(path, **overrides):
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    manifest.update(overrides)
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f)


def test_corrupt_manifest_raises(bundle):
    with open(os.path.join(bundle, "manifest.json"), "w") as f:
        f.write("{this is not json")
    with pytest.raises(BundleError, match="corrupt manifest"):
        load_index(bundle)


def test_wrong_format_version_raises(bundle):
    _rewrite_manifest(bundle, format_version=FORMAT_VERSION + 1)
    with pytest.raises(BundleError, match="format_version"):
        load_index(bundle)


def test_unknown_class_raises(bundle):
    _rewrite_manifest(bundle, **{"class": "NoSuchIndex"})
    with pytest.raises(BundleError, match="NoSuchIndex"):
        load_index(bundle)


def test_missing_arrays_raises(bundle):
    shutil.rmtree(os.path.join(bundle, "arrays"))
    with pytest.raises(BundleError, match="missing array file"):
        load_index(bundle)


def test_v1_manifest_is_refused_before_any_array_is_opened(tmp_path):
    """What a v1 writer left behind: a manifest without ``array_index``
    next to an archive.  The version decides, not a missing file."""
    from repro.serve.persistence import bundle_summary

    path = tmp_path / "v1bundle"
    path.mkdir()
    (path / "manifest.json").write_text(json.dumps({
        "format_version": 1, "class": "LCCSLSH", "serializer": "native",
        "dim": DIM, "metric": "euclidean", "seed": SEED, "fitted": True,
        "state": {}, "array_names": [],
    }))
    (path / "arrays.npz").write_bytes(b"never opened")
    for opener in (load_index, read_manifest, bundle_summary):
        with pytest.raises(BundleError, match="unsupported bundle format_version 1"):
            opener(str(path))


def test_missing_manifest_raises(bundle):
    os.remove(os.path.join(bundle, "manifest.json"))
    with pytest.raises(BundleError, match="manifest"):
        load_index(bundle)


def test_nonexistent_path_raises(tmp_path):
    with pytest.raises(BundleError, match="not a bundle"):
        load_index(str(tmp_path / "nope"))


def test_read_manifest_on_plain_file_raises(tmp_path):
    """A pickle (or any file) is cleanly 'not a bundle'."""
    path = tmp_path / "legacy.pkl"
    path.write_bytes(b"\x80\x04N.")
    with pytest.raises(BundleError, match="not a bundle"):
        read_manifest(str(path))


def test_truncated_state_raises(bundle, tmp_path):
    """Dropping a required array from a native bundle is caught."""
    arrays_dir = os.path.join(bundle, "arrays")
    for name in os.listdir(arrays_dir):
        if name.startswith("family."):
            os.remove(os.path.join(arrays_dir, name))
    with pytest.raises(BundleError):
        load_index(bundle)
    with pytest.raises(BundleError):
        load_index(bundle, mmap=True)


def test_save_refuses_file_path(bundle, tmp_path, workload):
    data, _ = workload
    target = tmp_path / "plain_file"
    target.write_text("occupied")
    index = LinearScan(dim=DIM).fit(data)
    with pytest.raises(BundleError, match="not a directory"):
        save_index(index, str(target))


# ----------------------------------------------------------------------
# A regular file is never unpickled
# ----------------------------------------------------------------------

class _TouchOnUnpickle:
    """Unpickling an instance creates ``path`` (via ``__reduce__``)."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_pickle_file_is_refused_without_unpickling(tmp_path, capsys):
    from repro import ANNIndex
    from repro.cli import main

    sentinel = tmp_path / "unpickled"
    path = tmp_path / "index.pkl"
    path.write_bytes(pickle.dumps(_TouchOnUnpickle(str(sentinel))))
    for load in (load_index, ANNIndex.load):
        with pytest.raises(BundleError, match="not a bundle"):
            load(str(path))
    for argv in (["query"], ["serve"], ["inspect"]):
        assert main(argv + [str(path)]) == 2
        assert "not a bundle" in capsys.readouterr().err
    assert not sentinel.exists()
    pickle.loads(path.read_bytes()).close()  # the payload was live
    assert sentinel.exists()
