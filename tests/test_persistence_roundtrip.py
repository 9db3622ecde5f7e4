"""Save -> load round trips, and what a bundle refuses to hold.

The equivalence contract for the served indexes (``LCCSLSH``,
``DynamicLCCSLSH``, ``LinearScan``): ``fit -> query -> save -> load ->
query`` returns *identical* ``(ids, distances)``, and the loaded index
preserves ``dim`` / ``metric`` / ``seed`` / ``build_time`` and the work
counters in ``last_stats``.  Every other registered index is refused at
save with :class:`BundleError` naming its class, leaving nothing on
disk.  Corrupt manifests, wrong format versions, unknown classes, pickle
bundles, missing payloads and arrays that disagree with each other must
raise :class:`BundleError` — not arbitrary exceptions, and never an
out-of-bounds read in the kernels.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro import DynamicLCCSLSH, LCCSLSH
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
    index_registry,
    load_index,
    read_manifest,
    save_index,
)

DIM = 16
SEED = 3

#: registry name -> zero-arg builder; the coverage test forces every new
#: index class to appear here, served (round trip) or not (refused).
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
    "MultiProbeLSH": lambda: MultiProbeLSH(
        dim=DIM, K=4, L=2, w=2.0, n_probes=8, seed=SEED
    ),
    "QALSH": lambda: QALSH(dim=DIM, m=8, l=2, w=1.0, beta=0.1, seed=SEED),
    "SKLSH": lambda: SKLSH(dim=DIM, K=4, L=2, w=2.0, seed=SEED),
    "SRS": lambda: SRS(
        dim=DIM, d_proj=4, c=2.0, max_fraction=0.2, seed=SEED
    ),
    "StaticConcatIndex": lambda: StaticConcatIndex(
        dim=DIM, K=2, L=2, w=2.0, seed=SEED
    ),
}

#: the indexes a bundle holds; every other one is refused at save
SERVED = {"LCCSLSH", "DynamicLCCSLSH", "LinearScan"}
#: baselines earlier builds also saved natively; their bundles are
#: refused at load
RETIRED_NATIVE = {"QALSH", "SKLSH", "LSBForest", "SRS"}


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    return rng.normal(size=(150, DIM)), rng.normal(size=DIM)


def test_builders_cover_registry():
    """Every registered index class must have a builder here."""
    assert set(BUILDERS) == set(index_registry())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fit_save_load_query_identical(name, tmp_path, workload):
    """Served indexes round-trip; any other is refused by name and
    leaves no directory behind."""
    data, q = workload
    index = BUILDERS[name]().fit(data)
    path = str(tmp_path / "bundle")
    if name not in SERVED:
        with pytest.raises(BundleError, match=f"{name} cannot be saved"):
            save_index(index, path)
        assert not os.path.exists(path)
        return
    want_ids, want_dists = index.query(q, k=5)
    want_stats = dict(index.last_stats)
    save_index(index, path)

    manifest = read_manifest(path)
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["class"] == name
    assert manifest["serializer"] == "native"

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


@pytest.mark.parametrize("name", sorted(SERVED | RETIRED_NATIVE))
def test_native_bundles_load_without_pickle(name, tmp_path, workload):
    """Native arrays must be readable with ``allow_pickle=False``; a
    native manifest naming a baseline whose hooks are gone is refused."""
    data, _ = workload
    path = str(tmp_path / "bundle")
    if name in RETIRED_NATIVE:
        save_index(LinearScan(dim=DIM, seed=SEED).fit(data), path)
        _rewrite_manifest(path, **{"class": name})
        for mmap in (False, True):
            with pytest.raises(BundleError, match=f"{name} is not served"):
                load_index(path, mmap=mmap)
        return
    index = BUILDERS[name]().fit(data)
    save_index(index, path)
    manifest = read_manifest(path)
    names = sorted(manifest["array_index"])
    assert names  # at least the data payload
    assert "__pickle__" not in names
    for name_ in names:
        entry = manifest["array_index"][name_]
        arr = np.load(os.path.join(path, entry["file"]), allow_pickle=False)
        assert list(arr.shape) == entry["shape"]


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_probed_queries_survive_roundtrip(mmap, tmp_path, workload):
    """Multi-probe is a query argument: a plain ``LCCSLSH`` bundle,
    loaded eagerly or memory-mapped, answers ``n_probes=9`` exactly as
    the index that wrote it, work counters included."""
    data, q = workload
    index = LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    want_ids, want_dists = index.query(q, k=5, n_probes=9)
    want_stats = dict(index.last_stats)
    path = str(tmp_path / "bundle")
    save_index(index, path)
    assert read_manifest(path)["class"] == "LCCSLSH"
    loaded = load_index(path, mmap=mmap)
    got_ids, got_dists = loaded.query(q, k=5, n_probes=9)
    assert got_ids.tolist() == want_ids.tolist()
    assert got_dists.tolist() == want_dists.tolist()
    assert set(loaded.last_stats) == set(want_stats)
    assert loaded.last_stats["probes"] == want_stats["probes"] == 9
    ids, dists = loaded.batch_query(q[None, :], k=5, n_probes=9)
    assert ids[0].tolist() == want_ids.tolist()
    assert dists[0].tolist() == want_dists.tolist()


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

def test_bundle_summary_reads_headers_without_loading(
    tmp_path, workload, monkeypatch
):
    from repro.serve.persistence import bundle_summary

    data, _ = workload
    index = DynamicLCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data)
    path = str(tmp_path / "bundle")
    save_index(index, path, extra={"dataset": "unit"})

    def no_payload_reads(*args, **kwargs):
        raise AssertionError("bundle_summary opened an array payload")

    monkeypatch.setattr(np, "load", no_payload_reads)
    summary = bundle_summary(path)
    assert summary["class"] == "DynamicLCCSLSH"
    assert summary["serializer"] == "native"
    assert summary["extra"] == {"dataset": "unit"}
    by_name = {a["name"]: a for a in summary["arrays"]}
    # The row store and the base segment's nested payload are reported
    # exactly from the manifest, without loading them.
    n = len(data)
    assert by_name["store"]["shape"] == (n, DIM)
    assert by_name["store"]["dtype"] == "float64"
    assert by_name["store"]["bytes"] == n * DIM * 8
    assert by_name["seg0.inner.data"]["shape"] == (n, DIM)
    assert by_name["seg0.inner.csa.doubled"]["shape"] == (n, 2 * 16)
    assert by_name["seg0.inner.csa.doubled"]["dtype"] == "uint8"
    for name in ("seg0.inner.csa.sorted_idx", "seg0.inner.csa.next_link"):
        assert by_name[name]["shape"] == (16, n)
        assert by_name[name]["dtype"] == "uint16"
        assert by_name[name]["bytes"] == 16 * n * 2
    assert summary["total_bytes"] == sum(a["bytes"] for a in summary["arrays"])
    assert summary["total_stored_bytes"] > summary["total_bytes"]


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
    # ShardedIndex was a registered class until the sharded fan-out
    # was removed; its bundles are now refused like any unknown class.
    for name in ("NoSuchIndex", "ShardedIndex"):
        _rewrite_manifest(bundle, **{"class": name})
        with pytest.raises(BundleError, match=name):
            load_index(bundle)


def test_multiprobe_subclass_bundle_raises(bundle):
    """The multi-probe subclass became ``LCCSLSH``'s ``n_probes`` query
    argument; a manifest still naming it is refused like any unknown
    class (the name is spelled in parts so no live code carries it)."""
    removed = "MP" + LCCSLSH.__name__
    _rewrite_manifest(bundle, **{"class": removed})
    with pytest.raises(BundleError, match=removed):
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


# ----------------------------------------------------------------------
# Only what is served is saved (pickle bundles: tests/test_bundle_fuzz.py)
# ----------------------------------------------------------------------

def test_checkpoint_of_an_unserved_index_is_refused(tmp_path, workload):
    """A snapshot is a bundle: checkpointing a baseline raises and
    leaves no snapshot (nor its temporary directory) behind."""
    from repro.serve import SnapshotManager

    data, _ = workload
    wal_dir = tmp_path / "wal"
    snaps = SnapshotManager(str(wal_dir), keep=2)
    with pytest.raises(BundleError, match="E2LSH cannot be saved"):
        snaps.take(BUILDERS["E2LSH"]().fit(data), 5)
    assert snaps.list() == []
    assert os.listdir(wal_dir / "snapshots") == []


def test_dynamic_with_an_object_family_is_refused(tmp_path, workload):
    """LCCS kwargs that are not JSON-safe (a pre-built family object)
    cannot be described by a manifest: refused by name, nothing written."""
    from repro.hashes import make_family

    data, _ = workload
    family = make_family("euclidean", DIM, 16, seed=SEED, w=2.0)
    index = DynamicLCCSLSH(dim=DIM, m=16, family=family).fit(data)
    path = str(tmp_path / "bundle")
    with pytest.raises(BundleError, match="DynamicLCCSLSH cannot be saved"):
        save_index(index, path)
    assert not os.path.exists(path)


# ----------------------------------------------------------------------
# Load checks: arrays the kernels read in place must agree
# ----------------------------------------------------------------------

def _rewrite_array(path, name, arr, update_manifest=True):
    """Replace one array file (and, by default, its manifest entry)."""
    np.save(os.path.join(path, "arrays", f"{name}.npy"), arr)
    if update_manifest:
        manifest = read_manifest(path)
        entry = manifest["array_index"][name]
        entry["shape"] = list(arr.shape)
        entry["dtype"] = arr.dtype.str
        _rewrite_manifest(path, array_index=manifest["array_index"])


def test_out_of_range_csa_ranks_are_refused_in_a_subprocess(tmp_path):
    """Every ``csa.sorted_idx`` entry set to 2e9, as int32 ranks (the
    format-3 type, still read): the load is refused.  Without the check
    the first batch query read far outside the data and killed the
    process, so the query runs in a child process."""
    rng = np.random.default_rng(5)
    path = str(tmp_path / "bundle")
    save_index(LCCSLSH(dim=32, m=16, seed=SEED).fit(rng.normal(size=(2000, 32))), path)
    ranks = np.load(os.path.join(path, "arrays", "csa.sorted_idx.npy"))
    _rewrite_array(
        path, "csa.sorted_idx", np.full(ranks.shape, 2_000_000_000, np.int32)
    )
    script = (
        "import sys, numpy as np\n"
        "from repro.serve import BundleError, load_index\n"
        "for mmap in (False, True):\n"
        "    try:\n"
        "        index = load_index(sys.argv[1], mmap=mmap)\n"
        "    except BundleError as exc:\n"
        "        print('refused', exc)\n"
        "        continue\n"
        "    index.batch_query(np.zeros((4, 32)), k=5)\n"
        "    print('answered')\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    child = subprocess.run(
        [sys.executable, "-c", script, path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, (child.returncode, child.stderr)
    lines = child.stdout.splitlines()
    assert len(lines) == 2 and all("refused" in line for line in lines), lines
    assert "sorted_idx holds a rank outside [0, 2000)" in lines[0]


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("metric", ["euclidean", "angular"])
def test_arrays_that_disagree_with_the_csa_are_refused(tmp_path, metric, mmap):
    """``data.npy`` cut to 10 rows, its manifest entry updated to match,
    while the CSA keeps 2000: once loaded with ``n == 10``, it answered
    with ids past the data and distances read beyond its buffer.  A
    family projection cut to half its columns no longer hashes to ``m``
    codes: refused at load, not at the first query."""
    rng = np.random.default_rng(6)
    data = rng.normal(size=(2000, 32))
    path = str(tmp_path / "bundle")
    save_index(LCCSLSH(dim=32, m=16, metric=metric, seed=SEED).fit(data), path)
    proj = np.load(os.path.join(path, "arrays", "family.proj.npy"))
    _rewrite_array(path, "data", data[:10].copy())
    with pytest.raises(BundleError, match="do not fit"):
        load_index(path, mmap=mmap)
    _rewrite_array(path, "data", data)
    _rewrite_array(path, "family.proj", proj[:, : proj.shape[1] // 2].copy())
    with pytest.raises(BundleError, match="does not hash dim=32 to m=16"):
        load_index(path, mmap=mmap)


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_array_that_disagrees_with_its_manifest_entry_is_refused(
    tmp_path, workload, mmap
):
    """The file's header decides what is read; a manifest describing
    something else is a corrupt bundle."""
    data, _ = workload
    path = str(tmp_path / "bundle")
    save_index(LCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED).fit(data), path)
    _rewrite_array(path, "data", data[:10].copy(), update_manifest=False)
    with pytest.raises(BundleError, match="manifest entry says"):
        load_index(path, mmap=mmap)


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("spelling", ["absolute", "dotdot", "symlink"])
def test_array_files_outside_the_bundle_are_refused(tmp_path, spelling, mmap):
    """``arrays/data.npy`` moved out of a 50-row bundle, its manifest
    entry pointing at the new place by absolute path or ``../``, or a
    symlink left in its place: the file is outside the bundle, so the
    load is refused — before, each loaded with ``n == 50``."""
    from repro.serve.persistence import bundle_summary

    rng = np.random.default_rng(13)
    path = str(tmp_path / "bundle")
    save_index(LCCSLSH(dim=DIM, m=8, seed=SEED).fit(rng.normal(size=(50, DIM))), path)
    outside = tmp_path / "outside"
    outside.mkdir()
    moved = str(outside / "data.npy")
    shutil.move(os.path.join(path, "arrays", "data.npy"), moved)
    if spelling == "symlink":
        os.symlink(moved, os.path.join(path, "arrays", "data.npy"))
    else:
        manifest = read_manifest(path)
        manifest["array_index"]["data"]["file"] = (
            moved if spelling == "absolute" else "../outside/data.npy"
        )
        _rewrite_manifest(path, array_index=manifest["array_index"])
    with pytest.raises(BundleError, match="not in the bundle's arrays/"):
        load_index(path, mmap=mmap)
    with pytest.raises(BundleError, match="not in the bundle's arrays/"):
        bundle_summary(path)


@pytest.fixture()
def aged_dynamic_bundle(tmp_path, workload):
    """A dynamic bundle with two segments, a memtable and tombstones."""
    data, _ = workload
    rng = np.random.default_rng(12)
    index = DynamicLCCSLSH(dim=DIM, m=16, w=2.0, seed=SEED, memtable_size=20)
    index.fit(data)
    for _ in range(30):
        index.insert(rng.normal(size=DIM))
    index.delete(3)
    index.delete(len(data) + 25)
    assert index.tier_stats()["segments"] >= 2 and index.buffer_size
    path = str(tmp_path / "dyn.bundle")
    save_index(index, path)
    return path, len(data) + 30


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_dynamic_handles_are_checked_against_the_store(
    aged_dynamic_bundle, mmap
):
    path, rows = aged_dynamic_bundle
    pristine = read_manifest(path)
    handles = np.load(os.path.join(path, "arrays", "seg0.handles.npy"))
    cases = [
        ("seg0.handles", lambda: _rewrite_array(
            path, "seg0.handles", np.where(handles == handles[-1], rows, handles))),
        ("seg0.handles", lambda: _rewrite_array(
            path, "seg0.handles", handles[:-1].copy())),
        ("buffer_handles", lambda: _rewrite_manifest(path, state=dict(
            pristine["state"], buffer_handles=[rows + 7]))),
        ("dead", lambda: _rewrite_manifest(path, state=dict(
            pristine["state"], dead=[-1]))),
    ]
    for what, corrupt in cases:
        corrupt()
        with pytest.raises(BundleError, match=what):
            load_index(path, mmap=mmap)
        _rewrite_array(path, "seg0.handles", handles)
        _rewrite_manifest(path, state=pristine["state"])
    assert load_index(path, mmap=mmap).live_count == rows - 2
