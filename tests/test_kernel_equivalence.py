"""The engine is invisible: it answers exactly like the scalar oracle.

The compiled engine (``cext``) is a pure performance refactor of the
CSA bisection, the tournament merge, and candidate verification.  For
every index in the LCCS family — static, multi-probe, dynamic
(including after inserts/deletes/rebuilds) — it must change *nothing*
observable against the scalar path of ``tests/helpers.py::oracle_query``:
same ids, same distances, same tie-breaks, byte for byte, on both
``query`` and ``batch_query``.

Also pinned here:

* the no-compiler fallback — one ``RuntimeWarning`` naming the compile
  error, ``kernel_backend == "scalar"``, oracle answers on every index
  class, and ``backend="cext"`` refusing with the compile error;
* ``backend=`` accepts only ``None``/``"cext"`` from callers, while
  names recorded by earlier builds load on the engine;
* ``pack_bits``/``hamming_packed`` equal the unpacked Hamming distance;
* the per-stage timing hooks are populated by the batch path.

The engine tests self-skip where it cannot be built (CI runs this file
once with the compiler disabled); the fallback tests run everywhere.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_matches_oracle, oracle_query
from repro import DynamicLCCSLSH, LCCSLSH, kernels
from repro.distances import hamming_packed, pack_bits, pairwise_rows

COMPILED = [] if kernels.engine() is None else ["cext"]

needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="the cext engine cannot be built here"
)


def _workload(seed: int, n: int, dim: int, nq: int, binary: bool = False):
    rng = np.random.default_rng(seed)
    if binary:
        data = rng.integers(0, 2, size=(n, dim)).astype(np.float64)
        queries = rng.integers(0, 2, size=(nq, dim)).astype(np.float64)
    else:
        data = rng.normal(size=(n, dim))
        queries = rng.normal(size=(nq, dim))
    return data, queries


def assert_engine_matches_oracle(index, queries: np.ndarray, k: int, **kwargs):
    """The engine matches the scalar oracle at B=1 (``query`` and a
    batch of one) and at B = the whole query set."""
    oracle = [oracle_query(index, q, k, **kwargs) for q in queries]
    bi, bd = index.batch_query(queries, k=k, **kwargs)
    for qi, q in enumerate(queries):
        found = bi[qi] >= 0
        assert_matches_oracle(
            (bi[qi][found], bd[qi][found]), oracle[qi], f"batch row {qi}"
        )
        one_ids, one_dists = index.batch_query(q[None, :], k=k, **kwargs)
        found = one_ids[0] >= 0
        assert_matches_oracle(
            (one_ids[0][found], one_dists[0][found]), oracle[qi], f"B=1 {qi}"
        )
        assert_matches_oracle(
            index.query(q, k=k, **kwargs), oracle[qi], f"single {qi}"
        )


# ----------------------------------------------------------------------
# backend= and the no-compiler fallback
# ----------------------------------------------------------------------


def test_unknown_explicit_backend_raises():
    for name in ("fortran", "scalar"):
        with pytest.raises(ValueError, match="unknown"):
            LCCSLSH(dim=4, m=4, backend=name)
        with pytest.raises(ValueError, match="unknown"):
            DynamicLCCSLSH(dim=4, m=4, backend=name)
        with pytest.raises(ValueError, match="unknown"):
            kernels.check_backend(name)


SIMULATED = "kernel compilation failed: simulated for the fallback tests"


def _break_engine(monkeypatch):
    """From here on the process has not built its engine yet and cannot:
    the compile step fails as it does without a C compiler."""
    from repro.kernels import cext

    def fail():
        raise RuntimeError(SIMULATED)

    monkeypatch.setattr(cext, "_compile_library", fail)
    monkeypatch.setattr(kernels, "_loaded", False)
    monkeypatch.setattr(kernels, "_engine", None)
    monkeypatch.setattr(kernels, "_error", None)


@pytest.fixture
def no_engine(monkeypatch):
    _break_engine(monkeypatch)


def test_fallback_warns_once_with_the_compile_error(no_engine):
    with pytest.warns(RuntimeWarning) as caught:
        assert kernels.engine() is None
    assert len(caught) == 1
    assert SIMULATED in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.engine() is None  # decided once: no second warning
        LCCSLSH(dim=4, m=4, seed=0).fit(np.eye(4))


def test_fallback_reports_scalar(no_engine):
    from repro.serve.service import ANNService

    data, queries = _workload(6, n=60, dim=8, nq=4)
    with pytest.warns(RuntimeWarning):
        index = LCCSLSH(dim=8, m=8, w=4.0, seed=6).fit(data)
    assert index.kernel_backend == "scalar"
    assert DynamicLCCSLSH(dim=8, m=8, seed=6).kernel_backend == "scalar"
    with ANNService(index) as service:
        service.query(queries[0], k=3)
        assert service.stats()["kernel_backend"] == "scalar"


def test_fallback_refuses_explicit_cext(no_engine):
    with pytest.warns(RuntimeWarning):
        with pytest.raises(RuntimeError, match=SIMULATED):
            LCCSLSH(dim=4, m=4, backend="cext")
    with pytest.raises(RuntimeError, match=SIMULATED):
        DynamicLCCSLSH(dim=4, m=4, backend="cext")


def _fallback_lccs(rng):
    return LCCSLSH(dim=12, m=16, seed=5).fit(rng.normal(size=(300, 12)))


def _fallback_mp(rng):
    return LCCSLSH(dim=12, m=8, seed=3).fit(rng.normal(size=(200, 12)))


def _fallback_dynamic_aged(rng):
    index = DynamicLCCSLSH(
        dim=12, m=16, seed=8, memtable_size=16, max_segments=8
    ).fit(rng.normal(size=(200, 12)))
    for row in rng.normal(size=(120, 12)):
        index.insert(row)
    for handle in (3, 57, 203, 270, 300, 316):
        index.delete(handle)
    assert index.segment_count > 1 and index.buffer_size > 0
    return index


@pytest.mark.parametrize(
    "build, kwargs",
    [(_fallback_lccs, {}), (_fallback_mp, {"n_probes": 5}),
     (_fallback_dynamic_aged, {})],
    ids=["lccs", "mp", "dynamic-aged"],
)
def test_fallback_answers_like_the_oracle(monkeypatch, build, kwargs):
    """Built where the engine cannot be, every index class answers
    ``query`` and ``batch_query`` (B in {1, 13}) exactly like the oracle
    taken on the same index built while the engine was there."""
    queries = np.random.default_rng(99).normal(size=(13, 12))
    reference = build(np.random.default_rng(2024))
    want = [oracle_query(reference, q, 6, **kwargs) for q in queries]
    _break_engine(monkeypatch)
    with pytest.warns(RuntimeWarning):
        index = build(np.random.default_rng(2024))
    assert index.kernel_backend == "scalar"
    for batch in (1, 13):
        ids, dists = index.batch_query(queries[:batch], k=6, **kwargs)
        for qi in range(batch):
            found = ids[qi] >= 0
            assert_matches_oracle(
                (ids[qi][found], dists[qi][found]), want[qi], f"B={batch} {qi}"
            )
    for qi, q in enumerate(queries):
        assert_matches_oracle(
            index.query(q, k=6, **kwargs), want[qi], f"query {qi}"
        )


# ----------------------------------------------------------------------
# Byte-identity across index classes (hypothesis-driven shapes)
# ----------------------------------------------------------------------


@needs_compiled
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(12, 90),
    m=st.sampled_from([4, 8, 16]),
    k=st.integers(1, 15),
)
def test_lccs_euclidean_identity(seed, n, m, k):
    data, queries = _workload(seed, n, dim=8, nq=6)
    index = LCCSLSH(dim=8, m=m, w=4.0, seed=seed % 1000).fit(data)
    assert_engine_matches_oracle(index, queries, k)


@needs_compiled
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(12, 90),
    k=st.integers(1, 12),
)
def test_lccs_hamming_identity(seed, n, k):
    """Binary data exercises the packed-popcount verification path."""
    data, queries = _workload(seed, n, dim=16, nq=6, binary=True)
    index = LCCSLSH(dim=16, m=8, metric="hamming", seed=seed % 1000).fit(data)
    assert_engine_matches_oracle(index, queries, k)


@needs_compiled
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(12, 70),
    n_probes=st.sampled_from([1, 5, 9]),
)
def test_mp_lccs_identity(seed, n, n_probes):
    data, queries = _workload(seed, n, dim=8, nq=5)
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=seed % 1000).fit(data)
    assert_engine_matches_oracle(index, queries, k=8, n_probes=n_probes)


@needs_compiled
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_dynamic_identity_through_mutations(seed):
    """Byte-identity holds fresh, post-insert/delete, and post-rebuild."""
    rng = np.random.default_rng(seed)
    data, queries = _workload(seed, n=50, dim=8, nq=5)
    index = DynamicLCCSLSH(
        dim=8, m=8, w=4.0, seed=seed % 1000, rebuild_threshold=0.5
    ).fit(data)
    assert_engine_matches_oracle(index, queries, k=10)
    # Buffered inserts + tombstoned deletes (below the rebuild threshold).
    for vec in rng.normal(size=(8, 8)):
        index.insert(vec)
    index.delete(2)
    index.delete(41)
    assert index.buffer_size > 0
    assert_engine_matches_oracle(index, queries, k=10)
    # Push past the threshold so the CSA is rebuilt with the buffer.
    for vec in rng.normal(size=(25, 8)):
        index.insert(vec)
    assert index.rebuilds >= 2  # fit + at least one buffer-triggered
    assert_engine_matches_oracle(index, queries, k=10)


# ----------------------------------------------------------------------
# Verification kernels
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 40),
    dim=st.integers(1, 130),
)
def test_packed_hamming_equals_unpacked(seed, rows, dim):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(rows, dim)).astype(np.float64)
    b = rng.integers(0, 2, size=(rows, dim)).astype(np.float64)
    expected = pairwise_rows(a, b, "hamming")
    got = hamming_packed(pack_bits(a), pack_bits(b))
    assert np.array_equal(got, expected)


@needs_compiled
@pytest.mark.parametrize("backend", COMPILED)
def test_backend_hamming_packed_kernel(backend):
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, size=(60, 100)).astype(np.float64)
    b = rng.integers(0, 2, size=(60, 100)).astype(np.float64)
    got = kernels.engine().hamming_packed(pack_bits(a), pack_bits(b))
    assert np.array_equal(got, pairwise_rows(a, b, "hamming"))


# ----------------------------------------------------------------------
# Stage timing hooks + surfacing
# ----------------------------------------------------------------------


def test_stage_timings_recorded():
    data, queries = _workload(3, n=60, dim=8, nq=10)
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=3).fit(data)
    index.batch_query(queries, k=5)
    for stage in ("hash", "search", "merge", "verify"):
        assert index.last_stats[f"stage_{stage}_s"] >= 0.0
    index.query(queries[0], k=5)
    for stage in ("hash", "search", "merge", "verify"):
        assert index.last_stats[f"stage_{stage}_s"] >= 0.0


def test_stage_timings_flow_into_evaluate():
    from repro.data import compute_ground_truth
    from repro.eval import evaluate

    data, queries = _workload(4, n=60, dim=8, nq=10)
    gt = compute_ground_truth(data, queries, k=5, metric="euclidean")
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=4).fit(data)
    result = evaluate(index, data, queries, gt, k=5, batch=True)
    assert "stage_verify_s" in result.stats


def test_profile_batch_query_reports_backend():
    from repro.eval.profiler import profile_batch_query

    data, queries = _workload(5, n=60, dim=8, nq=10)
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=5).fit(data)
    prof = profile_batch_query(index, queries, k=5)
    assert prof.backend == index.kernel_backend
    assert prof.num_queries == 10
    assert prof.qps > 0
    assert prof.total_s >= max(
        0.0, prof.hash_s + prof.search_s + prof.merge_s + prof.verify_s - 1e-6
    )


def test_service_stats_report_backend():
    from repro.serve.service import ANNService

    data, queries = _workload(6, n=60, dim=8, nq=4)
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=6).fit(data)
    with ANNService(index) as service:
        service.query(queries[0], k=3)
        assert service.stats().get("kernel_backend") == index.kernel_backend


# ----------------------------------------------------------------------
# Persistence: a bundle loads back on the engine
# ----------------------------------------------------------------------


@needs_compiled
@pytest.mark.parametrize("backend", COMPILED)
def test_backend_survives_bundle_roundtrip(tmp_path, backend):
    from repro.serve import load_index, save_index

    data, queries = _workload(9, n=60, dim=8, nq=5)
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=9, backend=backend).fit(data)
    save_index(index, tmp_path / "b.bundle")
    loaded = load_index(tmp_path / "b.bundle")
    assert loaded.kernel_backend == backend
    ref = index.batch_query(queries, k=5)
    got = loaded.batch_query(queries, k=5)
    assert np.array_equal(ref[0], got[0])
    assert np.array_equal(ref[1], got[1])


def test_persisted_unknown_backend_loads_on_the_default(tmp_path):
    """A bundle written by an earlier build may record a backend name
    (``"numpy"``, ``"numba"``, ``"cext"`` or null): it must load on the
    engine and answer identically, while an unknown name passed by a
    caller still raises.  An in-memory pickle of a CSA re-attaches the
    engine instead of carrying it."""
    import json
    import pickle

    from repro.core.csa import CircularShiftArray
    from repro.serve import load_index, save_index

    data, queries = _workload(10, n=60, dim=8, nq=5)
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=9).fit(data)
    want = index.batch_query(queries, k=5)
    default = index.kernel_backend

    state = index.csa.__getstate__()
    assert "_engine" not in state  # the engine is re-attached, not pickled
    csa = CircularShiftArray.__new__(CircularShiftArray)
    csa.__setstate__(pickle.loads(pickle.dumps(state)))
    assert csa._engine is kernels.engine()

    for name in ("numpy", "numba", "cext", None):
        for kind, make in (
            ("static", lambda: index),
            ("dynamic", lambda: DynamicLCCSLSH(dim=8, m=8, w=4.0, seed=9).fit(data)),
        ):
            path = tmp_path / f"{kind}-{name}.bundle"
            save_index(make(), path)
            manifest = json.loads((path / "manifest.json").read_text())
            if kind == "static":
                assert "backend" not in manifest["state"]  # no longer written
                manifest["state"]["backend"] = name
            else:
                manifest["state"]["lccs_kwargs"]["backend"] = name
                for segment in manifest["state"]["segments"]:
                    segment["state"]["backend"] = name
            (path / "manifest.json").write_text(json.dumps(manifest))
            for mmap in (False, True):
                loaded = load_index(path, mmap=mmap)
                assert loaded.kernel_backend == default
                got = loaded.batch_query(queries, k=5)
                assert np.array_equal(want[0], got[0])
                assert np.array_equal(want[1], got[1])
            loaded.fit(data)  # the recorded name must not poison a refit

    with pytest.raises(ValueError, match="unknown"):
        LCCSLSH(dim=8, m=8, backend="fortran")


# ----------------------------------------------------------------------
# The engine's cached addresses follow the arrays, not the index
# ----------------------------------------------------------------------

@needs_compiled
def test_cext_addresses_follow_replaced_and_copied_arrays():
    """The kernels reach the CSA arrays and the data matrix through
    addresses remembered per array object.  Everything that swaps the
    arrays under an index — a refit, a deep copy, a pickle round trip —
    must be answered from the new arrays, and a dead index must not be
    kept alive by the cache."""
    import copy
    import gc
    import pickle

    addresses = kernels.engine()._addresses._by_id
    data, queries = _workload(21, n=90, dim=8, nq=6)
    # fitted on copies throughout: the index is its arrays' only owner
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=21, backend="cext").fit(data.copy())

    def check(candidate):
        for q in queries:
            assert_matches_oracle(
                candidate.query(q, k=5), oracle_query(candidate, q, 5), "cext"
            )

    check(index)
    gc.collect()
    live = len(addresses)
    clones = [copy.deepcopy(index), pickle.loads(pickle.dumps(index))]
    for clone in clones:
        assert clone.kernel_backend == "cext"
        check(clone)
    assert len(addresses) > live  # the clones' own arrays
    del clones, clone
    gc.collect()
    assert len(addresses) == live  # held weakly: gone with their owners
    index.fit(data[::-1] * 2.0)  # same object, every array replaced
    check(index)
    gc.collect()
    assert len(addresses) == live


def test_mistyped_csa_arrays_are_refused_not_copied(tmp_path):
    """The kernels read every CSA array in place.  Characters that are
    not codes with their offset — an int32 ``doubled`` adopted by
    ``from_arrays``, or written into a bundle — are refused
    (``ValueError``; ``BundleError`` at load) instead of getting a silent
    private copy; so is an array the engine would have to convert."""
    import json

    from repro.core import CircularShiftArray
    from repro.serve import BundleError, load_index, save_index

    rng = np.random.default_rng(8)
    csa = CircularShiftArray(rng.integers(0, 4, size=(50, 10)))
    arrays = csa.export_arrays()
    with pytest.raises(ValueError, match="codes"):
        CircularShiftArray.from_arrays(
            dict(arrays, doubled=arrays["doubled"].astype(np.int32))
        )
    with pytest.raises(ValueError, match="C-contiguous"):
        CircularShiftArray.from_arrays(
            dict(arrays, sorted_idx=np.asfortranarray(arrays["sorted_idx"]))
        )
    data = rng.normal(size=(60, 8))
    path = str(tmp_path / "bundle")
    save_index(LCCSLSH(dim=8, m=10, seed=8).fit(data), path)
    doubled = os.path.join(path, "arrays", "csa.doubled.npy")
    np.save(doubled, np.load(doubled).astype(np.int32))
    for mmap in (False, True):  # the manifest still says uint8
        with pytest.raises(BundleError, match="manifest entry says"):
            load_index(path, mmap=mmap)
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    manifest["array_index"]["csa.doubled"]["dtype"] = "<i4"
    with open(manifest_path, "w") as f:
        json.dump(manifest, f)
    for mmap in (False, True):  # file and manifest agree: not codes
        with pytest.raises(BundleError, match="codes"):
            load_index(path, mmap=mmap)
    if COMPILED:
        csa._doubled = csa._doubled[:, ::-1]  # strided: not readable
        with pytest.raises(TypeError, match="C-contiguous"):
            csa.batch_k_lccs(csa.strings[:3], 5)
