"""Kernel backends are invisible: every backend is byte-identical.

The compiled kernel backend (``cext``) is a pure performance
refactor of the CSA bisection, the tournament merge, and candidate
verification.  For every index in the LCCS family — static, multi-probe,
dynamic (including after inserts/deletes/rebuilds), sharded — switching
the backend must change *nothing* observable: same ids, same distances,
same tie-breaks, byte for byte, on both ``query`` and ``batch_query``.

Also pinned here:

* registry semantics — explicit-kwarg > ``set_default_backend`` >
  ``REPRO_BACKEND`` env > numpy; unknown env values are ignored,
  unknown explicit names raise, unavailable backends fall back silently;
* ``pack_bits``/``hamming_packed`` equal the unpacked Hamming distance;
* the opt-in ``verify_dtype="float32"`` screen re-ranks exactly;
* the per-stage timing hooks are populated by the batch path.

The whole file runs against whichever compiled backends this machine
has (CI lanes exercise cext).  With no compiled backend available the
equivalence tests self-skip and only the registry tests run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_matches_oracle, oracle_query
from repro import DynamicLCCSLSH, LCCSLSH, MPLCCSLSH, kernels
from repro.distances import hamming_packed, pack_bits, pairwise_rows

COMPILED = [b for b in kernels.available_backends() if b != "numpy"]

needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend available"
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


def assert_backends_identical(index, queries: np.ndarray, k: int):
    """Every backend, numpy included, matches the scalar oracle on the
    batch and single paths (on a compiled backend ``query`` is the batch
    engine at B=1, so numpy's ``query`` alone would not pin it)."""
    oracle = [oracle_query(index, q, k) for q in queries]
    ref_batch = None
    for backend in ["numpy"] + COMPILED:
        assert index.set_kernel_backend(backend) == backend
        bi, bd = index.batch_query(queries, k=k)
        if ref_batch is None:
            ref_batch = (bi, bd)
        assert np.array_equal(bi, ref_batch[0]), f"{backend}: batch ids"
        assert np.array_equal(bd, ref_batch[1]), f"{backend}: batch dists"
        for qi, q in enumerate(queries):
            found = bi[qi] >= 0
            assert_matches_oracle(
                (bi[qi][found], bd[qi][found]), oracle[qi],
                f"{backend}: batch row {qi}",
            )
            assert_matches_oracle(
                index.query(q, k=k), oracle[qi], f"{backend}: single {qi}"
            )
    index.set_kernel_backend("numpy")


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------


def test_unknown_explicit_backend_raises():
    with pytest.raises(ValueError, match="unknown"):
        kernels.resolve_backend("fortran")
    with pytest.raises(ValueError, match="unknown"):
        kernels.set_default_backend("fortran")
    with pytest.raises(ValueError, match="unknown"):
        LCCSLSH(dim=4, m=4, backend="fortran").fit(
            np.random.default_rng(0).normal(size=(10, 4))
        )


def test_unknown_env_backend_ignored(monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "fortran")
    assert kernels.resolve_backend().name == "numpy"


def test_env_selects_backend(monkeypatch):
    for backend in COMPILED:
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, backend)
        assert kernels.resolve_backend().name == backend


def test_unavailable_backend_falls_back_silently(monkeypatch):
    """A known backend this host cannot build (here: forced, so the test
    means something where a C compiler exists) resolves to numpy."""
    monkeypatch.setitem(kernels._instances, "cext", None)
    monkeypatch.setitem(kernels._unavailable, "cext", "no C compiler")
    assert kernels.available_backends() == ["numpy"]
    assert kernels.resolve_backend("cext").name == "numpy"
    assert kernels.unavailable_reason("cext") == "no C compiler"
    index = LCCSLSH(dim=4, m=4, w=4.0, seed=1, backend="cext")
    assert index.kernel_backend == "numpy"


@needs_compiled
def test_precedence_kwarg_beats_default_beats_env(monkeypatch):
    backend = COMPILED[0]
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, backend)
    try:
        assert kernels.set_default_backend("numpy") == "numpy"
        assert kernels.resolve_backend().name == "numpy"  # default > env
        assert kernels.resolve_backend(backend).name == backend  # kwarg wins
    finally:
        kernels.set_default_backend(None)
    assert kernels.resolve_backend().name == backend  # env again


def test_numpy_always_available():
    assert "numpy" in kernels.available_backends()
    assert kernels.get_backend("numpy").compiled is False


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
    assert_backends_identical(index, queries, k)


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
    assert_backends_identical(index, queries, k)


@needs_compiled
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(12, 70),
    n_probes=st.sampled_from([1, 5, 9]),
)
def test_mp_lccs_identity(seed, n, n_probes):
    data, queries = _workload(seed, n, dim=8, nq=5)
    index = MPLCCSLSH(
        dim=8, m=8, w=4.0, seed=seed % 1000, n_probes=n_probes
    ).fit(data)
    assert_backends_identical(index, queries, k=8)


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
    assert_backends_identical(index, queries, k=10)
    # Buffered inserts + tombstoned deletes (below the rebuild threshold).
    for vec in rng.normal(size=(8, 8)):
        index.insert(vec)
    index.delete(2)
    index.delete(41)
    assert index.buffer_size > 0
    assert_backends_identical(index, queries, k=10)
    # Push past the threshold so the CSA is rebuilt with the buffer.
    for vec in rng.normal(size=(25, 8)):
        index.insert(vec)
    assert index.rebuilds >= 2  # fit + at least one buffer-triggered
    assert_backends_identical(index, queries, k=10)


@needs_compiled
@pytest.mark.parametrize("backend", COMPILED)
def test_sharded_identity(backend):
    from repro.serve import IndexSpec, ShardedIndex

    data, queries = _workload(77, n=120, dim=8, nq=8)

    def build(b):
        spec = IndexSpec("LCCSLSH", dim=8, m=8, w=4.0, seed=3, backend=b)
        return ShardedIndex(spec, num_shards=3, parallel="serial").fit(data)

    ref = build("numpy").batch_query(queries, k=10)
    got = build(backend).batch_query(queries, k=10)
    assert np.array_equal(ref[0], got[0])
    assert np.array_equal(ref[1], got[1])


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
    kb = kernels.get_backend(backend)
    got = kb.hamming_packed(pack_bits(a), pack_bits(b))
    assert np.array_equal(got, pairwise_rows(a, b, "hamming"))


@needs_compiled
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 12))
def test_float32_rerank_is_exact(seed, k):
    """The reduced-precision screen changes nothing after the re-rank."""
    data, queries = _workload(seed, n=80, dim=12, nq=6)
    ref = LCCSLSH(dim=12, m=8, w=4.0, seed=seed % 1000).fit(data)
    ref_out = ref.batch_query(queries, k=k)
    for backend in COMPILED:
        fast = LCCSLSH(
            dim=12, m=8, w=4.0, seed=seed % 1000,
            backend=backend, verify_dtype="float32",
        ).fit(data)
        bi, bd = fast.batch_query(queries, k=k)
        assert np.array_equal(bi, ref_out[0]), backend
        assert np.array_equal(bd, ref_out[1]), backend


def test_verify_dtype_validated():
    with pytest.raises(ValueError, match="verify_dtype"):
        LCCSLSH(dim=4, m=4, verify_dtype="float16")


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
# Persistence: the backend choice survives a save/load round trip
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
    """A pickle or bundle written by a build that had a backend this one
    does not (``numba``, before it was removed) must still load — on the
    default backend, answering identically — while the same name passed
    by a caller keeps raising."""
    import json
    import pickle

    from repro.core.csa import CircularShiftArray
    from repro.serve import load_index, save_index

    data, queries = _workload(10, n=60, dim=8, nq=5)
    index = LCCSLSH(dim=8, m=8, w=4.0, seed=9).fit(data)
    want = index.batch_query(queries, k=5)
    default = kernels.resolve_backend().name

    state = index.csa.__getstate__()
    state["_backend"] = "numba"  # what a CSA pickled under numba recorded
    csa = CircularShiftArray.__new__(CircularShiftArray)
    csa.__setstate__(pickle.loads(pickle.dumps(state)))
    assert csa.backend_name == default
    csa = CircularShiftArray.from_arrays(index.csa.export_arrays(), backend="numba")
    assert csa.backend_name == default

    for name, make in (
        ("static", lambda: index),
        ("dynamic", lambda: DynamicLCCSLSH(dim=8, m=8, w=4.0, seed=9).fit(data)),
    ):
        path = tmp_path / f"{name}.bundle"
        save_index(make(), path)
        manifest = json.loads((path / "manifest.json").read_text())
        if name == "static":
            manifest["state"]["backend"] = "numba"
        else:
            manifest["state"]["lccs_kwargs"]["backend"] = "numba"
            for segment in manifest["state"]["segments"]:
                segment["state"]["backend"] = "numba"
        (path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_index(path)
        assert loaded.kernel_backend == default
        got = loaded.batch_query(queries, k=5)
        assert np.array_equal(want[0], got[0]) and np.array_equal(want[1], got[1])
        loaded.fit(data)  # the recorded name must not poison a later refit

    with pytest.raises(ValueError, match="unknown"):
        CircularShiftArray(index.hash_strings, backend="numba")
    with pytest.raises(ValueError, match="unknown"):
        index.set_kernel_backend("numba")


# ----------------------------------------------------------------------
# The C backend's cached addresses follow the arrays, not the index
# ----------------------------------------------------------------------

needs_cext = pytest.mark.skipif(
    "cext" not in COMPILED, reason="C kernel backend unavailable"
)


@needs_cext
def test_cext_addresses_follow_replaced_and_copied_arrays():
    """The kernels reach the CSA arrays and the data matrix through
    addresses remembered per array object.  Everything that swaps the
    arrays under an index — a refit, a deep copy, a pickle round trip —
    must be answered from the new arrays, and a dead index must not be
    kept alive by the cache."""
    import copy
    import gc
    import pickle

    addresses = kernels.get_backend("cext")._addresses._by_id
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


@needs_cext
def test_cext_converts_arrays_it_cannot_read_in_place():
    """Strings that are not int64 (the kernels' character type) get one
    converted copy; the answers are the scalar path's."""
    from repro.core import CircularShiftArray

    rng = np.random.default_rng(8)
    strings = rng.integers(0, 4, size=(50, 10)).astype(np.int32)
    queries = rng.integers(0, 4, size=(7, 10)).astype(np.int32)
    csa = CircularShiftArray(strings, backend="cext")
    assert csa._doubled.dtype == np.int32
    for q, (ids, lens) in zip(queries, csa.batch_k_lccs(queries, 9)):
        want_ids, want_lens = csa.k_lccs(q, 9)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(lens, want_lens)
