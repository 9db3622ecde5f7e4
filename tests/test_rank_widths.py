"""Narrow CSA ranks at their boundary.

``sorted_idx`` and ``next_link`` hold ranks in ``[0, n)``, stored as
uint16 up to ``n = 65 536`` and as int32 beyond (``rank_dtype``).  Here
``n`` sits on each side of that boundary: the engine's build must equal
rank doubling byte for byte, dtype included; answers must equal the
scalar oracle at B = 1 and 13, with and without multi-probe; a dynamic
index whose compactions cross the boundary must switch width both ways;
and a bundle claiming uint16 ranks for more than 65 536 strings is
refused.  Without a compiler the rank-doubling build is still held to
the same dtype.
"""

import json
import os

import numpy as np
import pytest

from repro import DynamicLCCSLSH, LCCSLSH
from repro.core.csa import CircularShiftArray, rank_dtype
from repro.serve import BundleError, load_index, save_index
from tests.helpers import _csas, assert_matches_oracle, oracle_query

BOUNDARY = [1, 2, 65_535, 65_536, 65_537]
DIM, M, K = 4, 6, 5
QUERIES = np.random.default_rng(41).normal(size=(13, DIM))


def _strings(n, m, seed):
    """Rows over a 6-letter alphabet: long shared runs and duplicates."""
    rng = np.random.default_rng(seed)
    strings = rng.integers(-3, 3, size=(n, m))
    if n > 2:
        strings[n // 2 : n // 2 + n // 8] = strings[0]
    return strings


def test_rank_dtype_boundary():
    assert [rank_dtype(n) for n in BOUNDARY] == [np.uint16] * 4 + [np.int32]
    assert rank_dtype(2**31 - 1) == np.int32
    assert rank_dtype(2**31) == np.int64


@pytest.mark.parametrize("n", BOUNDARY)
def test_engine_build_equals_rank_doubling(n):
    csa = CircularShiftArray(_strings(n, 5, seed=n))
    want = rank_dtype(n)
    assert csa.sorted_idx.dtype == csa.next_link.dtype == want
    for packed_keys in (True, False):
        built = csa._build(packed_keys=packed_keys)
        for got, ranks in zip(built, (csa.sorted_idx, csa.next_link)):
            assert got.dtype == want
            assert got.tobytes() == ranks.tobytes()
    assert csa.size_bytes() == csa._doubled.nbytes + 2 * 5 * n * want.itemsize + 8


@pytest.fixture(scope="module", params=BOUNDARY)
def fitted(request):
    n = request.param
    data = np.random.default_rng(n).normal(size=(n, DIM))
    return LCCSLSH(dim=DIM, m=M, w=0.5, seed=3).fit(data)


@pytest.mark.parametrize("n_probes", [1, 5])
def test_answers_equal_the_oracle(fitted, n_probes):
    assert fitted.csa.sorted_idx.dtype == rank_dtype(fitted.n)
    want = [oracle_query(fitted, q, K, n_probes=n_probes) for q in QUERIES]
    for batch in (1, 13):
        ids, dists = fitted.batch_query(QUERIES[:batch], k=K, n_probes=n_probes)
        for qi in range(batch):
            kept = ids[qi] >= 0
            assert_matches_oracle(
                (ids[qi][kept], dists[qi][kept]), want[qi], f"B={batch}"
            )


def _rewrite_ranks(path, dtype):
    """Both rank arrays of a static bundle re-typed (values wrap), the
    manifest entries to match."""
    with open(os.path.join(path, "manifest.json")) as f:
        manifest = json.load(f)
    for name in ("csa.sorted_idx", "csa.next_link"):
        fpath = os.path.join(path, "arrays", f"{name}.npy")
        np.save(fpath, np.load(fpath).astype(dtype))
        manifest["array_index"][name]["dtype"] = np.dtype(dtype).str
    with open(os.path.join(path, "manifest.json"), "w") as f:
        json.dump(manifest, f)


def test_uint16_ranks_beyond_65536_strings_are_refused(fitted, tmp_path):
    """uint16 ranks load up to n = 65 536; int32 ranks (format 3) at any
    n; uint16 ranks of 65 537 strings are refused, eager or mmapped."""
    if fitted.n not in (65_536, 65_537):
        pytest.skip("the boundary's two sides are enough")
    path = str(tmp_path / "bundle")
    save_index(fitted, path)
    want = fitted.batch_query(QUERIES, k=K)
    for dtype in (np.int32, np.uint16):
        _rewrite_ranks(path, dtype)
        for mmap in (False, True):
            if dtype == np.uint16 and fitted.n > 2**16:
                with pytest.raises(BundleError, match="must be C-contiguous"):
                    load_index(path, mmap=mmap)
                continue
            loaded = load_index(path, mmap=mmap)
            assert loaded.csa.sorted_idx.dtype == dtype
            got = loaded.batch_query(QUERIES, k=K)
            assert np.array_equal(got[0], want[0])
            assert got[1].tobytes() == want[1].tobytes()


def test_dynamic_compaction_switches_width_both_ways():
    """A one-segment dynamic index just under the boundary: a compaction
    that takes it past 65 536 rows rebuilds with int32 ranks, one that
    drops deleted rows back under rebuilds with uint16, and the answers
    match the oracle on each side."""
    rng = np.random.default_rng(42)
    index = DynamicLCCSLSH(
        dim=DIM, m=M, w=0.5, seed=5, memtable_size=8, max_segments=1
    )
    index.fit(rng.normal(size=(65_532, DIM)))
    widths = []
    for step in ("grow", "shrink"):
        if step == "shrink":
            for handle in range(0, 80, 4):
                index.delete(handle)
        for _ in range(8):
            index.insert(rng.normal(size=DIM))
        assert index.tier_stats()["segments"] == 1
        (csa,) = _csas(index)
        widths.append((csa.n, csa.sorted_idx.dtype, csa.next_link.dtype))
        want = [oracle_query(index, q, K) for q in QUERIES]
        for batch in (1, 13):
            ids, dists = index.batch_query(QUERIES[:batch], k=K)
            for qi in range(batch):
                assert_matches_oracle((ids[qi], dists[qi]), want[qi], step)
    assert widths == [
        (65_540, np.int32, np.int32),
        (65_528, np.uint16, np.uint16),
    ]
