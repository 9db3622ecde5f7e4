"""Tests for the query profiler and CSA npz persistence."""

import numpy as np
import pytest

from repro import LCCSLSH
from repro.core import CircularShiftArray
from repro.eval.profiler import profile_query


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------

def test_profile_phases_positive(clustered):
    data, queries, _ = clustered
    index = LCCSLSH(dim=24, m=16, w=1.0, seed=1).fit(data)
    prof = profile_query(index, queries[0], k=5, num_candidates=50)
    assert prof.hash_ms >= 0.0
    assert prof.search_ms > 0.0
    assert prof.merge_ms > 0.0
    assert prof.verify_ms > 0.0
    assert prof.total_ms == pytest.approx(
        prof.hash_ms + prof.search_ms + prof.merge_ms + prof.verify_ms
    )
    assert prof.candidates >= 50
    assert 0 <= prof.max_lccs <= 16


def test_profile_matches_query_candidates(clustered):
    data, queries, _ = clustered
    index = LCCSLSH(dim=24, m=16, w=1.0, seed=2).fit(data)
    prof = profile_query(index, queries[1], k=5, num_candidates=40)
    index.query(queries[1], k=5, num_candidates=40)
    assert prof.candidates == index.last_stats["candidates"]


def test_profile_as_dict_keys(clustered):
    data, queries, _ = clustered
    index = LCCSLSH(dim=24, m=16, w=1.0, seed=3).fit(data)
    d = profile_query(index, queries[0], k=3).as_dict()
    assert set(d) == {
        "hash_ms", "search_ms", "merge_ms", "verify_ms",
        "total_ms", "candidates", "max_lccs",
    }


def test_profile_requires_fitted_index():
    index = LCCSLSH(dim=8, m=8, seed=0)
    with pytest.raises(RuntimeError):
        profile_query(index, np.zeros(8))


def test_verify_dominates_at_alpha_zero(clustered):
    """Table 1 intuition: with lambda ~ n, verification is the main cost."""
    data, queries, _ = clustered
    index = LCCSLSH(dim=24, m=8, w=1.0, seed=4).fit(data)
    prof = profile_query(
        index, queries[0], k=5, num_candidates=len(data)
    )
    assert prof.verify_ms + prof.merge_ms > prof.search_ms


# ----------------------------------------------------------------------
# CSA persistence: export_arrays -> (an npz, here) -> from_arrays
# ----------------------------------------------------------------------

def _through_npz(path, **arrays):
    np.savez_compressed(path, **arrays)
    with np.load(path) as payload:
        return CircularShiftArray.from_arrays(dict(payload), source=path)


def test_csa_npz_roundtrip(tmp_path, rng):
    strings = rng.integers(0, 5, size=(50, 8))
    csa = CircularShiftArray(strings)
    loaded = _through_npz(str(tmp_path / "csa.npz"), **csa.export_arrays())
    assert loaded.n == csa.n and loaded.m == csa.m
    assert np.array_equal(loaded.strings, strings)
    assert np.array_equal(loaded.sorted_idx, csa.sorted_idx)
    assert np.array_equal(loaded.next_link, csa.next_link)
    q = rng.integers(0, 5, size=8)
    a_ids, a_lens = csa.k_lccs(q, 10)
    b_ids, b_lens = loaded.k_lccs(q, 10)
    assert a_ids.tolist() == b_ids.tolist()
    assert a_lens.tolist() == b_lens.tolist()


def test_csa_npz_rejects_corrupt(tmp_path, rng):
    strings = rng.integers(0, 5, size=(10, 4))
    arrays = CircularShiftArray(strings).export_arrays()
    # missing arrays (the pre-``doubled`` ``strings`` layout included)
    with pytest.raises(ValueError, match="missing"):
        _through_npz(str(tmp_path / "bad.npz"), doubled=arrays["doubled"])
    with pytest.raises(ValueError, match="missing array 'doubled'"):
        _through_npz(
            str(tmp_path / "old.npz"),
            strings=strings,
            sorted_idx=arrays["sorted_idx"],
            next_link=arrays["next_link"],
        )
    # inconsistent shapes
    with pytest.raises(ValueError, match="inconsistent"):
        _through_npz(
            str(tmp_path / "bad2.npz"),
            **{**arrays, "sorted_idx": arrays["sorted_idx"][:, :5]},
        )
