"""Tests for the shared ANNIndex contract."""

import numpy as np
import pytest

from repro.base import ANNIndex
from repro.baselines import LinearScan
from repro.serve import BundleError


class _Dummy(ANNIndex):
    name = "dummy"

    def _fit(self, data):
        pass

    def _query(self, q, k, **kw):
        return self._verify(np.arange(self.n), q, k)


def test_fit_validation(rng):
    idx = _Dummy(dim=4)
    with pytest.raises(ValueError):
        idx.fit(rng.normal(size=4))  # 1-d
    with pytest.raises(ValueError):
        idx.fit(np.empty((0, 4)))
    with pytest.raises(ValueError):
        idx.fit(rng.normal(size=(5, 3)))  # wrong dim
    with pytest.raises(ValueError):
        _Dummy(dim=0)


def test_query_validation(rng):
    idx = _Dummy(dim=4)
    with pytest.raises(RuntimeError):
        idx.query(np.zeros(4), k=1)
    idx.fit(rng.normal(size=(10, 4)))
    with pytest.raises(ValueError):
        idx.query(np.zeros(3), k=1)
    with pytest.raises(ValueError):
        idx.query(np.zeros(4), k=0)


def test_properties_and_repr(rng):
    idx = _Dummy(dim=4)
    assert not idx.is_fitted and idx.n == 0
    assert "unfitted" in repr(idx)
    idx.fit(rng.normal(size=(10, 4)))
    assert idx.is_fitted and idx.n == 10
    assert "n=10" in repr(idx)


def test_verify_dedupes_and_sorts(rng):
    idx = _Dummy(dim=4).fit(rng.normal(size=(20, 4)))
    q = rng.normal(size=4)
    ids, dists = idx._verify(np.array([3, 3, 7, 1, 7]), q, 5)
    assert len(ids) == 3  # deduplicated
    assert (np.diff(dists) >= 0).all()
    assert idx.last_stats["candidates"] == 3


def test_verify_empty_candidates(rng):
    idx = _Dummy(dim=4).fit(rng.normal(size=(5, 4)))
    ids, dists = idx._verify(np.array([], dtype=np.int64), np.zeros(4), 3)
    assert len(ids) == 0 and len(dists) == 0


def test_batch_query_padding(rng):
    data = rng.normal(size=(3, 4))
    idx = LinearScan(dim=4).fit(data)
    ids, dists = idx.batch_query(rng.normal(size=(2, 4)), k=5)
    assert ids.shape == (2, 5)
    assert (ids[:, 3:] == -1).all()  # only 3 points exist
    assert np.isinf(dists[:, 3:]).all()
    with pytest.raises(ValueError):
        idx.batch_query(rng.normal(size=4), k=2)


def test_save_load_type_check(tmp_path):
    import pickle

    path = tmp_path / "junk.pkl"
    with open(path, "wb") as f:
        pickle.dump({"not": "an index"}, f)
    with pytest.raises(BundleError, match="not a bundle"):
        ANNIndex.load(str(path))
