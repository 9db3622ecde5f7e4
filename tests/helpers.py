"""Shared helpers for index tests."""

from __future__ import annotations

import numpy as np


def average_recall(index, queries, gt, k=10, **query_kwargs):
    """Mean recall of ``index`` over a query batch against exact truth."""
    from repro.eval import recall

    total = 0.0
    for i, q in enumerate(queries):
        ids, _ = index.query(q, k=k, **query_kwargs)
        total += recall(ids, gt.indices[i, :k])
    return total / len(queries)


def oracle_query(index, q, k, **kwargs):
    """What the scalar reference engine answers, whatever backend is set.

    On a compiled backend ``index.query`` is the batch engine at B=1, so
    comparing ``batch_query`` with ``query`` would compare the engine
    with itself.  The oracle is the paper's algorithm spelled out with
    the pure-Python pieces only: for a plain :class:`~repro.LCCSLSH`,
    ``csa.k_lccs`` (scalar bisections, heap merge) followed by
    ``ANNIndex._verify``; for the indexes built on top of it
    (multi-probe, dynamic), their own scalar ``query`` with the kernels
    switched to the NumPy reference, under which every LCCS segment runs
    exactly that path (the batch-equivalence suite pins
    ``LCCSLSH.query`` on ``numpy`` to the spelled-out oracle).  Indexes
    without kernel backends answer for themselves.
    """
    from repro import LCCSLSH
    from repro.base import ANNIndex

    q = np.asarray(q)
    if type(index) is LCCSLSH:
        num_candidates = kwargs.pop("num_candidates", None)
        assert not kwargs, f"oracle does not know {sorted(kwargs)}"
        if num_candidates is None:
            num_candidates = index.default_candidates(k)
        budget = min(index.n, num_candidates + k - 1)
        cand_ids, _ = index.csa.k_lccs(index.family.hash(q), budget)
        return ANNIndex._verify(index, cand_ids, q, k)
    set_backend = getattr(index, "set_kernel_backend", None)
    if set_backend is None:
        return index.query(q, k=k, **kwargs)
    before = index.kernel_backend
    set_backend("numpy")
    try:
        return index.query(q, k=k, **kwargs)
    finally:
        set_backend(before)


def assert_matches_oracle(got, want, what=""):
    """``(ids, dists)`` equal to the oracle's, bit for bit."""
    assert np.array_equal(got[0], want[0]), f"{what}: ids {got[0]} != {want[0]}"
    assert got[1].tobytes() == np.asarray(want[1]).tobytes(), f"{what}: dists"
