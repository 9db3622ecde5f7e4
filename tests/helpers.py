"""Shared helpers for index tests."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


def average_recall(index, queries, gt, k=10, **query_kwargs):
    """Mean recall of ``index`` over a query batch against exact truth."""
    from repro.eval import recall

    total = 0.0
    for i, q in enumerate(queries):
        ids, _ = index.query(q, k=k, **query_kwargs)
        total += recall(ids, gt.indices[i, :k])
    return total / len(queries)


def _csas(index):
    """Every CSA ``index`` answers through (segments, wrappers included)."""
    if getattr(index, "csa", None) is not None:
        return [index.csa]
    segments = getattr(getattr(index, "_state", None), "segments", None)
    if segments is not None:
        return [csa for seg in segments for csa in _csas(seg.inner)]
    inner = getattr(index, "inner", None)
    return [] if inner is None else _csas(inner)


@contextmanager
def engine_detached(index):
    """Run ``index`` on the scalar path: the code the no-compiler
    fallback runs, with the engine re-attached on exit."""
    csas = _csas(index)
    saved = [csa._engine for csa in csas]
    for csa in csas:
        csa._engine = None
    try:
        yield index
    finally:
        for csa, engine in zip(csas, saved):
            csa._engine = engine


def oracle_query(index, q, k, **kwargs):
    """What the scalar path answers, whether or not the engine is attached.

    On the engine ``index.query`` is a batch of one, so comparing
    ``batch_query`` with ``query`` would compare the engine with itself.
    The oracle is the paper's algorithm spelled out with the pure-Python
    pieces only: for a plain :class:`~repro.LCCSLSH`, ``csa.k_lccs``
    (scalar bisections, heap merge) followed by ``ANNIndex._verify``,
    or with ``n_probes > 1`` the scalar probe ``_query`` under
    :func:`engine_detached`; for the dynamic index built on top of it,
    its own ``query`` under :func:`engine_detached`, where every LCCS
    segment runs exactly those paths (the batch-equivalence suite pins
    detached ``LCCSLSH.query`` to the spelled-out oracle).  Indexes
    without a CSA answer for themselves.
    """
    from repro import LCCSLSH
    from repro.base import ANNIndex

    q = np.asarray(q)
    if type(index) is LCCSLSH and kwargs.get("n_probes", 1) == 1:
        kwargs.pop("n_probes", None)
        num_candidates = kwargs.pop("num_candidates", None)
        assert not kwargs, f"oracle does not know {sorted(kwargs)}"
        if num_candidates is None:
            num_candidates = index.default_candidates(k)
        budget = min(index.n, num_candidates + k - 1)
        cand_ids, _ = index.csa.k_lccs(index.family.hash(q), budget)
        return ANNIndex._verify(index, cand_ids, q, k)
    with engine_detached(index):
        return index.query(q, k=k, **kwargs)


def assert_matches_oracle(got, want, what=""):
    """``(ids, dists)`` equal to the oracle's, bit for bit."""
    assert np.array_equal(got[0], want[0]), f"{what}: ids {got[0]} != {want[0]}"
    assert got[1].tobytes() == np.asarray(want[1]).tobytes(), f"{what}: dists"
