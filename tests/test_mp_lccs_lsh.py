"""Tests for MP-LCCS-LSH (paper §4.2): ``LCCSLSH.query(..., n_probes=p)``.

Multi-probe builds no index of its own: it probes perturbed query
strings against the same CSA, so it is a query argument of
:class:`~repro.LCCSLSH` (and of :class:`~repro.DynamicLCCSLSH`, which
forwards it to every segment).  The digests below were taken from the
multi-probe subclass this argument replaced, so the answers are pinned
byte for byte across the change, engine attached and detached.
"""

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest

from repro import DynamicLCCSLSH, LCCSLSH
from repro.core.lccs_lsh import affected_shifts
from repro.hashes import MinHashFamily

from tests.helpers import average_recall, engine_detached


def test_single_probe_matches_lccs_lsh(clustered):
    """With #probes = 1 MP-LCCS-LSH degenerates to LCCS-LSH (paper fn. 13):
    the scalar probe path at one probe answers like the plain path."""
    data, queries, _ = clustered
    index = LCCSLSH(dim=24, m=24, metric="euclidean", w=1.0, seed=5).fit(data)
    budget = index._budget(5, 40)
    with engine_detached(index):
        for q in queries[:10]:
            ids_a, dists_a = index.query(q, k=5, num_candidates=40)
            ids_b, dists_b = index._probe_query(q, 5, budget, n_probes=1)
            assert ids_a.tolist() == ids_b.tolist()
            assert np.allclose(dists_a, dists_b)


def test_more_probes_do_not_hurt_recall(clustered):
    """On this workload recall does not drop as probes grow to 2m + 1.

    Not a guarantee: at a fixed budget, extra probes can crowd out
    candidates the unperturbed search would have verified."""
    data, queries, gt = clustered
    index = LCCSLSH(dim=24, m=16, metric="euclidean", w=1.0, seed=6).fit(data)
    recalls = []
    for probes in (1, 17, 33):
        recalls.append(
            average_recall(
                index, queries, gt, k=10, num_candidates=60, n_probes=probes
            )
        )
    assert recalls[0] <= recalls[1] + 1e-9
    assert recalls[1] <= recalls[2] + 1e-9


def test_probing_helps_small_m(clustered):
    """The paper's motivation: probing recovers recall when m is small."""
    data, queries, gt = clustered
    index = LCCSLSH(dim=24, m=8, metric="euclidean", w=1.0, seed=7).fit(data)
    base = average_recall(index, queries, gt, k=10, num_candidates=30, n_probes=1)
    probed = average_recall(index, queries, gt, k=10, num_candidates=30, n_probes=65)
    assert probed >= base


def test_angular_multiprobe(clustered_angular):
    data, queries, gt = clustered_angular
    index = LCCSLSH(dim=24, m=16, metric="angular", cp_dim=8, seed=8).fit(data)
    rec = average_recall(index, queries, gt, k=10, num_candidates=100, n_probes=33)
    assert rec >= 0.85


def test_stats_reported(clustered):
    data, queries, _ = clustered
    index = LCCSLSH(dim=24, m=16, metric="euclidean", w=1.0, seed=9).fit(data)
    index.query(queries[0], k=3, num_candidates=30, n_probes=17)
    assert index.last_stats["probes"] == 17
    assert index.last_stats["probe_searches"] >= 0
    assert index.last_stats["candidates"] >= 3


def test_rejects_nonprobing_family():
    """MinHash has no scored alternatives: probing it is refused by name,
    while a single probe answers as ever."""
    rng = np.random.default_rng(1)
    data = (rng.random((60, 50)) < 0.3).astype(np.float64)
    fam = MinHashFamily(50, 16, seed=1)
    index = LCCSLSH(dim=50, m=16, family=fam).fit(data)
    dynamic = DynamicLCCSLSH(dim=50, m=16, metric="jaccard", seed=1).fit(data)
    memtable = _memtable_only(data, metric="jaccard", seed=1)
    for idx in (index, dynamic, memtable):
        with pytest.raises(ValueError, match="MinHashFamily.*multi-probe"):
            idx.query(data[0], k=3, n_probes=5)
        with pytest.raises(ValueError, match="MinHashFamily.*multi-probe"):
            idx.batch_query(data[:2], k=3, n_probes=5)
        ids, _ = idx.query(data[1], k=3, n_probes=1)
        assert 1 in ids.tolist()


def _memtable_only(data, **kw):
    """A dynamic index with no sealed segment: every live row sits in
    the memtable (the one fitted row is deleted, then rows inserted)."""
    index = DynamicLCCSLSH(
        dim=data.shape[1], m=16, memtable_size=16, **kw
    ).fit(data[:1])
    index.delete(0)
    for row in data[1:4]:
        index.insert(row)
    assert index.segment_count == 0 and index.buffer_size == 3
    return index


def test_validation():
    """``n_probes`` must be an integer >= 1, on every index and path,
    including a dynamic index whose rows all sit in the memtable."""
    data = np.random.default_rng(2).normal(size=(40, 8))
    indexes = [
        LCCSLSH(dim=8, m=16, seed=2).fit(data),
        DynamicLCCSLSH(dim=8, m=16, seed=2).fit(data),
        _memtable_only(data, seed=2),
    ]
    for index in indexes:
        for bad in (0, -3, 2.0, "5", None, True):
            with pytest.raises(ValueError, match="n_probes"):
                index.query(data[0], k=2, n_probes=bad)
            with pytest.raises(ValueError, match="n_probes"):
                index.batch_query(data[:3], k=2, n_probes=bad)
        for good in (1, 5, np.int64(5)):
            assert len(index.query(data[1], k=2, n_probes=good)[0]) == 2


@pytest.mark.parametrize("n_probes", [1, 5])
@pytest.mark.parametrize("kind", ["lccs", "dynamic", "memtable"])
def test_nonpositive_num_candidates_raises(kind, n_probes):
    """Every index refuses a non-positive budget at every probe count,
    from ``query`` and from ``batch_query`` at B = 1 and 13."""
    data = np.random.default_rng(3).normal(size=(120, 8))
    index = {
        "lccs": lambda: LCCSLSH(dim=8, m=16, seed=3).fit(data),
        "dynamic": lambda: DynamicLCCSLSH(dim=8, m=16, seed=3).fit(data),
        "memtable": lambda: _memtable_only(data, seed=3),
    }[kind]()
    for k, num_candidates in ((1, 0), (3, 0), (1, -1)):
        kw = dict(num_candidates=num_candidates, n_probes=n_probes)
        with pytest.raises(ValueError, match="num_candidates must be positive"):
            index.query(data[0], k=k, **kw)
        for batch in (1, 13):
            with pytest.raises(
                ValueError, match="num_candidates must be positive"
            ):
                index.batch_query(data[:batch], k=k, **kw)


def test_affected_shifts_cover_modified_positions():
    """Every shift whose window reaches a modified position is re-searched."""
    reach = np.array([2] * 12)
    # shifts 2, 3, 4 have (4 - s) % 12 <= 2
    assert affected_shifts((4,), reach) == [2, 3, 4]
    # wrap-around: position 0 with reach 3 affects shifts 9, 10, 11, 0
    assert affected_shifts((0,), np.array([3] * 12)) == [0, 9, 10, 11]


# ----------------------------------------------------------------------
# Byte-identity with the multi-probe subclass this argument replaced
# ----------------------------------------------------------------------

#: sha1 of the padded (ids, dists) answer to 20 queries, k=10, taken
#: from the multi-probe subclass built with ``n_probes=p``, before it
#: was folded into ``LCCSLSH``; its scalar and batched paths agreed
PINNED = {
    "euclidean-m16-p17": (
        dict(m=16, w=2.0), 17, "7a779c2b6c140851d7f514edb7dacb4b9ad6e79f"
    ),
    "euclidean-m8-p5": (
        dict(m=8, w=2.0), 5, "e07cbaad97cdb089479413c795e08c7eb24c71e6"
    ),
    "angular-m16-p33": (
        dict(m=16, metric="angular", cp_dim=8), 33,
        "03242addd94090d8e7a92f2fec9da0e95ffa797c",
    ),
}


def _digest(ids, dists):
    return hashlib.sha1(ids.tobytes() + dists.tobytes()).hexdigest()


@pytest.mark.parametrize("path", ["engine", "detached"])
@pytest.mark.parametrize("case", sorted(PINNED))
def test_answers_match_the_pinned_digests(case, path):
    kw, n_probes, want = PINNED[case]
    rng = np.random.default_rng(37)
    data = rng.normal(size=(600, 16))
    queries = rng.normal(size=(20, 16))
    if kw.get("metric") == "angular":
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    index = LCCSLSH(dim=16, seed=11, **kw).fit(data)
    k = 10
    with engine_detached(index) if path == "detached" else nullcontext():
        ids, dists = index.batch_query(queries, k=k, n_probes=n_probes)
        assert _digest(ids, dists) == want
        ids = np.full((len(queries), k), -1, dtype=np.int64)
        dists = np.full((len(queries), k), np.inf)
        for i, q in enumerate(queries):
            got_ids, got_dists = index.query(q, k=k, n_probes=n_probes)
            ids[i, : len(got_ids)] = got_ids
            dists[i, : len(got_dists)] = got_dists
        assert _digest(ids, dists) == want


def test_dynamic_index_probes_every_segment(clustered):
    """Probing reaches the dynamic index: every sealed segment probes,
    and m + 1 probes recover recall a single probe misses at small m
    (at a fixed budget recall is not monotone beyond that, static or
    dynamic: more probes can crowd the budget)."""
    data, queries, gt = clustered
    index = DynamicLCCSLSH(
        dim=24, m=8, w=1.0, seed=7, memtable_size=64
    ).fit(data[:900])
    for row in data[900:]:
        index.insert(row)
    assert index.segment_count > 1 and index.buffer_size > 0
    base, probed = (
        average_recall(index, queries, gt, k=10, num_candidates=30, n_probes=p)
        for p in (1, 9)
    )
    assert probed > base
    index.query(queries[0], k=10, n_probes=9)
    assert index.last_stats["probes"] == 9 * index.segment_count
