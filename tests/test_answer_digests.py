"""Answers pinned byte for byte across the narrow-code CSA.

Each CSA stores its hash strings as unsigned codes of the narrowest
width that holds the fitted range (1, 2, 4 or 8 bytes).  The digests
below were taken before that change, when every character was an int64,
so they pin the answers of every family — and of every width the
families produce here — to what the int64 CSA returned.  Every path must
give the pinned digest: ``query`` and ``batch_query`` at B = 1 and 13,
engine attached and detached, at one probe and (where the family
probes) at nine.  A few queries are scaled far out of the data's range,
so their characters fall outside the fitted range and clamp.
"""

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest

from repro import DynamicLCCSLSH, LCCSLSH
from repro.data.synthetic import binary_strings, sift_like, sparse_sets

from tests.helpers import _csas, engine_detached

K = 10
N_QUERIES = 13


def _unit(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _case(name):
    """``(index, queries, width)`` of one pinned case."""
    rng = np.random.default_rng(71)
    if name == "rp-normalised":
        data = _unit(rng.normal(size=(500, 24)))
        queries = _unit(rng.normal(size=(N_QUERIES, 24)))
        queries[:3] *= 40.0  # characters outside the fitted range
        index = LCCSLSH(dim=24, m=24, w=1.0, seed=3).fit(data)
        return index, queries, 1
    if name == "rp-sift-w4":
        data = sift_like(500, 32, seed=4)
        queries = sift_like(N_QUERIES, 32, seed=5)
        queries[:3] *= 3.0
        index = LCCSLSH(dim=32, m=16, w=4.0, seed=4).fit(data)
        return index, queries, 2
    if name == "cross-polytope":
        data = _unit(rng.normal(size=(500, 16)))
        queries = _unit(rng.normal(size=(N_QUERIES, 16)))
        index = LCCSLSH(dim=16, m=16, metric="angular", cp_dim=8, seed=5)
        return index.fit(data), queries, 1
    if name == "bit-sampling":
        data = binary_strings(500, 64, seed=6).astype(np.float64)
        queries = binary_strings(N_QUERIES, 64, seed=7).astype(np.float64)
        index = LCCSLSH(dim=64, m=24, metric="hamming", seed=6).fit(data)
        return index, queries, 1
    if name == "minhash":
        data = sparse_sets(500, 128, avg_size=12, seed=8).astype(np.float64)
        queries = sparse_sets(N_QUERIES, 128, avg_size=12, seed=9)
        index = LCCSLSH(dim=128, m=16, metric="jaccard", seed=8).fit(data)
        return index, queries.astype(np.float64), 8
    if name == "cauchy":
        data = rng.normal(size=(500, 16))
        queries = rng.normal(size=(N_QUERIES, 16))
        queries[:3] *= 50.0
        index = LCCSLSH(dim=16, m=16, metric="manhattan", w=0.5, seed=10)
        return index.fit(data), queries, 2
    if name == "dynamic-aged":
        data = rng.normal(size=(420, 16))
        queries = rng.normal(size=(N_QUERIES, 16))
        queries[:3] *= 20.0
        index = DynamicLCCSLSH(
            dim=16, m=16, w=1.0, seed=11, memtable_size=16
        ).fit(data[:300])
        for row in data[300:]:  # sealed tiers of 64, 32, 16 and a memtable
            index.insert(row)
        for handle in range(0, 420, 7):
            index.delete(handle)
        return index, queries, 1
    raise KeyError(name)


def _digest(ids, dists):
    return hashlib.sha1(ids.tobytes() + dists.tobytes()).hexdigest()


def _padded(answers):
    ids = np.full((len(answers), K), -1, dtype=np.int64)
    dists = np.full((len(answers), K), np.inf)
    for i, (got_ids, got_dists) in enumerate(answers):
        ids[i, : len(got_ids)] = got_ids
        dists[i, : len(got_dists)] = got_dists
    return ids, dists


def path_digests(index, queries, n_probes):
    """Digest of the padded answers, per (path, engine) combination."""
    out = {}
    for engine in ("engine", "detached"):
        with engine_detached(index) if engine == "detached" else nullcontext():
            kw = dict(k=K, n_probes=n_probes)
            out[f"query/{engine}"] = _digest(
                *_padded([index.query(q, **kw) for q in queries])
            )
            ones = [index.batch_query(q[None, :], **kw) for q in queries]
            out[f"batch1/{engine}"] = _digest(
                np.concatenate([ids for ids, _ in ones]),
                np.concatenate([dists for _, dists in ones]),
            )
            out[f"batch13/{engine}"] = _digest(*index.batch_query(queries, **kw))
    return out


#: (case, n_probes) -> sha1 of the padded (ids, dists) answer, taken
#: from the int64 CSA
PINNED = {
    ("rp-normalised", 1): "bf75ccf58efc8b20cc02a4fcf6e680b5f60d5779",
    ("rp-normalised", 9): "4330f178a83d23e50129055f5bd130bd3b0bdc67",
    ("rp-sift-w4", 1): "4172c822cba58a90d56a7d51a499570227257027",
    ("rp-sift-w4", 9): "a664c1310d2bba9c9aa33233f4422eab37d76f18",
    ("cross-polytope", 1): "e69c8ab5e1690b83ec8e400f928761b43a3b599c",
    ("cross-polytope", 9): "d88822e8c5e9308b49a5bcd05fbacc283dcbd7c4",
    ("bit-sampling", 1): "76e8291f01df01e008760a4e741cd003034ba78a",
    ("bit-sampling", 9): "4d7211914381a455bd03310bac936b6e683bd20a",
    ("minhash", 1): "83649dfa77fad8dec284ad398c8ac3abf71b0135",
    ("cauchy", 1): "d1a55e8037de0553be18158c4806f558ac45634c",
    ("cauchy", 9): "3f181bc6884db8b99430697040ad3d704633dfb0",
    ("dynamic-aged", 1): "59c66222c2cb28e62411a34b8214a4930983ca05",
    ("dynamic-aged", 9): "264a863db2a492c0718af2ecc28640acac83e8db",
}


@pytest.mark.parametrize("case,n_probes", sorted(PINNED))
def test_answers_match_the_int64_csa(case, n_probes):
    index, queries, width = _case(case)
    csas = _csas(index)
    assert {csa.width for csa in csas} == {width}
    if case == "dynamic-aged":  # each segment encodes against its own range
        assert len(csas) == 4 and len({csa.offset for csa in csas}) > 1
    got = path_digests(index, queries, n_probes)
    assert got == {path: PINNED[case, n_probes] for path in got}
