"""Ablation: CSA next-link chaining vs the paper's "simple method".

Section 3.2 motivates the next links + windowed binary searches
(Lemma 3.1 / Corollary 3.2) as the step from ``O(m (m + log n))`` to
``O(log n + (m + k) log m)`` query time.  This bench isolates exactly
that design choice: identical sorted indices, identical results, only
the query path differs.  A second ablation quantifies the multi-probe
batched bisection (one lock-step vectorised search vs sequential ones).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import LCCSLSH, NaiveCSA
from repro.core import CircularShiftArray
from repro.eval import banner, format_table

from conftest import get_bundle, suggest_w


@pytest.fixture(scope="module")
def hash_strings():
    _, data, queries, gt = get_bundle("sift", "euclidean")
    index = LCCSLSH(dim=data.shape[1], m=64, w=suggest_w(gt), seed=1).fit(data)
    q_strings = [index.family.hash(q) for q in queries]
    return index.hash_strings, q_strings


def _avg_query_ms(csa, q_strings, k=100):
    start = time.perf_counter()
    for q in q_strings:
        csa.k_lccs(q, k)
    return (time.perf_counter() - start) / len(q_strings) * 1e3


def test_ablation_next_links(hash_strings, benchmark, reporter, capsys):
    strings, q_strings = hash_strings
    chained = CircularShiftArray(strings)
    naive = NaiveCSA(strings)
    # Identical answers (the ablation changes performance only).
    for q in q_strings[:5]:
        a = chained.k_lccs(q, 50)[1].tolist()
        b = naive.k_lccs(q, 50)[1].tolist()
        assert a == b
    t_chained = _avg_query_ms(chained, q_strings)
    t_naive = _avg_query_ms(naive, q_strings)
    table = format_table(
        ("variant", "avg k-LCCS query (ms)"),
        [
            ("CSA with next links (paper)", t_chained),
            ("simple method (m full searches)", t_naive),
            ("speedup", t_naive / t_chained),
        ],
    )
    reporter(
        "ablation_csa",
        banner(f"Ablation: next-link chaining, n={len(strings)}, m=64")
        + "\n" + table,
        capsys,
    )
    assert t_chained < t_naive

    q = q_strings[0]
    benchmark(lambda: chained.k_lccs(q, 100))


def test_ablation_batched_probe_search(benchmark, reporter, capsys):
    _, data, queries, gt = get_bundle("sift", "euclidean")
    index = LCCSLSH(dim=data.shape[1], m=32, w=suggest_w(gt), seed=1).fit(data)
    csa = index.csa
    rng = np.random.default_rng(0)
    shifts = rng.integers(0, csa.m, size=256)
    q_strings = [index.family.hash(q) for q in queries]
    rots = np.stack(
        [
            csa.query_rotations(q_strings[i % len(q_strings)])[s : s + csa.m]
            for i, s in enumerate(shifts)
        ]
    )
    t0 = time.perf_counter()
    batched = csa.batch_binary_search(shifts, rots)
    t_batch = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    sequential = [
        csa.binary_search(int(s), rots[i]) for i, s in enumerate(shifts)
    ]
    t_seq = (time.perf_counter() - t0) * 1e3
    assert [
        (b.pos_lower, b.pos_upper, b.len_lower, b.len_upper) for b in batched
    ] == [
        (b.pos_lower, b.pos_upper, b.len_lower, b.len_upper) for b in sequential
    ]
    table = format_table(
        ("variant", "256 probe searches (ms)"),
        [
            ("batched lock-step bisection", t_batch),
            ("sequential bisection", t_seq),
            ("speedup", t_seq / t_batch),
        ],
    )
    reporter(
        "ablation_batch",
        banner("Ablation: batched probe binary search") + "\n" + table,
        capsys,
    )
    benchmark(lambda: csa.batch_binary_search(shifts, rots))
