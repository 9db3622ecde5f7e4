"""The inline write path, pinned byte for byte.

A fixed op script (fit; inserts whose seals trigger size-tiered merges,
some into the base; deletes; ``flush()``; ``compact()``) runs through a
``DurableIndex`` with a small WAL segment size, so the log rotates.
Every file the WAL directory ends up holding must hash to the digests
below, and the tier shape and saturated answers must match too: any
change to when a seal or merge happens, or to which handles a
``compact`` record drops, shows here.

To regenerate after a deliberate format change, run this file as a
script (``PYTHONPATH=src python tests/test_wal_golden.py``) and paste
what it prints.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro import IndexSpec
from repro.serve import DurableIndex

DIM = 8
SPEC = IndexSpec(
    "DynamicLCCSLSH", dim=DIM, m=8, w=4.0, seed=7,
    memtable_size=8, max_segments=4,
)

#: sha256 of each file in the WAL directory after :func:`run_script`
GOLDEN_FILES = {
    "durable.json":
        "97c40fcf3b53fd61707219d3871edb8218e6627016b1debddb6a1047c2a5391f",
    "wal-000000000000.log":
        "79b66ca589969185a50e18b1bf408e6bef5fc70cdf61c9065a80d634e949c22d",
    "wal-000000000052.log":
        "c2691122daa73d97a2b070a8cdfcb22092a78f71653b60243e4268b683552108",
    "wal-000000000158.log":
        "99f8ff1328f1fd76d9599f3e68a30c21d71d5cb808ab65a004a371805d25356f",
    "wal-000000000264.log":
        "74e30d406153d8f1102270c055a50b20fd719bc10c5bddee7740575fe41ce777",
}
#: ``tier_stats()`` entries after the script
GOLDEN_TIERS = {
    "segment_rows": [321], "memtable": 7, "tombstones": 1, "seals": 38,
    "compactions": 24, "rows_rebuilt": 1820, "rebuilds": 63,
}
#: sha256 of the saturated batch answers (ids, then distances)
GOLDEN_ANSWERS = (
    "f6a018107a6f5ae98b74b8cdefd100ca21f944db614c6896ab9974b3ec6ca6ab"
)


def run_script(wal_dir: str):
    rng = np.random.default_rng(19)
    index = DurableIndex(
        SPEC.build(), wal_dir, fsync="off", segment_bytes=8 << 10, spec=SPEC
    )
    index.fit(rng.normal(size=(64, DIM)))
    for i, v in enumerate(rng.normal(size=(300, DIM))):
        handle = index.insert(v)
        if i % 7 == 3:
            index.delete(handle - 5)
        if i == 150:
            index.flush()
        if i == 220:
            index.compact()
    index.flush()
    index.compact()
    for i in range(7):
        index.insert(rng.normal(size=DIM))
    index.delete(2)
    index.close()
    return index.inner, rng.normal(size=(6, DIM))


def digests(wal_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(wal_dir)):
        with open(os.path.join(wal_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def tiers(index) -> dict:
    stats = index.tier_stats()
    keys = ("segment_rows", "memtable", "tombstones", "seals",
            "compactions", "rows_rebuilt", "rebuilds")
    return {key: stats[key] for key in keys}


def answers(index, queries) -> str:
    ids, dists = index.batch_query(queries, k=10, num_candidates=index.n)
    return hashlib.sha256(ids.tobytes() + dists.tobytes()).hexdigest()


def test_inline_write_path_is_byte_identical(tmp_path):
    wal_dir = str(tmp_path / "wal")
    index, queries = run_script(wal_dir)
    assert digests(wal_dir) == GOLDEN_FILES
    assert tiers(index) == GOLDEN_TIERS
    assert answers(index, queries) == GOLDEN_ANSWERS


if __name__ == "__main__":  # print the golden values
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        wal_dir = os.path.join(tmp, "wal")
        index, queries = run_script(wal_dir)
        print("GOLDEN_FILES =", digests(wal_dir))
        print("GOLDEN_TIERS =", tiers(index))
        print("GOLDEN_ANSWERS =", repr(answers(index, queries)))
