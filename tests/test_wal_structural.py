"""Structural WAL records (seal/compact) and crash-exact LSM recovery.

PR-6 proved crash recovery byte-exact for data ops (fit/insert/delete).
The LSM tiering adds *structural* ops — ``seal`` (memtable flush) and
``compact`` (segment merge) — and this module extends the same
contract over them: truncate the log at **any byte**, recover, and the
index must answer byte-identically to a serial replay of the surviving
record prefix, with the same tier shape.  Replicas tailing the log
must track the primary's segment layout through compactions.
"""

from __future__ import annotations

import json
import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicLCCSLSH, IndexSpec
from repro.serve import DurableIndex, WALError, recover
from repro.serve.durability.replica import Replica
from repro.serve.persistence import MANIFEST_NAME
from repro.serve.durability.wal import (
    CONFIG_NAME,
    OP_COMPACT,
    OP_COMPACT_PREFIX,
    OP_SEAL,
    PAYLOAD,
    Op,
    apply_op,
    decode_payload,
    encode_record,
    iter_ops,
    list_segments,
)

DIM = 8
SPEC = IndexSpec(
    "DynamicLCCSLSH",
    dim=DIM,
    m=8,
    w=4.0,
    seed=7,
    memtable_size=6,
    max_segments=2,
)


def make_lsm_ops(n_fit: int = 15, n_updates: int = 40, seed: int = 5):
    """Mixed workload whose log contains seal and compact records."""
    rng = np.random.default_rng(seed)
    ops = [("fit", rng.normal(size=(n_fit, DIM)))]
    next_handle = n_fit
    for i in range(n_updates):
        r = i % 7
        if r in (0, 1, 2, 3):
            ops.append(("insert", rng.normal(size=DIM)))
            next_handle += 1
        elif r == 4:
            ops.append(("delete", (5 * i) % next_handle))
        elif r == 5:
            ops.append(("flush", None))
        else:
            ops.append(("compact", None))
    return ops


def drive(di, ops):
    """Apply workload tuples through a DurableIndex; returns ack offsets."""
    offsets = []
    for kind, payload in ops:
        if kind == "fit":
            di.fit(payload)
        elif kind == "insert":
            di.insert(payload)
        elif kind == "delete":
            try:
                di.delete(payload)
            except KeyError:
                pass  # double delete: logged, replays as a no-op
        elif kind == "flush":
            di.flush()
        else:
            di.compact()
        offsets.append(di.wal.tail_offset)
    return offsets


def queries_for(n: int = 5, seed: int = 11):
    return np.random.default_rng(seed).normal(size=(n, DIM))


def assert_identical_answers(a, b, queries, k=5):
    for q in queries:
        cap = max(a.n, b.n, 1)
        ids_a, dists_a = a.query(q, k=k, num_candidates=cap)
        ids_b, dists_b = b.query(q, k=k, num_candidates=cap)
        assert ids_a.tobytes() == ids_b.tobytes()
        assert dists_a.tobytes() == dists_b.tobytes()


def assert_same_tier_shape(a, b):
    sa, sb = a.tier_stats(), b.tier_stats()
    for key in ("segments", "segment_rows", "memtable", "tombstones"):
        assert sa[key] == sb[key], f"tier_stats[{key}]: {sa[key]} != {sb[key]}"


# ----------------------------------------------------------------------
# Record format
# ----------------------------------------------------------------------

def test_structural_record_roundtrip():
    for seq, op in [
        (3, Op.seal(1234)),
        (9, Op.compact(0, 2, [1, 5, 42])),
        (10, Op.compact(1, 3, [])),  # a range in the middle of the stack
    ]:
        record = encode_record(op, seq)
        got_seq, got = decode_payload(record[8:])
        assert got_seq == seq
        assert got.kind == op.kind
        assert got.payload == op.payload


def test_malformed_structural_bodies_raise():
    def payload(code, body):
        return PAYLOAD.pack(code, 0) + body

    with pytest.raises(WALError, match="seal"):
        decode_payload(payload(OP_SEAL, b"\x00" * 7))  # short boundary
    for code, head in ((OP_COMPACT, "<IIQ"), (OP_COMPACT_PREFIX, "<IQ")):
        short = struct.calcsize(head) - 1
        with pytest.raises(WALError, match="compact"):
            decode_payload(payload(code, b"\x00" * short))  # short header
        with pytest.raises(WALError, match="compact"):
            # header claims 3 dropped handles, body carries only 2
            span = (0, 1) if code == OP_COMPACT else (1,)
            body = struct.pack(head, *span, 3) + b"\x00" * 16
            decode_payload(payload(code, body))


def test_parent_format_compact_record_replays_as_a_prefix_range(tmp_path):
    """Logs written before PR 23 carry ``<IQ`` (j, count) under opcode 5:
    'merge the first j segments'.  They decode as the range ``0..j`` and
    replay through the one range path."""
    body = struct.pack("<IQ", 2, 1) + np.array([3], dtype=np.int64).tobytes()
    seq, op = decode_payload(PAYLOAD.pack(OP_COMPACT_PREFIX, 17) + body)
    assert (seq, op) == (17, Op.compact(0, 2, [3]))

    rng = np.random.default_rng(2)
    history = [("fit", rng.normal(size=(40, DIM)))]
    history += [("insert", v) for v in rng.normal(size=(18, DIM))]
    history.append(("delete", 3))
    twins = []
    for _ in range(2):
        twin = DynamicLCCSLSH(
            dim=DIM, m=8, w=4.0, seed=7, memtable_size=6, max_segments=9,
        )
        for record in history:
            twin.apply_op(record)
        assert twin.tier_stats()["segment_rows"] == [40, 12, 6]
        twins.append(twin)
    twins[0].apply_op((op.kind, op.payload))
    twins[1].apply_op(("compact", (0, 2, [3])))
    assert twins[0].tier_stats()["segment_rows"] == [51, 6]
    assert_same_tier_shape(*twins)
    assert_identical_answers(*twins, queries_for())
    with pytest.raises(ValueError, match="compact record"):
        twins[0].apply_op(("compact", (2, 4, [])))  # past the stack


def test_apply_op_structural_requires_lsm_hooks():
    class Plain:
        def insert(self, v):
            return 0

    with pytest.raises(WALError, match="seal"):
        apply_op(Plain(), Op.seal(10))
    with pytest.raises(WALError, match="compact"):
        apply_op(Plain(), Op.compact(0, 1, []))


def test_durable_flush_requires_index_support(tmp_path):
    from repro.baselines import LinearScan

    di = DurableIndex(LinearScan(dim=DIM), str(tmp_path / "wal"))
    with pytest.raises(TypeError):
        di.flush()
    with pytest.raises(TypeError):
        di.compact()


# ----------------------------------------------------------------------
# Recovery across structural records
# ----------------------------------------------------------------------

def test_recover_replays_structural_ops_byte_identically(tmp_path):
    wal_dir = str(tmp_path / "wal")
    ops = make_lsm_ops()
    di = DurableIndex(SPEC.build(), wal_dir, spec=SPEC)
    drive(di, ops)
    di.wal.sync()
    result = recover(wal_dir)
    assert result.applied_seq == di.applied_seq
    assert_same_tier_shape(result.index, di.inner)
    assert_identical_answers(result.index, di.inner, queries_for())


def test_recover_from_snapshot_mid_compaction_history(tmp_path):
    wal_dir = str(tmp_path / "wal")
    from repro.serve import SnapshotManager

    di = DurableIndex(
        SPEC.build(),
        wal_dir,
        spec=SPEC,
        snapshots=SnapshotManager(wal_dir, every_ops=11),
    )
    drive(di, make_lsm_ops())
    di.wal.sync()
    result = recover(wal_dir)
    assert result.snapshot_seq is not None  # snapshot + suffix, not full log
    assert_same_tier_shape(result.index, di.inner)
    assert_identical_answers(result.index, di.inner, queries_for())


@settings(max_examples=20, deadline=None)
@given(cut=st.integers(min_value=0, max_value=10**9), data=st.data())
def test_truncate_anywhere_recovers_acknowledged_prefix(tmp_path_factory, cut, data):
    """Crash at any byte of a log holding seal/compact records: recovery
    equals a serial replay of the records that survived whole."""
    base = tmp_path_factory.mktemp("lsm-crash")
    wal_dir = os.path.join(str(base), "wal")
    di = DurableIndex(SPEC.build(), wal_dir, spec=SPEC)
    drive(di, make_lsm_ops(n_updates=25))
    di.close()
    segments = list_segments(wal_dir)
    assert segments
    target = segments[-1][1]
    offset = cut % (os.path.getsize(target) + 1)
    torn = os.path.join(str(base), "torn")
    shutil.copytree(wal_dir, torn)
    with open(os.path.join(torn, os.path.basename(target)), "r+b") as f:
        f.truncate(offset)

    recovered = recover(torn).index
    reference = SPEC.build()
    for _, op in iter_ops(torn):
        reference.apply_op((op.kind, op.payload))
    assert recovered.is_fitted == reference.is_fitted
    if not reference.is_fitted:  # cut fell before the fit record survived
        return
    assert_same_tier_shape(recovered, reference)
    assert_identical_answers(recovered, reference, queries_for(3))


# ----------------------------------------------------------------------
# Replication across compactions
# ----------------------------------------------------------------------

def test_replicas_track_tier_shape_through_compactions(tmp_path):
    rng = np.random.default_rng(3)
    wal_dir = str(tmp_path / "wal")
    primary = DurableIndex(SPEC.build(), wal_dir, spec=SPEC)
    primary.fit(rng.normal(size=(15, DIM)))
    replicas = [Replica(wal_dir), Replica(wal_dir)]
    for i, v in enumerate(rng.normal(size=(30, DIM))):
        primary.insert(v)
        if i % 9 == 8:
            primary.flush()
            primary.compact()
        if i == 13:
            replicas[1].catch_up()  # one follower polls mid-stream too
    primary.wal.sync()
    assert primary.inner.compactions >= 1
    queries = queries_for(4)
    cap = max(primary.inner.n, 1)
    for replica in replicas:
        replica.catch_up()
        assert_same_tier_shape(replica.index.inner, primary.inner)
        assert_identical_answers(replica.index.inner, primary.inner, queries)
        # read-your-writes through the replica's own front door
        for q in queries:
            ids, dists = replica.query(
                q, k=5, min_version=primary.applied_seq, num_candidates=cap
            )
            pids, pdists = primary.inner.query(q, k=5, num_candidates=cap)
            assert ids.tobytes() == pids.tobytes()
            assert dists.tobytes() == pdists.tobytes()
    primary.close()


def test_recovery_and_replica_reach_the_primarys_exact_segments(tmp_path):
    """The benchmark's write schedule (10k base, 64-row memtable, 600
    inserts + deletes): ``recover()`` (snapshot + log suffix) and a
    replica polling mid-stream end with the primary's per-segment handle
    lists and its ``rows_rebuilt``, to the row."""
    from repro.serve import SnapshotManager

    spec = IndexSpec(
        "DynamicLCCSLSH", dim=DIM, m=8, w=4.0, seed=7,
        memtable_size=64, max_segments=4,
    )
    rng = np.random.default_rng(6)
    wal_dir = str(tmp_path / "wal")
    primary = DurableIndex(
        spec.build(), wal_dir, fsync="off", spec=spec,
        snapshots=SnapshotManager(wal_dir, every_ops=400),
    )
    primary.fit(rng.normal(size=(10_000, DIM)))
    primary.wal.sync()
    replica = Replica(wal_dir)
    for i, v in enumerate(rng.normal(size=(600, DIM))):
        primary.insert(v)
        if i % 5 == 4:
            primary.delete(int(rng.integers(10_000 + i)))
        if i % 97 == 96:
            primary.wal.sync()
            replica.catch_up()
    primary.wal.sync()
    replica.catch_up()
    result = recover(wal_dir)
    assert result.snapshot_seq is not None

    want = primary.inner.tier_stats()
    assert want["compactions"] >= 3
    assert want["rows_rebuilt"] <= 5 * 600
    assert want["segment_rows"][0] == 10_000  # the base was never rebuilt
    handles = [seg.handles.tolist() for seg in primary.inner._state.segments]
    for other in (result.index, replica.index.inner):
        got = other.tier_stats()
        for key in ("segment_rows", "memtable", "tombstones", "seals",
                    "compactions", "rows_rebuilt"):
            assert got[key] == want[key], key
        assert [s.handles.tolist() for s in other._state.segments] == handles
        assert_identical_answers(other, primary.inner, queries_for(3))
    primary.close()


# ----------------------------------------------------------------------
# Logs written under an earlier recipe
# ----------------------------------------------------------------------

def _record_compaction(path, key, mode):
    """Name a compaction mode in a ``durable.json`` recipe (``key``
    ``"spec"``) or a snapshot manifest (``key`` ``"state"``)."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    target = doc["spec"]["kwargs"] if key == "spec" else doc["state"]
    target["compaction"] = mode
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def test_recipe_naming_inline_compaction_recovers(tmp_path):
    wal_dir = str(tmp_path / "wal")
    di = DurableIndex(SPEC.build(), wal_dir, spec=SPEC)
    drive(di, make_lsm_ops())
    di.close()
    _record_compaction(os.path.join(wal_dir, CONFIG_NAME), "spec", "inline")
    result = recover(wal_dir)
    assert result.snapshot_seq is None and result.applied_seq == di.applied_seq
    assert_same_tier_shape(result.index, di.inner)
    assert_identical_answers(result.index, di.inner, queries_for())


@pytest.mark.parametrize("source", ["recipe", "snapshot"])
def test_background_compaction_logs_are_refused_before_replay(
    tmp_path, monkeypatch, source
):
    """Thread timing chose the ``compact`` ranges of a log written in the
    removed background mode, and inline replay would merge on its own:
    ``recover()`` and ``Replica`` refuse it before applying one record."""
    from repro.serve import RecoveryError, SnapshotManager
    from repro.serve.durability import snapshots

    wal_dir = str(tmp_path / "wal")
    manager = SnapshotManager(wal_dir) if source == "snapshot" else None
    di = DurableIndex(SPEC.build(), wal_dir, spec=SPEC, snapshots=manager)
    drive(di, make_lsm_ops())
    if source == "snapshot":
        path = os.path.join(di.checkpoint(), MANIFEST_NAME)
        drive(di, make_lsm_ops(n_fit=0, n_updates=8, seed=6)[1:])
    else:
        path = os.path.join(wal_dir, CONFIG_NAME)
    di.close()
    _record_compaction(path, "state" if source == "snapshot" else "spec",
                       "background")

    def no_replay(*args):
        raise AssertionError("a record was replayed")

    monkeypatch.setattr(snapshots, "replay", no_replay)
    with pytest.raises(RecoveryError, match="background"):
        recover(wal_dir)
    with pytest.raises(RecoveryError, match="background"):
        Replica(wal_dir)
