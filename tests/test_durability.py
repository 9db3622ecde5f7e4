"""Durability: WAL format, torn tails, snapshots, and crash recovery.

The headline property (the subsystem's acceptance contract): kill the
process at **any WAL byte offset** — simulated by truncating the log
file at a hypothesis-chosen offset — recover, and the resulting index
answers queries *byte-identically* to an index built by serially
replaying the acknowledged op prefix (every op whose record lies wholly
inside the truncated log).  Corrupt snapshots must degrade to older
snapshots and finally to a full-log replay, never to wrong answers.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicLCCSLSH, IndexSpec, LCCSLSH
from repro.serve import (
    DurableIndex,
    RecoveryError,
    SnapshotManager,
    WALError,
    WriteAheadLog,
    recover,
)
from repro.serve.durability import list_snapshots
from repro.serve.durability.wal import (
    CONFIG_NAME,
    Op,
    apply_op,
    decode_payload,
    encode_record,
    iter_ops,
    list_segments,
)

DIM = 8
SPEC = IndexSpec(
    "DynamicLCCSLSH", dim=DIM, m=8, w=4.0, seed=7, rebuild_threshold=0.3
)


def make_ops(n_fit: int = 20, n_updates: int = 30, seed: int = 5):
    """A deterministic mixed workload of replayable op tuples.

    Includes deletes of fresh handles, of fitted rows, and one
    *double* delete (which fails live and must replay as a no-op).
    """
    rng = np.random.default_rng(seed)
    ops = [("fit", rng.normal(size=(n_fit, DIM)))]
    next_handle = n_fit
    deleted = []
    for i in range(n_updates):
        r = i % 5
        if r in (0, 1, 2):
            ops.append(("insert", rng.normal(size=DIM)))
            next_handle += 1
        elif r == 3:
            target = (7 * i) % next_handle
            ops.append(("delete", target))
            deleted.append(target)
        else:
            # every other round: re-delete an already-deleted handle
            ops.append(("delete", deleted[-1] if i % 2 else (3 * i) % next_handle))
    return ops


def apply_all(index, ops):
    for op in ops:
        index.apply_op(op)
    return index


def run_through_wal(wal_dir, ops, **durable_kwargs):
    """Apply ``ops`` through a DurableIndex; returns (index, ack_offsets).

    ``ack_offsets[i]`` is the WAL byte offset after op ``i`` was
    acknowledged — the boundaries the crash property test truncates at.
    """
    di = DurableIndex(SPEC.build(), wal_dir, spec=SPEC, **durable_kwargs)
    offsets = []
    for kind, payload in ops:
        if kind == "fit":
            di.fit(payload)
        elif kind == "insert":
            di.insert(payload)
        else:
            try:
                di.delete(payload)
            except KeyError:
                pass  # double delete: logged, applied as no-op
        offsets.append(di.wal.tail_offset)
    return di, offsets


def queries_for(n: int = 6, seed: int = 11):
    return np.random.default_rng(seed).normal(size=(n, DIM))


def assert_identical_answers(a, b, queries, k=5):
    for q in queries:
        cap = max(a.n, b.n, 1)
        ids_a, dists_a = a.query(q, k=k, num_candidates=cap)
        ids_b, dists_b = b.query(q, k=k, num_candidates=cap)
        assert ids_a.tobytes() == ids_b.tobytes()
        assert dists_a.tobytes() == dists_b.tobytes()


# ----------------------------------------------------------------------
# Record / segment format
# ----------------------------------------------------------------------

def test_record_roundtrip():
    for seq, op in [
        (0, Op.fit(np.arange(12.0).reshape(3, 4))),
        (7, Op.insert(np.arange(4.0))),
        (123456789, Op.delete(42)),
    ]:
        record = encode_record(op, seq)
        payload = record[8:]
        got_seq, got = decode_payload(payload)
        assert got_seq == seq
        assert got.kind == op.kind
        if got.kind == "delete":
            assert got.payload == op.payload
        else:
            assert np.array_equal(got.payload, op.payload)


def test_append_and_iter(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    ops = [Op.insert(np.full(3, float(i))) for i in range(5)]
    for i, op in enumerate(ops):
        assert wal.append(op) == i
    wal.close()
    got = list(iter_ops(str(tmp_path / "wal")))
    assert [seq for seq, _ in got] == list(range(5))
    assert [float(op.payload[0]) for _, op in got] == [0.0, 1.0, 2.0, 3.0, 4.0]
    # start_seq skips the prefix
    assert [seq for seq, _ in iter_ops(str(tmp_path / "wal"), start_seq=3)] == [3, 4]


def test_segment_rotation_and_reopen(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path, segment_bytes=200)
    for i in range(20):
        wal.append(Op.insert(np.full(4, float(i))))
    assert wal.rotations > 0
    assert len(wal.segments()) == wal.rotations + 1
    wal.close()
    # Reopen resumes at the right sequence number and keeps appending.
    wal2 = WriteAheadLog(path, segment_bytes=200)
    assert wal2.next_seq == 20
    assert wal2.append(Op.delete(3)) == 20
    wal2.close()
    assert len(list(iter_ops(path))) == 21


def test_torn_tail_truncated_on_open(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    for i in range(4):
        wal.append(Op.insert(np.full(3, float(i))))
    wal.close()
    seg = list_segments(path)[-1][1]
    clean_size = os.path.getsize(seg)
    with open(seg, "ab") as f:
        f.write(b"\x13partial-record-garbage")
    # Readers stop cleanly in front of the torn tail...
    assert len(list(iter_ops(path))) == 4
    # ...and the writer physically truncates it on open.
    wal2 = WriteAheadLog(path)
    assert wal2.truncated_tail_bytes == len(b"\x13partial-record-garbage")
    assert os.path.getsize(seg) == clean_size
    assert wal2.next_seq == 4
    wal2.close()


def test_corruption_in_non_final_segment_raises(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path, segment_bytes=150)
    for i in range(12):
        wal.append(Op.insert(np.full(4, float(i))))
    wal.close()
    segments = list_segments(path)
    assert len(segments) >= 3
    # Flip a payload byte in the middle of the first segment.
    first = segments[0][1]
    with open(first, "r+b") as f:
        f.seek(30)
        byte = f.read(1)
        f.seek(30)
        f.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(WALError):
        list(iter_ops(path))
    with pytest.raises(WALError):
        WriteAheadLog(path)


def test_reader_polls_incrementally_across_rotations(tmp_path):
    from repro.serve.durability.wal import WALReader

    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path, segment_bytes=200)
    reader = WALReader(path)
    seen = []
    for i in range(25):
        wal.append(Op.insert(np.full(4, float(i))))
        if i % 7 == 3:
            seen.extend(reader.poll())
    wal.close()
    seen.extend(reader.poll())
    assert [seq for seq, _ in seen] == list(range(25))
    assert [float(op.payload[0]) for _, op in seen] == [float(i) for i in range(25)]
    assert reader.poll() == []  # idempotent when nothing new arrived
    assert reader.next_seq == 25


def test_pruned_log_gap_is_detected_not_replayed(tmp_path):
    """A reader below the pruned range must fail loudly, never skip ops."""
    from repro.serve.durability.wal import WALReader

    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path, segment_bytes=200)
    for i in range(20):
        wal.append(Op.insert(np.full(4, float(i))))
    stale = WALReader(path)  # bootstrapped before the prune
    stale.poll()
    more_stale = WALReader(path)
    retain = wal.segments()[2][0]
    assert wal.prune(retain) > 0
    # iter_ops from before the pruned range: error, not a silent gap.
    with pytest.raises(WALError, match="pruned"):
        list(iter_ops(path, start_seq=0))
    # ...from inside the surviving range: fine.
    assert [seq for seq, _ in iter_ops(path, start_seq=retain)]
    # A reader already past the prune point keeps tailing...
    wal.append(Op.delete(1))
    assert [seq for seq, _ in stale.poll()] == [20]
    # ...one still below it fails loudly.
    with pytest.raises(WALError, match="pruned"):
        more_stale.poll()
    wal.close()


def test_recover_on_pruned_log_without_snapshot_raises(tmp_path):
    wal_dir = str(tmp_path / "wal")
    ops = make_ops(n_updates=20)
    snaps = SnapshotManager(wal_dir, keep=1, every_ops=8, prune_wal=True)
    di, _ = run_through_wal(
        wal_dir, ops, snapshots=snaps, segment_bytes=400
    )
    di.checkpoint()  # prunes segments below the retained snapshot
    di.close()
    assert list_segments(wal_dir)[0][0] > 0  # the log really is pruned
    # With the snapshot readable, recovery works...
    assert recover(wal_dir).applied_seq == len(ops)
    # ...without it, the surviving suffix alone must refuse, not diverge.
    for _, path in list_snapshots(wal_dir):
        os.remove(os.path.join(path, "manifest.json"))
    with pytest.raises(RecoveryError, match="full-log replay impossible"):
        recover(wal_dir)


def test_snapshot_ahead_of_log_refused_on_reopen(tmp_path):
    """A snapshot tagged past the surviving log must not be appended to."""
    wal_dir = str(tmp_path / "wal")
    snaps = SnapshotManager(wal_dir, keep=2)
    di = DurableIndex(SPEC.build(), wal_dir, spec=SPEC, snapshots=snaps)
    rng = np.random.default_rng(0)
    di.fit(rng.normal(size=(10, DIM)))
    for _ in range(5):
        di.insert(rng.normal(size=DIM))
    di.checkpoint()
    di.close()
    # Simulate post-snapshot log loss (power cut before those records
    # ever fsynced, or manual tampering): chop two records off the tail.
    seg = list_segments(wal_dir)[-1][1]
    records = list(iter_ops(wal_dir))
    assert len(records) == 6
    keep = 4
    # Rewrite the segment with only the first `keep` records.
    from repro.serve.durability.wal import HEADER, MAGIC, encode_record

    with open(seg, "wb") as f:
        f.write(HEADER.pack(MAGIC, 0))
        for seq, op in records[:keep]:
            f.write(encode_record(op, seq))
    with pytest.raises(WALError, match="ahead of the log"):
        DurableIndex(
            SPEC.build(), wal_dir,
            snapshots=SnapshotManager(wal_dir, keep=2),
        )
    # recover() still prefers the snapshot (it is durable evidence of
    # the acknowledged ops the log lost).
    assert recover(wal_dir).applied_seq == 6


@pytest.mark.parametrize("policy", ["always", "interval", "off"])
def test_fsync_policies_all_recover(tmp_path, policy):
    wal_dir = str(tmp_path / f"wal-{policy}")
    ops = make_ops()
    di, _ = run_through_wal(wal_dir, ops, fsync=policy)
    di.close()
    result = recover(wal_dir)
    assert result.applied_seq == len(ops)
    assert_identical_answers(result.index, di.inner, queries_for())


# ----------------------------------------------------------------------
# Crash recovery: the headline property
# ----------------------------------------------------------------------

class _Workload:
    """The intact WAL of a mixed workload, built once per module."""

    def __init__(self):
        self.root = tempfile.mkdtemp(prefix="walprop-")
        self.ops = make_ops()
        self.wal_dir = os.path.join(self.root, "wal")
        di, self.ack_offsets = run_through_wal(self.wal_dir, self.ops)
        di.close()
        self.segment = list_segments(self.wal_dir)[-1][1]
        self.size = os.path.getsize(self.segment)
        self.queries = queries_for()


@pytest.fixture(scope="module")
def workload():
    w = _Workload()
    yield w
    shutil.rmtree(w.root, ignore_errors=True)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_crash_at_any_byte_offset_recovers_acknowledged_prefix(
    workload, data
):
    """Truncate the log at an arbitrary byte; recovery == prefix replay."""
    offset = data.draw(
        st.integers(min_value=0, max_value=workload.size), label="crash offset"
    )
    crash_dir = tempfile.mkdtemp(prefix="crash-")
    try:
        target = os.path.join(crash_dir, "wal")
        shutil.copytree(workload.wal_dir, target)
        seg = list_segments(target)[-1][1]
        with open(seg, "r+b") as f:
            f.truncate(offset)
        result = recover(target)
        # Acknowledged prefix: every op whose record ends at or before
        # the crash offset.
        acknowledged = sum(1 for end in workload.ack_offsets if end <= offset)
        assert result.applied_seq == acknowledged
        reference = apply_all(SPEC.build(), workload.ops[:acknowledged])
        if acknowledged == 0:
            assert not result.index.is_fitted
            return
        assert_identical_answers(result.index, reference, workload.queries)
        assert result.index.live_count == reference.live_count
    finally:
        shutil.rmtree(crash_dir, ignore_errors=True)


def test_recovery_with_snapshots_equals_full_replay(tmp_path):
    wal_dir = str(tmp_path / "wal")
    ops = make_ops()
    snaps = SnapshotManager(wal_dir, keep=3, every_ops=10)
    di, _ = run_through_wal(wal_dir, ops, snapshots=snaps)
    di.close()
    assert len(snaps.list()) >= 2  # rolled past `keep` and pruned
    result = recover(wal_dir)
    assert result.snapshot_seq == snaps.latest_seq
    assert result.applied_seq == len(ops)
    reference = apply_all(SPEC.build(), ops)
    assert_identical_answers(result.index, reference, queries_for())


def test_corrupt_snapshot_falls_back_to_older(tmp_path):
    wal_dir = str(tmp_path / "wal")
    ops = make_ops()
    snaps = SnapshotManager(wal_dir, keep=3, every_ops=10)
    di, _ = run_through_wal(wal_dir, ops, snapshots=snaps)
    di.close()
    all_snaps = list_snapshots(wal_dir)
    assert len(all_snaps) >= 2
    newest = all_snaps[-1][1]
    with open(os.path.join(newest, "manifest.json"), "w") as f:
        f.write("{this is not json")
    result = recover(wal_dir)
    assert result.snapshot_seq == all_snaps[-2][0]
    assert [path for path, _ in result.corrupt] == [newest]
    reference = apply_all(SPEC.build(), ops)
    assert result.applied_seq == len(ops)
    assert_identical_answers(result.index, reference, queries_for())


def test_all_snapshots_corrupt_falls_back_to_full_log_replay(tmp_path):
    wal_dir = str(tmp_path / "wal")
    ops = make_ops()
    snaps = SnapshotManager(wal_dir, keep=2, every_ops=10)
    di, _ = run_through_wal(wal_dir, ops, snapshots=snaps)
    di.close()
    for _, path in list_snapshots(wal_dir):
        os.remove(os.path.join(path, "manifest.json"))
    result = recover(wal_dir)  # spec comes from the durable.json sidecar
    assert result.snapshot_seq is None
    assert result.replayed == len(ops)
    assert len(result.corrupt) == len(list_snapshots(wal_dir))
    reference = apply_all(SPEC.build(), ops)
    assert_identical_answers(result.index, reference, queries_for())


def test_recover_without_snapshot_or_spec_raises(tmp_path):
    wal_dir = str(tmp_path / "wal")
    di = DurableIndex(SPEC.build(), wal_dir)  # no spec recorded
    di.fit(np.random.default_rng(0).normal(size=(10, DIM)))
    di.close()
    with pytest.raises(RecoveryError, match="no readable snapshot"):
        recover(wal_dir)
    # ...but an explicit spec unblocks the full-log replay.
    result = recover(wal_dir, spec=SPEC)
    assert result.applied_seq == 1


def test_recover_missing_dir_raises(tmp_path):
    with pytest.raises(RecoveryError, match="no such WAL directory"):
        recover(str(tmp_path / "nope"))


def _wal_with_recipe(tmp_path, config) -> str:
    """A snapshot-less WAL whose ``durable.json`` holds ``config``."""
    wal_dir = str(tmp_path / "wal")
    di, _ = run_through_wal(wal_dir, make_ops(n_updates=5))
    di.close()
    assert not list_snapshots(wal_dir)  # recovery must read the recipe
    with open(os.path.join(wal_dir, CONFIG_NAME), "w", encoding="utf-8") as f:
        json.dump(config, f)
    return wal_dir


@pytest.mark.parametrize(
    "config, message",
    [
        ({"spec": {"class": "NoSuchIndex", "kwargs": {}}}, "'NoSuchIndex'"),
        ({"spec": {"class": "LCCSLSH"}}, "'LCCSLSH'"),
        ({"spec": {"class": "LCCSLSH", "kwargs": [1, 2]}}, "'LCCSLSH'"),
        ({"spec": "LCCSLSH"}, "class None"),
        ({"spec": [SPEC.to_manifest()]}, "class None"),
        ([{"spec": SPEC.to_manifest()}], "not an object"),
    ],
    ids=[
        "unregistered-class", "no-kwargs", "kwargs-not-object",
        "spec-is-a-string", "spec-is-a-list", "sidecar-is-a-list",
    ],
)
def test_recover_refuses_a_bad_recipe_with_recovery_error(
    tmp_path, config, message
):
    wal_dir = _wal_with_recipe(tmp_path, config)
    with pytest.raises(RecoveryError, match=rf"durable\.json: .*{message}"):
        recover(wal_dir)


@pytest.mark.parametrize("name", ["numba", "numpy"])
def test_recover_replays_a_recipe_naming_a_retired_backend(tmp_path, name):
    """Earlier builds recorded their kernel backend in the recipe; a
    name this build no longer has still replays the log, on the engine."""
    recipe = SPEC.to_manifest()
    recipe["kwargs"]["backend"] = name
    wal_dir = _wal_with_recipe(tmp_path, {"spec": recipe})
    result = recover(wal_dir)
    ops = make_ops(n_updates=5)
    assert result.applied_seq == len(ops)
    assert_identical_answers(result.index, apply_all(SPEC.build(), ops), queries_for())


@pytest.mark.parametrize("value", ["float32", "float64"])
def test_recover_replays_a_recipe_naming_the_removed_verify_dtype(tmp_path, value):
    """Earlier builds could record ``verify_dtype`` in the recipe; the
    knob is gone (the store type is chosen at fit) and the field is
    ignored."""
    recipe = SPEC.to_manifest()
    recipe["kwargs"]["verify_dtype"] = value
    wal_dir = _wal_with_recipe(tmp_path, {"spec": recipe})
    result = recover(wal_dir)
    ops = make_ops(n_updates=5)
    assert result.applied_seq == len(ops)
    assert_identical_answers(result.index, apply_all(SPEC.build(), ops), queries_for())
    static = IndexSpec.from_manifest(
        {"class": "LCCSLSH", "kwargs": {"dim": DIM, "verify_dtype": value}}
    )
    assert "verify_dtype" not in static.kwargs and static.build().dim == DIM


def test_recover_refuses_a_sharded_recipe(tmp_path):
    """A recipe for the removed sharded wrapper names the class."""
    recipe = {
        "class": "ShardedIndex",
        "kwargs": {"spec": SPEC.to_manifest(), "num_shards": 2},
    }
    wal_dir = _wal_with_recipe(tmp_path, {"spec": recipe})
    with pytest.raises(RecoveryError, match=r"durable\.json.*'ShardedIndex'"):
        recover(wal_dir)
    # The log itself is intact: a recipe given explicitly replays it.
    result = recover(wal_dir, spec=SPEC)
    assert result.applied_seq == len(make_ops(n_updates=5))


def test_recover_refuses_a_multiprobe_subclass_recipe(tmp_path):
    """A recipe for the multi-probe subclass (now ``LCCSLSH``'s
    ``n_probes`` query argument) names the class."""
    removed = "MP" + LCCSLSH.__name__
    recipe = {"class": removed, "kwargs": {"dim": 8, "m": 16, "n_probes": 17}}
    wal_dir = _wal_with_recipe(tmp_path, {"spec": recipe})
    with pytest.raises(RecoveryError, match=rf"durable\.json.*'{removed}'"):
        recover(wal_dir)


# ----------------------------------------------------------------------
# Snapshot manager mechanics
# ----------------------------------------------------------------------

def test_snapshot_retention_and_wal_prune(tmp_path):
    wal_dir = str(tmp_path / "wal")
    snaps = SnapshotManager(wal_dir, keep=2, every_ops=8, prune_wal=True)
    di = DurableIndex(
        SPEC.build(), wal_dir, spec=SPEC, snapshots=snaps, segment_bytes=400
    )
    rng = np.random.default_rng(3)
    di.fit(rng.normal(size=(12, DIM)))
    for _ in range(40):
        di.insert(rng.normal(size=DIM))
        # checkpoint() prunes segments below the oldest retained snapshot
        if di.applied_seq % 16 == 0:
            di.checkpoint()
    assert len(snaps.list()) <= 2
    oldest = snaps.oldest_retained_seq
    assert list_segments(wal_dir)[0][0] <= oldest  # replay still possible
    di.close()
    result = recover(wal_dir)
    assert result.applied_seq == 41
    assert_identical_answers(result.index, di.inner, queries_for())


def test_wrapping_fitted_index_requires_snapshots(tmp_path):
    rng = np.random.default_rng(0)
    fitted = DynamicLCCSLSH(dim=DIM, m=8, w=4.0, seed=1).fit(
        rng.normal(size=(15, DIM))
    )
    with pytest.raises(ValueError, match="already-fitted"):
        DurableIndex(fitted, str(tmp_path / "wal"))
    # With a manager, a baseline checkpoint captures the current state.
    wal_dir = str(tmp_path / "wal2")
    snaps = SnapshotManager(wal_dir, keep=2)
    di = DurableIndex(fitted, wal_dir, snapshots=snaps)
    assert snaps.latest_seq == 0
    h = di.insert(rng.normal(size=DIM))
    di.close()
    result = recover(wal_dir)
    assert result.applied_seq == 1
    assert result.index.n == 16
    assert_identical_answers(result.index, fitted, queries_for())
    assert h == 15


def test_durable_index_save_refuses(tmp_path):
    di = DurableIndex(SPEC.build(), str(tmp_path / "wal"))
    with pytest.raises(TypeError, match="checkpoint"):
        di.save(str(tmp_path / "bundle"))


def test_failed_delete_is_logged_and_replays_as_noop(tmp_path):
    wal_dir = str(tmp_path / "wal")
    di = DurableIndex(SPEC.build(), wal_dir, spec=SPEC)
    rng = np.random.default_rng(2)
    di.fit(rng.normal(size=(10, DIM)))
    di.delete(4)
    with pytest.raises(KeyError):
        di.delete(4)  # second delete fails live...
    assert di.applied_seq == 3  # ...but was logged
    di.close()
    result = recover(wal_dir)
    assert result.applied_seq == 3
    assert result.index.live_count == di.inner.live_count == 9


def test_apply_op_rejects_unknown_kind():
    index = SPEC.build()
    with pytest.raises(ValueError, match="unknown op kind"):
        index.apply_op(("truncate", None))
    with pytest.raises(WALError, match="unknown op kind"):
        apply_op(object(), Op("truncate", None))


# ----------------------------------------------------------------------
# CLI: recover subcommand
# ----------------------------------------------------------------------

def test_cli_recover_reports_and_saves(tmp_path, capsys):
    from repro.cli import main
    from repro.serve import load_index

    wal_dir = str(tmp_path / "wal")
    ops = make_ops(n_updates=10)
    di, _ = run_through_wal(wal_dir, ops)
    di.close()
    out_bundle = str(tmp_path / "recovered.bundle")
    assert main(["recover", wal_dir, "--out", out_bundle]) == 0
    captured = capsys.readouterr()
    assert "full-log replay" in captured.out
    assert f"applied_seq: {len(ops)}" in captured.out
    loaded = load_index(out_bundle)
    assert_identical_answers(loaded, di.inner, queries_for())


def test_cli_recover_failure_exit_code(tmp_path, capsys):
    from repro.cli import main

    assert main(["recover", str(tmp_path / "missing")]) == 2
    assert "recovery failed" in capsys.readouterr().err
