"""The WAL follower: equivalence, read-your-writes, the worker role.

Acceptance contract: after the primary acknowledges N writes, a
caught-up replica (``min_version=N``) returns **byte-identical** results
to the primary for the same queries — a replica is not an approximately
fresh copy, it is the same deterministic state reached through
snapshot restore + log replay.

The second half runs the prefork *worker role* without forking:
``ThreadedServer(ReplicaBackend(service, Replica(wal_dir)))`` beside a
``DurableIndex`` writing the same WAL — what each ``serve --workers N
--wal-dir`` process is, minus the primary's write socket.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np
import pytest

from repro import IndexSpec
from repro.serve import (
    ANNService,
    DurableIndex,
    Replica,
    ServeClient,
    ServerError,
    SnapshotManager,
    StaleReadError,
    ThreadedServer,
)
from repro.serve.server import ReplicaBackend

DIM = 8
SPEC = IndexSpec(
    "DynamicLCCSLSH", dim=DIM, m=8, w=4.0, seed=13, rebuild_threshold=0.3
)


def make_primary(tmp_path, n_writes=25, snapshots=False):
    wal_dir = str(tmp_path / "wal")
    snaps = (
        SnapshotManager(wal_dir, keep=2, every_ops=10) if snapshots else None
    )
    primary = DurableIndex(SPEC.build(), wal_dir, spec=SPEC, snapshots=snaps)
    rng = np.random.default_rng(1)
    primary.fit(rng.normal(size=(30, DIM)))
    for i in range(n_writes):
        if i % 6 == 5:
            try:
                primary.delete((11 * i) % primary.n)
            except KeyError:
                pass
        else:
            primary.insert(rng.normal(size=DIM))
    return primary


def queries_for(n=8, seed=21):
    return np.random.default_rng(seed).normal(size=(n, DIM))


def assert_matches_primary(replica, primary, queries, k=5):
    seq = primary.applied_seq
    cap = primary.n
    for q in queries:
        ids_r, dists_r = replica.query(
            q, k=k, min_version=seq, num_candidates=cap
        )
        ids_p, dists_p = primary.query(q, k=k, num_candidates=cap)
        assert ids_r.tobytes() == ids_p.tobytes()
        assert dists_r.tobytes() == dists_p.tobytes()
    ids_r, dists_r = replica.batch_query(
        queries, k=k, min_version=seq, num_candidates=cap
    )
    ids_p, dists_p = primary.batch_query(queries, k=k, num_candidates=cap)
    assert ids_r.tobytes() == ids_p.tobytes()
    assert dists_r.tobytes() == dists_p.tobytes()


@pytest.mark.parametrize("snapshots", [False, True])
def test_caught_up_replica_is_byte_identical(tmp_path, snapshots):
    primary = make_primary(tmp_path, snapshots=snapshots)
    assert_matches_primary(Replica(primary.wal.path), primary, queries_for())
    primary.close()


def test_replica_catches_up_after_later_writes(tmp_path):
    primary = make_primary(tmp_path)
    rng = np.random.default_rng(9)
    replica = Replica(primary.wal.path)
    boot_seq = replica.applied_seq
    # Writes that land *after* the replica bootstrapped.
    handle = primary.insert(rng.normal(size=DIM))
    primary.delete(handle)
    assert_matches_primary(replica, primary, queries_for())
    stats = replica.stats()
    assert stats["applied_seq"] == float(primary.applied_seq) == boot_seq + 2.0
    assert stats["catch_ups"] == 1.0  # both records in one exclusive batch
    assert replica.catch_up() == primary.applied_seq  # nothing new: no-op
    assert replica.stats()["catch_ups"] == 1.0
    primary.close()


def test_stale_read_without_min_version_serves_old_state(tmp_path):
    primary = make_primary(tmp_path, n_writes=0)
    rng = np.random.default_rng(4)
    replica = Replica(primary.wal.path)
    boot_seq = replica.applied_seq
    vec = rng.normal(size=DIM)
    handle = primary.insert(vec)
    # Without min_version the replica answers from its stale state...
    ids, _ = replica.query(vec, k=1, num_candidates=primary.n)
    assert replica.applied_seq == boot_seq
    assert handle not in ids.tolist()
    # ...with min_version it catches up and reads its own write.
    ids, dists = replica.query(
        vec, k=1, min_version=primary.applied_seq, num_candidates=primary.n
    )
    assert ids.tolist() == [handle]
    assert dists[0] == 0.0
    primary.close()


def test_min_version_beyond_log_raises(tmp_path):
    primary = make_primary(tmp_path, n_writes=3)
    replica = Replica(primary.wal.path)
    with pytest.raises(StaleReadError, match="min_version"):
        replica.query(
            queries_for(1)[0], k=1, min_version=primary.applied_seq + 10
        )
    primary.close()


# ----------------------------------------------------------------------
# The worker role, in process
# ----------------------------------------------------------------------

@contextlib.contextmanager
def worker(tmp_path, tail_interval_s, stale_timeout_s=2.0):
    """``(primary, replica, service, client)``: a served follower of
    ``primary``'s WAL.  A long ``tail_interval_s`` keeps the background
    task out of the way, so only the path under test moves the replica."""
    primary = make_primary(tmp_path, n_writes=0)
    replica = Replica(primary.wal.path)
    service = ANNService(replica.index, cache_size=64)
    backend = ReplicaBackend(
        service,
        replica,
        default_kwargs={"num_candidates": 1000},
        tail_interval_s=tail_interval_s,
        stale_timeout_s=stale_timeout_s,
    )
    try:
        with ThreadedServer(backend) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                yield primary, replica, service, client
    finally:
        service.close()
        primary.close()


@pytest.mark.timeout(60)
def test_background_tailing_converges(tmp_path):
    """A plain read (no ``min_version``) sees a write a few ticks later."""
    rng = np.random.default_rng(8)
    with worker(tmp_path, tail_interval_s=0.01) as (primary, replica, _, client):
        for _ in range(9):
            primary.insert(rng.normal(size=DIM))
        vec = rng.normal(size=DIM)
        handle = primary.insert(vec)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            ids, dists = client.query(vec, k=1)
            if ids.tolist() == [handle]:
                break
            time.sleep(0.01)
        assert ids.tolist() == [handle] and dists[0] == 0.0
        assert replica.applied_seq == primary.applied_seq


@pytest.mark.timeout(60)
def test_worker_min_version_read_waits_for_the_write(tmp_path):
    vec = np.random.default_rng(5).normal(size=DIM)
    with worker(tmp_path, tail_interval_s=60.0) as (primary, _, _, client):
        seq = primary.applied_seq + 1  # the seq the coming insert produces
        late = threading.Timer(0.15, primary.insert, args=(vec,))
        late.start()
        try:
            ids, dists = client.query(vec, k=1, min_version=seq)
        finally:
            late.join()
        assert ids.tolist() == [primary.n - 1] and dists[0] == 0.0


@pytest.mark.timeout(60)
def test_worker_min_version_past_the_log_answers_stale_read_error(tmp_path):
    with worker(tmp_path, tail_interval_s=60.0, stale_timeout_s=0.2) as (
        primary, _, _, client,
    ):
        t0 = time.monotonic()
        with pytest.raises(ServerError, match="StaleReadError.*min_version"):
            client.query(
                queries_for(1)[0], k=1, min_version=primary.applied_seq + 10
            )
        assert time.monotonic() - t0 >= 0.2  # it did wait for the log
        assert client.ping()  # an error line, not a dropped connection


@pytest.mark.timeout(60)
def test_worker_cache_does_not_outlive_a_catch_up(tmp_path):
    vec = np.random.default_rng(6).normal(size=DIM)
    with worker(tmp_path, tail_interval_s=60.0) as (
        primary, replica, service, client,
    ):
        before = client.query(vec, k=1)[0].tolist()
        assert client.query(vec, k=1)[0].tolist() == before
        assert service.stats()["cache_hits"] == 1
        handle = primary.insert(vec)
        assert handle not in before
        replica.catch_up()  # what the tail task does on its next tick
        ids, dists = client.query(vec, k=1)
        assert ids.tolist() == [handle] and dists[0] == 0.0


@pytest.mark.timeout(60)
def test_worker_stats_carry_the_follower(tmp_path):
    rng = np.random.default_rng(7)
    with worker(tmp_path, tail_interval_s=60.0) as (primary, _, _, client):
        for _ in range(3):
            primary.insert(rng.normal(size=DIM))
        client.query(queries_for(1)[0], k=1, min_version=primary.applied_seq)
        stats = client.stats()
        assert stats["role"] == "replica"
        assert stats["applied_seq"] == primary.applied_seq
        assert stats["replica_applied_seq"] == primary.applied_seq
        assert stats["replica_catch_ups"] == 1
        shape = primary.inner.tier_stats()
        assert stats["replica_segments"] == shape["segments"]
        assert stats["replica_memtable"] == shape["memtable"]


def test_replica_backend_refuses_a_service_on_another_index(tmp_path):
    primary = make_primary(tmp_path, n_writes=0)
    replica = Replica(primary.wal.path)
    with ANNService(SPEC.build()) as service:
        with pytest.raises(ValueError, match="replica.index"):
            ReplicaBackend(service, replica)
    primary.close()
