"""Durability & replication: write-ahead log, snapshots, read replicas.

The three cooperating pieces (see each module's docstring for the
on-disk formats and guarantees):

* :mod:`repro.serve.durability.wal` — an append-only, checksummed,
  length-prefixed, segmented binary log of ``fit``/``insert``/``delete``
  records, plus :class:`~repro.serve.durability.wal.DurableIndex`, the
  log-then-apply wrapper with an ``always``/``interval``/``off`` fsync
  policy and torn-tail truncation on open.
* :mod:`repro.serve.durability.snapshots` —
  :class:`~repro.serve.durability.snapshots.SnapshotManager` checkpoints
  the wrapped index as a bundle tagged with its WAL position (every N
  ops / M bytes, keeping the last K), and
  :func:`~repro.serve.durability.snapshots.recover` rebuilds the
  acknowledged state: newest readable snapshot + WAL suffix replay,
  falling back to older snapshots or a full-log replay when snapshots
  are corrupt.
* :mod:`repro.serve.durability.replica` —
  :class:`~repro.serve.durability.replica.Replica`, the one log
  follower: a durable primary applies writes while a replica tails the
  shared WAL (file-based log shipping) and serves reads from its own
  copy, tracking its applied seq, with a ``min_version``
  read-your-writes option.  ``serve --workers N --wal-dir`` runs one per
  worker process.
"""

from repro.serve.durability.replica import Replica, StaleReadError
from repro.serve.durability.snapshots import (
    RecoveryError,
    RecoveryResult,
    SnapshotManager,
    list_snapshots,
    recover,
)
from repro.serve.durability.wal import (
    DurableIndex,
    Op,
    WALError,
    WALReader,
    WriteAheadLog,
    iter_ops,
    replay,
)

__all__ = [
    "DurableIndex",
    "Op",
    "Replica",
    "RecoveryError",
    "RecoveryResult",
    "SnapshotManager",
    "StaleReadError",
    "WALError",
    "WALReader",
    "WriteAheadLog",
    "iter_ops",
    "list_snapshots",
    "recover",
    "replay",
]
