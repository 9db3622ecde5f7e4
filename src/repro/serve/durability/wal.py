"""Write-ahead logging: checksummed append-only op log + ``DurableIndex``.

Every mutation (``fit``/``insert``/``delete``) is encoded as a
self-describing binary record and appended to an on-disk **write-ahead
log** *before* it is applied in memory, so the acknowledged state of an
index is always reconstructible by replaying the log (optionally from a
snapshot, see :mod:`repro.serve.durability.snapshots`).

On-disk format
--------------

A WAL is a directory of *segment* files ``wal-<first_seq>.log``.  Each
segment starts with a 16-byte header (``LCWAL001`` magic + the u64
sequence number of its first record) followed by length-prefixed,
CRC-checksummed records::

    <u32 payload_len> <u32 crc32(payload)> <payload>
    payload = <u8 opcode> <u64 seq> <op body>

Op bodies are self-describing (dims and counts are part of the record),
so a log can be replayed without the index that wrote it:

* ``fit``    — ``<u32 dim> <u64 n>`` + row-major float64 data
* ``insert`` — ``<u32 dim>`` + float64 vector
* ``delete`` — ``<i64 handle>``

All integers are little-endian.  Records never span segments; a segment
rotates once it exceeds ``segment_bytes``.

Torn tails and corruption
-------------------------

A crash mid-append leaves a *torn tail*: a partial or checksum-invalid
record at the end of the **last** segment.  :class:`WriteAheadLog`
truncates it physically on open; :func:`iter_ops` stops cleanly in front
of it (readers must tolerate a tail that is still being written — that
is exactly how replicas tail a live log).  An invalid record anywhere
*other* than the last segment's tail is real corruption and raises
:class:`WALError`.

fsync policy
------------

``"always"`` fsyncs after every append (every acknowledged op survives
power loss), ``"interval"`` fsyncs at most every ``fsync_interval_s``
seconds (bounded loss window, much higher throughput), ``"off"`` never
fsyncs (the OS decides).  Appends are *flushed* to the OS on every call
regardless, so same-host readers (replicas) always see acknowledged
records.

``DurableIndex``
----------------

:class:`DurableIndex` is the logging wrapper: an
:class:`~repro.base.ANNIndex` facade that appends the record, applies
the op on the wrapped index, optionally notifies a snapshot manager,
and only then returns to the caller.  Queries pass straight through.
Wrap it in :class:`~repro.serve.concurrency.ConcurrentIndex` (or serve
it through :class:`~repro.serve.ANNService`) for concurrent traffic —
the exclusive write lock then also serializes log appends.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.base import ANNIndex
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as obs_span

_FSYNC_HIST = None


def _fsync_hist():
    """Lazy registry handle: fsync duration histogram (process-wide)."""
    global _FSYNC_HIST
    if _FSYNC_HIST is None:
        _FSYNC_HIST = get_registry().histogram(
            "repro_wal_fsync_seconds", "WAL fsync duration (seconds)"
        )
    return _FSYNC_HIST

__all__ = [
    "Op",
    "WALError",
    "WALReader",
    "WriteAheadLog",
    "DurableIndex",
    "iter_ops",
    "list_segments",
    "replay",
    "apply_op",
]

#: segment header: 8-byte magic + u64 first record sequence number
MAGIC = b"LCWAL001"
HEADER = struct.Struct("<8sQ")
#: record header: u32 payload length + u32 crc32(payload)
RECORD = struct.Struct("<II")
#: payload header: u8 opcode + u64 sequence number
PAYLOAD = struct.Struct("<BQ")

OP_FIT = 1
OP_INSERT = 2
OP_DELETE = 3
#: structural ops from the LSM-tiered dynamic index — a memtable seal
#: and a segment merge-compaction.  Logged *before* the epoch swap so
#: recovery and log-tailing replicas replay the exact same tier shape.
OP_SEAL = 4
#: read-only: the pre-range compact record (``<IQ`` j, count), which
#: merged the first ``j`` segments — decoded as the range ``0..j``
OP_COMPACT_PREFIX = 5
OP_COMPACT = 6
_OP_CODES = {
    "fit": OP_FIT,
    "insert": OP_INSERT,
    "delete": OP_DELETE,
    "seal": OP_SEAL,
    "compact": OP_COMPACT,
}

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"
#: sidecar recording the index recipe (enables full-log recovery)
CONFIG_NAME = "durable.json"

FSYNC_POLICIES = ("always", "interval", "off")


class WALError(RuntimeError):
    """The log is corrupt beyond its (tolerated) torn tail."""


class Op(NamedTuple):
    """One replayable mutation record.

    ``kind`` is ``"fit"`` / ``"insert"`` / ``"delete"`` — payload: the
    ``(n, dim)`` data matrix, the ``(dim,)`` vector, or the integer
    handle — or a structural op from the LSM index: ``"seal"`` (payload:
    the store size at the seal point, advisory) / ``"compact"``
    (payload: ``(start, stop, dropped)``, the range of the segment stack
    merged and the sorted tombstoned handles the merge excluded).
    """

    kind: str
    payload: object

    @classmethod
    def fit(cls, data: np.ndarray) -> "Op":
        return cls("fit", np.ascontiguousarray(data, dtype=np.float64))

    @classmethod
    def insert(cls, vector: np.ndarray) -> "Op":
        return cls("insert", np.ascontiguousarray(vector, dtype=np.float64))

    @classmethod
    def delete(cls, handle: int) -> "Op":
        return cls("delete", int(handle))

    @classmethod
    def seal(cls, boundary: int) -> "Op":
        return cls("seal", int(boundary))

    @classmethod
    def compact(cls, start: int, stop: int, dropped) -> "Op":
        return cls(
            "compact", (int(start), int(stop), [int(h) for h in dropped])
        )


# ----------------------------------------------------------------------
# Record encode / decode
# ----------------------------------------------------------------------

def encode_record(op: Op, seq: int) -> bytes:
    """Serialize ``op`` (with sequence number ``seq``) into one record."""
    code = _OP_CODES.get(op.kind)
    if code is None:
        raise ValueError(f"unknown op kind {op.kind!r}")
    if code == OP_FIT:
        data = np.ascontiguousarray(op.payload, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("fit payload must be a 2-d array")
        body = struct.pack("<IQ", data.shape[1], data.shape[0]) + data.tobytes()
    elif code == OP_INSERT:
        vec = np.ascontiguousarray(op.payload, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError("insert payload must be a 1-d vector")
        body = struct.pack("<I", vec.shape[0]) + vec.tobytes()
    elif code == OP_DELETE:
        body = struct.pack("<q", int(op.payload))
    elif code == OP_SEAL:
        body = struct.pack("<Q", int(op.payload))
    else:  # OP_COMPACT
        start, stop, dropped = op.payload
        handles = np.ascontiguousarray(dropped, dtype=np.int64)
        if handles.ndim != 1:
            raise ValueError("compact dropped-handles must be a flat list")
        body = (
            struct.pack("<IIQ", int(start), int(stop), len(handles))
            + handles.tobytes()
        )
    payload = PAYLOAD.pack(code, seq) + body
    return RECORD.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> Tuple[int, Op]:
    """Parse a checksum-verified payload into ``(seq, Op)``."""
    if len(payload) < PAYLOAD.size:
        raise WALError("record payload shorter than its header")
    code, seq = PAYLOAD.unpack_from(payload)
    body = payload[PAYLOAD.size:]
    if code == OP_FIT:
        if len(body) < 12:
            raise WALError("truncated fit record")
        dim, n = struct.unpack_from("<IQ", body)
        raw = body[12:]
        if len(raw) != n * dim * 8:
            raise WALError("fit record length contradicts its dimensions")
        data = np.frombuffer(raw, dtype=np.float64).reshape(n, dim).copy()
        return seq, Op("fit", data)
    if code == OP_INSERT:
        if len(body) < 4:
            raise WALError("truncated insert record")
        (dim,) = struct.unpack_from("<I", body)
        raw = body[4:]
        if len(raw) != dim * 8:
            raise WALError("insert record length contradicts its dimension")
        return seq, Op("insert", np.frombuffer(raw, dtype=np.float64).copy())
    if code == OP_DELETE:
        if len(body) != 8:
            raise WALError("malformed delete record")
        (handle,) = struct.unpack("<q", body)
        return seq, Op("delete", int(handle))
    if code == OP_SEAL:
        if len(body) != 8:
            raise WALError("malformed seal record")
        (boundary,) = struct.unpack("<Q", body)
        return seq, Op("seal", int(boundary))
    if code in (OP_COMPACT, OP_COMPACT_PREFIX):
        head = struct.Struct("<IIQ" if code == OP_COMPACT else "<IQ")
        if len(body) < head.size:
            raise WALError("truncated compact record")
        *span, count = head.unpack_from(body)
        raw = body[head.size:]
        if len(raw) != count * 8:
            raise WALError("compact record length contradicts its count")
        start, stop = span if code == OP_COMPACT else (0, span[0])
        return seq, Op.compact(start, stop, np.frombuffer(raw, dtype=np.int64))
    raise WALError(f"unknown opcode {code}")


def _segment_path(root: str, first_seq: int) -> str:
    return os.path.join(
        root, f"{SEGMENT_PREFIX}{first_seq:012d}{SEGMENT_SUFFIX}"
    )


def _list_segments(root: str) -> List[Tuple[int, str]]:
    """Sorted ``(first_seq, path)`` for every segment file under ``root``."""
    out = []
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    for name in names:
        if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX):
            digits = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
            try:
                out.append((int(digits), os.path.join(root, name)))
            except ValueError:
                raise WALError(f"unparseable segment name {name!r}") from None
    return sorted(out)


def list_segments(root: str) -> List[Tuple[int, str]]:
    """Public alias of the segment listing (used by the CLI and tests)."""
    return _list_segments(root)


def _scan_segment(
    path: str,
    expected_first: int,
    resume: Optional[Tuple[int, int]] = None,
) -> Tuple[List[Tuple[int, Op]], int, bool]:
    """Parse one segment: ``(records, valid_byte_length, tail_torn)``.

    ``valid_byte_length`` is the offset of the first invalid byte (the
    whole file when clean); ``tail_torn`` is True when parsing stopped
    early.  Corruption is *reported*, not raised — the caller decides
    whether a torn tail is tolerable (last segment) or fatal.

    ``resume`` is an optional ``(offset, seq)`` position from a previous
    scan of the same segment: parsing starts there and only the bytes
    past it are read from disk — the incremental path
    :class:`WALReader` uses so tailing a live log costs O(new bytes),
    not O(segment bytes), per poll.
    """
    with open(path, "rb") as f:
        header = f.read(HEADER.size)
        if len(header) < HEADER.size:
            return [], 0, True
        magic, first_seq = HEADER.unpack(header)
        if magic != MAGIC or first_seq != expected_first:
            return [], 0, True
        if resume is None:
            offset, seq = HEADER.size, first_seq
        else:
            offset, seq = resume
            f.seek(offset)
        blob = f.read()
    records: List[Tuple[int, Op]] = []
    rel = 0
    while rel < len(blob):
        if rel + RECORD.size > len(blob):
            return records, offset + rel, True
        length, crc = RECORD.unpack_from(blob, rel)
        start = rel + RECORD.size
        end = start + length
        if end > len(blob):
            return records, offset + rel, True
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            return records, offset + rel, True
        try:
            rec_seq, op = decode_payload(payload)
        except WALError:
            return records, offset + rel, True
        if rec_seq != seq:
            return records, offset + rel, True
        records.append((seq, op))
        seq += 1
        rel = end
    return records, offset + rel, False


def iter_ops(path: str, start_seq: int = 0) -> Iterator[Tuple[int, Op]]:
    """Yield ``(seq, Op)`` for every record with ``seq >= start_seq``.

    Tolerates a torn tail on the *last* segment (stops in front of it —
    a live writer may still be appending there); raises
    :class:`WALError` for invalid records anywhere else.  Segments whose
    whole range lies below ``start_seq`` are skipped without parsing.

    Raises :class:`WALError` when the log no longer reaches back to
    ``start_seq`` (segments pruned past it): silently replaying a
    non-contiguous suffix would diverge the caller's state.
    """
    segments = _list_segments(path)
    if start_seq > 0 and not segments:
        raise WALError(
            f"{path}: log is empty but records from seq {start_seq} were "
            "requested (segments pruned or deleted)"
        )
    if segments and start_seq < segments[0][0]:
        raise WALError(
            f"{path}: log starts at seq {segments[0][0]}; records from "
            f"seq {start_seq} have been pruned — replaying the surviving "
            "suffix alone would silently diverge"
        )
    for i, (first_seq, seg_path) in enumerate(segments):
        is_last = i == len(segments) - 1
        if not is_last and segments[i + 1][0] <= start_seq:
            continue  # every record in this segment is below start_seq
        records, _, torn = _scan_segment(seg_path, first_seq)
        if torn and not is_last:
            raise WALError(
                f"{seg_path}: invalid record in a non-final segment "
                "(corruption beyond the torn-tail rule)"
            )
        if not is_last and records and records[-1][0] + 1 != segments[i + 1][0]:
            raise WALError(
                f"{seg_path}: segment ends at seq {records[-1][0]} but the "
                f"next segment starts at {segments[i + 1][0]}"
            )
        for seq, op in records:
            if seq >= start_seq:
                yield seq, op


class WALReader:
    """Stateful incremental log reader for tailing a live WAL.

    Remembers its ``(segment, byte offset)`` position between polls, so
    a poll costs O(bytes appended since the last poll) — not O(segment
    bytes) — even while a huge active segment keeps growing.  This is
    what replicas use to ship the log (:mod:`repro.serve.durability.replica`).

    ``poll`` returns every newly completed record (stopping cleanly in
    front of a torn/in-flight tail on the last segment) and raises
    :class:`WALError` on corruption elsewhere or when the log no longer
    reaches back to the reader's position (segments pruned past it).
    """

    def __init__(self, path: str, start_seq: int = 0):
        self.path = path
        #: seq of the next record this reader will return
        self.next_seq = int(start_seq)
        #: resume position inside the current segment: (first_seq, offset)
        self._pos: Optional[Tuple[int, int]] = None

    def poll(self) -> List[Tuple[int, Op]]:
        """Every ``(seq, Op)`` appended since the last poll, in order."""
        segments = _list_segments(self.path)
        if not segments:
            if self.next_seq > 0:
                raise WALError(
                    f"{self.path}: log vanished under a reader at seq "
                    f"{self.next_seq}"
                )
            return []
        if self.next_seq < segments[0][0]:
            raise WALError(
                f"{self.path}: log starts at seq {segments[0][0]}; a "
                f"reader at seq {self.next_seq} can no longer catch up "
                "(segments pruned past it)"
            )
        # First segment that can contain next_seq: the last one whose
        # first_seq <= next_seq.
        start = 0
        for i, (first_seq, _) in enumerate(segments):
            if first_seq <= self.next_seq:
                start = i
        out: List[Tuple[int, Op]] = []
        for i in range(start, len(segments)):
            first_seq, seg_path = segments[i]
            is_last = i == len(segments) - 1
            if first_seq > self.next_seq:
                raise WALError(
                    f"{seg_path}: segment starts at seq {first_seq} but "
                    f"the reader expected {self.next_seq} (gap in the log)"
                )
            resume = None
            if self._pos is not None and self._pos[0] == first_seq:
                resume = (self._pos[1], self.next_seq)
            records, valid_len, torn = _scan_segment(
                seg_path, first_seq, resume=resume
            )
            if torn and not is_last:
                raise WALError(
                    f"{seg_path}: invalid record in a non-final segment"
                )
            for seq, op in records:
                if seq >= self.next_seq:
                    out.append((seq, op))
                    self.next_seq = seq + 1
            if is_last:
                self._pos = (first_seq, valid_len)
            else:
                self._pos = None  # next iteration starts a fresh segment
        return out


class WriteAheadLog:
    """Append-only, checksummed, segmented op log in a directory.

    Args:
        path: log directory (created if needed).  Existing segments are
            validated on open and a torn tail is physically truncated.
        fsync: ``"always"`` / ``"interval"`` / ``"off"`` — see the
            module docstring.
        fsync_interval_s: maximum seconds between fsyncs under the
            ``"interval"`` policy.
        segment_bytes: rotate to a new segment file once the active one
            exceeds this size (records never split across segments).

    ``next_seq`` is the sequence number the next append will get, i.e.
    the number of (valid) records currently in the log.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "always",
        fsync_interval_s: float = 0.05,
        segment_bytes: int = 64 << 20,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}")
        if fsync_interval_s <= 0:
            raise ValueError("fsync_interval_s must be positive")
        if segment_bytes <= HEADER.size:
            raise ValueError("segment_bytes too small to hold a header")
        self.path = path
        self.fsync_policy = fsync
        self.fsync_interval_s = float(fsync_interval_s)
        self.segment_bytes = int(segment_bytes)
        self.appends = 0
        self.bytes_written = 0
        self.syncs = 0
        self.rotations = 0
        self.truncated_tail_bytes = 0
        self._last_sync = time.monotonic()
        self._file = None
        os.makedirs(path, exist_ok=True)
        self._open_existing()

    # ------------------------------------------------------------------
    # Open / recovery of the tail
    # ------------------------------------------------------------------

    def _open_existing(self) -> None:
        segments = _list_segments(self.path)
        if not segments:
            self.next_seq = 0
            self._start_segment(0)
            return
        count = 0
        for i, (first_seq, seg_path) in enumerate(segments):
            if first_seq != count:
                raise WALError(
                    f"{seg_path}: segment starts at seq {first_seq}, "
                    f"expected {count} (missing or misnamed segment)"
                )
            records, valid_len, torn = _scan_segment(seg_path, first_seq)
            if torn:
                if i != len(segments) - 1:
                    raise WALError(
                        f"{seg_path}: invalid record in a non-final segment"
                    )
                # Torn tail on the last segment: truncate it away so the
                # file ends on a record boundary again.
                size = os.path.getsize(seg_path)
                self.truncated_tail_bytes = size - valid_len
                if valid_len < HEADER.size:
                    # Not even a whole header survived; rewrite it.
                    with open(seg_path, "wb") as f:
                        f.write(HEADER.pack(MAGIC, first_seq))
                else:
                    with open(seg_path, "r+b") as f:
                        f.truncate(valid_len)
            count += len(records)
        self.next_seq = count
        last_path = segments[-1][1]
        self._segment_first = segments[-1][0]
        self._segment_path = last_path
        self._file = open(last_path, "ab")
        self._offset = os.path.getsize(last_path)

    def _start_segment(self, first_seq: int) -> None:
        if self._file is not None:
            self._file.close()
        self._segment_first = first_seq
        self._segment_path = _segment_path(self.path, first_seq)
        self._file = open(self._segment_path, "ab")
        if os.path.getsize(self._segment_path) == 0:
            self._file.write(HEADER.pack(MAGIC, first_seq))
            self._file.flush()
        self._offset = os.path.getsize(self._segment_path)

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------

    def append(self, op: Op) -> int:
        """Append one op; returns its sequence number.

        The record is flushed to the OS before returning (same-host
        readers see it immediately); whether it is *fsynced* is governed
        by the policy.
        """
        if self._file is None:
            raise WALError("log is closed")
        # obs_span is a shared no-op unless a sampled trace is attached
        # on this thread (the service attaches it around traced writes).
        with obs_span("wal.append", op=op.kind):
            record = encode_record(op, self.next_seq)
            if (
                self._offset > HEADER.size
                and self._offset + len(record) > self.segment_bytes
            ):
                self._rotate()
            self._file.write(record)
            self._file.flush()
            seq = self.next_seq
            self.next_seq += 1
            self._offset += len(record)
            self.appends += 1
            self.bytes_written += len(record)
            if self.fsync_policy == "always":
                self._fsync()
            elif self.fsync_policy == "interval":
                now = time.monotonic()
                if now - self._last_sync >= self.fsync_interval_s:
                    self._fsync()
        return seq

    def _rotate(self) -> None:
        self._fsync()  # a finalized segment is never torn
        self._start_segment(self.next_seq)
        self.rotations += 1

    def _fsync(self) -> None:
        with obs_span("wal.fsync"):
            t0 = time.perf_counter()
            os.fsync(self._file.fileno())
            _fsync_hist().observe(time.perf_counter() - t0)
        self._last_sync = time.monotonic()
        self.syncs += 1

    def sync(self) -> None:
        """Flush and fsync the active segment (any policy)."""
        if self._file is not None:
            self._file.flush()
            self._fsync()

    def close(self) -> None:
        """Flush, fsync (unless policy ``off``) and close the log."""
        if self._file is None:
            return
        self._file.flush()
        if self.fsync_policy != "off":
            self._fsync()
        self._file.close()
        self._file = None

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------

    @property
    def tail_offset(self) -> int:
        """Byte offset of the next record in the active segment."""
        return self._offset

    @property
    def active_segment(self) -> str:
        return self._segment_path

    def segments(self) -> List[Tuple[int, str]]:
        """Sorted ``(first_seq, path)`` of all segment files."""
        return _list_segments(self.path)

    def total_bytes(self) -> int:
        return sum(os.path.getsize(p) for _, p in self.segments())

    def prune(self, retain_seq: int) -> int:
        """Delete segments fully below ``retain_seq``; returns how many.

        A segment is removable when the *next* segment starts at or
        before ``retain_seq`` (every record in it has ``seq <
        retain_seq``).  The active segment is never removed.  Call this
        after a snapshot at ``retain_seq`` has been persisted — earlier
        records are then covered by the snapshot.
        """
        segments = self.segments()
        removed = 0
        for (first, path), (next_first, _) in zip(segments, segments[1:]):
            if next_first <= retain_seq and path != self._segment_path:
                os.remove(path)
                removed += 1
            else:
                break
        return removed

    def stats(self) -> Dict[str, float]:
        return {
            "appends": float(self.appends),
            "bytes_written": float(self.bytes_written),
            "syncs": float(self.syncs),
            "rotations": float(self.rotations),
            "next_seq": float(self.next_seq),
            "segments": float(len(self.segments())),
        }

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

def apply_op(index, op: Op) -> Optional[int]:
    """Apply one decoded record to ``index`` (replay semantics).

    Prefers the index's own ``apply_op`` hook (e.g.
    :meth:`repro.core.dynamic.DynamicLCCSLSH.apply_op`); otherwise
    dispatches to ``fit``/``insert``/``delete``.  A ``delete`` that
    raises ``KeyError`` is a **no-op**, exactly matching the live call
    that logged it (the original ``delete`` raised to its caller without
    changing state), so replayed state tracks acknowledged state even
    through failed deletes.
    """
    hook = getattr(index, "apply_op", None)
    if hook is not None:
        return hook((op.kind, op.payload))
    if op.kind == "fit":
        index.fit(op.payload)
        return None
    if op.kind == "insert":
        return int(index.insert(op.payload))
    if op.kind == "delete":
        try:
            index.delete(int(op.payload))
        except KeyError:
            pass
        return None
    if op.kind in ("seal", "compact"):
        # Structural LSM ops are only written by indexes exposing the
        # apply_op hook; an index without it cannot replay them.
        raise WALError(
            f"{type(index).__name__} cannot replay structural "
            f"{op.kind!r} records (no apply_op hook)"
        )
    raise WALError(f"unknown op kind {op.kind!r}")


def replay(index, ops) -> int:
    """Apply an iterable of ``(seq, Op)`` pairs in order; returns count."""
    applied = 0
    for _, op in ops:
        apply_op(index, op)
        applied += 1
    return applied


# ----------------------------------------------------------------------
# DurableIndex
# ----------------------------------------------------------------------

class DurableIndex(ANNIndex):
    """Log-then-apply wrapper making any dynamic index crash-durable.

    Every ``fit``/``insert``/``delete`` is appended (and per policy
    fsynced) to the WAL *before* the in-memory apply; the op is
    acknowledged — the call returns — only after both.  Recovery
    (:func:`repro.serve.durability.snapshots.recover`) therefore
    reconstructs exactly the acknowledged prefix: kill the process at
    any WAL byte offset and the recovered index equals a serial replay
    of the ops whose records survived intact.

    Args:
        index: the index to wrap.  Must support ``insert``/``delete``
            for those ops to be accepted (e.g.
            :class:`~repro.core.dynamic.DynamicLCCSLSH`).
        wal_dir: WAL directory; also hosts ``snapshots/`` and the
            ``durable.json`` recipe sidecar.
        fsync / fsync_interval_s / segment_bytes: see
            :class:`WriteAheadLog`.
        snapshots: optional
            :class:`~repro.serve.durability.snapshots.SnapshotManager`;
            notified after every applied op and used for the baseline
            checkpoint when wrapping an already-fitted index.
        spec: optional :class:`~repro.serve.registry.IndexSpec` recorded
            in ``durable.json`` so recovery can rebuild the index from
            the log alone (without it, recovery needs at least one
            readable snapshot or an explicit spec).

    Wrapping an **already-fitted** index over an *empty* log requires a
    snapshot manager: the pre-existing state is captured by an immediate
    baseline checkpoint (it is not re-derivable from an empty log).
    Like every index, the wrapper is single-threaded — put it behind
    :class:`~repro.serve.concurrency.ConcurrentIndex` (or
    :class:`~repro.serve.ANNService`) to serialize writers.
    """

    def __init__(
        self,
        index: ANNIndex,
        wal_dir: str,
        fsync: str = "always",
        fsync_interval_s: float = 0.05,
        segment_bytes: int = 64 << 20,
        snapshots=None,
        spec=None,
    ):
        if not isinstance(index, ANNIndex):
            raise TypeError(f"{index!r} is not an ANNIndex")
        # Deliberately not calling ANNIndex.__init__: every stateful
        # attribute (data, stats, build time) delegates to the wrapped
        # index so the wrapper adds logging, not a second copy of state.
        self.inner = index
        self.dim = index.dim
        self.metric = index.metric
        self.seed = index.seed
        self.name = f"Durable[{index.name}]"
        self.wal = WriteAheadLog(
            wal_dir,
            fsync=fsync,
            fsync_interval_s=fsync_interval_s,
            segment_bytes=segment_bytes,
        )
        self.snapshots = snapshots
        # LSM-tiered indexes announce manual seals/compactions through
        # a structural listener; registering it routes those epoch swaps
        # through the log *before* they are published (log-then-apply),
        # keeping recovery and WAL-tailing replicas byte-exact.
        register = getattr(index, "set_structural_listener", None)
        if register is not None:
            register(self._log_structural)
        if spec is not None:
            self._write_config(spec)
        if snapshots is not None and snapshots.latest_seq is not None:
            if self.wal.next_seq < snapshots.latest_seq:
                # A snapshot tagged ahead of the surviving log means the
                # log lost fsync-pending records a snapshot had already
                # captured.  Appending here would reuse sequence numbers
                # the snapshot covers, making the new writes permanently
                # invisible to recovery and replicas — refuse loudly.
                # (The sync-before-snapshot barrier in checkpoint()
                # prevents this for crashes; this guard catches manual
                # tampering or logs mixed across directories.)
                raise WALError(
                    f"snapshot at seq {snapshots.latest_seq} is ahead of "
                    f"the log (next_seq={self.wal.next_seq}); recover() "
                    "from the snapshot into a fresh WAL directory instead "
                    "of appending to this one"
                )
        if index.is_fitted and self.wal.next_seq == 0:
            have_snapshot = (
                snapshots is not None and snapshots.latest_seq is not None
            )
            if snapshots is None:
                raise ValueError(
                    "wrapping an already-fitted index over an empty WAL "
                    "loses its current state; pass a SnapshotManager (a "
                    "baseline checkpoint is taken automatically) or wrap "
                    "before fitting"
                )
            if not have_snapshot:
                self.checkpoint()

    def _write_config(self, spec) -> None:
        config_path = os.path.join(self.wal.path, CONFIG_NAME)
        payload = {"spec": spec.to_manifest()}
        with open(config_path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    # ------------------------------------------------------------------
    # Delegated state
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def is_fitted(self) -> bool:
        return self.inner.is_fitted

    @property
    def last_stats(self):
        return self.inner.last_stats

    @last_stats.setter
    def last_stats(self, value) -> None:
        self.inner.last_stats = value

    @property
    def build_time(self) -> float:
        return self.inner.build_time

    @build_time.setter
    def build_time(self, value: float) -> None:
        self.inner.build_time = value

    @property
    def _data(self):
        return self.inner._data

    @_data.setter
    def _data(self, value) -> None:
        self.inner._data = value

    @property
    def applied_seq(self) -> int:
        """Number of ops logged *and* applied (the acknowledged count)."""
        return self.wal.next_seq

    # ------------------------------------------------------------------
    # Logged writes
    # ------------------------------------------------------------------

    def fit(self, data: np.ndarray) -> "DurableIndex":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise ValueError(
                f"data must have shape (n, {self.dim}), got {data.shape}"
            )
        self._check_hashable(data)
        self.wal.append(Op.fit(data))
        self.inner.fit(data)
        self._notify()
        return self

    def insert(self, vector: np.ndarray) -> int:
        if not hasattr(self.inner, "insert"):
            raise TypeError(
                f"{type(self.inner).__name__} does not support insert"
            )
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector must have shape ({self.dim},)")
        if not np.isfinite(vector).all():
            raise ValueError("vector must be finite (no NaN or infinity)")
        self._check_hashable(vector)
        self.wal.append(Op.insert(vector))
        handle = int(self.inner.insert(vector))
        self._notify()
        return handle

    def _check_hashable(self, rows: np.ndarray) -> None:
        """Refuse rows the wrapped index could not hash before they are
        logged: a logged row that fails its apply would fail every
        replay of the log too."""
        check = getattr(self.inner, "check_hashable", None)
        if check is not None:
            check(rows)

    def delete(self, handle: int) -> None:
        if not hasattr(self.inner, "delete"):
            raise TypeError(
                f"{type(self.inner).__name__} does not support delete"
            )
        handle = int(handle)
        # Log-then-apply even though the apply may raise: a delete that
        # fails with KeyError leaves the state unchanged both live and
        # on replay (see apply_op), so the log stays a faithful history.
        self.wal.append(Op.delete(handle))
        try:
            self.inner.delete(handle)
        finally:
            self._notify()

    def _log_structural(self, kind: str, payload) -> None:
        """Structural-listener callback: append seal/compact records.

        Invoked by the wrapped index on its own write path, immediately
        *before* the corresponding epoch swap, so the WAL ordering
        matches the in-memory ordering exactly.
        """
        if kind == "seal":
            self.wal.append(Op.seal(int(payload)))
        elif kind == "compact":
            self.wal.append(Op.compact(*payload))
        else:  # pragma: no cover - future-proofing
            raise WALError(f"unknown structural op {kind!r}")

    def flush(self) -> bool:
        """Seal the wrapped index's memtable (logged via the listener)."""
        flush = getattr(self.inner, "flush", None)
        if flush is None:
            raise TypeError(
                f"{type(self.inner).__name__} does not support flush"
            )
        try:
            return bool(flush())
        finally:
            self._notify()

    def compact(self) -> bool:
        """Merge the wrapped index's segments (logged via the listener)."""
        compact = getattr(self.inner, "compact", None)
        if compact is None:
            raise TypeError(
                f"{type(self.inner).__name__} does not support compact"
            )
        try:
            return bool(compact())
        finally:
            self._notify()

    def _notify(self) -> None:
        if self.snapshots is not None:
            self.snapshots.notify(
                self.inner,
                self.applied_seq,
                self.wal.bytes_written,
                barrier=self.wal.sync,
            )

    def checkpoint(self) -> Optional[str]:
        """Force a snapshot of the wrapped index at the current seq."""
        if self.snapshots is None:
            raise RuntimeError("no SnapshotManager attached")
        # Durability barrier: every op the snapshot reflects must be on
        # disk before the snapshot becomes visible, or a power loss
        # could leave a snapshot tagged ahead of the log (whose sequence
        # numbers later writes would then silently reuse).
        self.wal.sync()
        path = self.snapshots.take(self.inner, self.applied_seq)
        if self.snapshots.prune_wal:
            oldest = self.snapshots.oldest_retained_seq
            if oldest is not None:
                self.wal.prune(oldest)
        return path

    # ------------------------------------------------------------------
    # Pass-through reads
    # ------------------------------------------------------------------

    def query(self, q: np.ndarray, k: int = 1, **kwargs):
        return self.inner.query(q, k=k, **kwargs)

    def batch_query(self, queries: np.ndarray, k: int = 1, **kwargs):
        return self.inner.batch_query(queries, k=k, **kwargs)

    def index_size_bytes(self) -> int:
        return self.inner.index_size_bytes()

    # Abstract-hook implementations (the public overrides above are the
    # real entry points; these keep the ABC satisfied and behave sanely
    # if called directly).
    def _fit(self, data: np.ndarray) -> None:  # pragma: no cover
        self.inner._fit(data)

    def _query(self, q: np.ndarray, k: int, **kwargs):  # pragma: no cover
        return self.inner._query(q, k, **kwargs)

    def save(self, path: str) -> None:
        """Refuse: persist through snapshots (or ``inner.save``) instead.

        Pickling an open log handle would neither work nor mean
        anything; the durable state of this wrapper *is* the WAL plus
        its snapshots.
        """
        raise TypeError(
            "DurableIndex does not save directly; use checkpoint() / a "
            "SnapshotManager, or save the wrapped index via .inner.save()"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Fsync the WAL (make every acknowledged op durable now)."""
        self.wal.sync()

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def wal_stats(self) -> Dict[str, float]:
        """WAL counters plus snapshot count (for service stats)."""
        out = self.wal.stats()
        if self.snapshots is not None:
            out["snapshots"] = float(len(self.snapshots.list()))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableIndex({self.inner!r}, wal={self.wal.path!r}, "
            f"seq={self.applied_seq})"
        )
