"""Serving layer: durable index bundles and sharded, parallel serving.

This package turns the in-process indexes into servable artifacts:

* :mod:`repro.serve.persistence` — the ``save``/``load`` bundle format.
  A bundle is a directory of ``manifest.json`` (format version, registry
  class name, ``dim``/``metric``/``seed``, build time, work counters,
  JSON-safe native state, per-array file/shape/dtype/offset index) plus
  one raw ``.npy`` file per array.  ``load_index(path,
  mmap=True)`` opens a bundle as read-only memory maps through the
  :class:`~repro.serve.persistence.ArrayStore` abstraction — cold start
  in milliseconds, one page-cache copy of the data shared by every
  local reader, byte-identical query results.  ``LCCSLSH``,
  ``MPLCCSLSH``, ``DynamicLCCSLSH``, ``LinearScan``, ``QALSH`` and
  ``ShardedIndex`` serialize natively (no pickle anywhere; arrays are
  read with ``allow_pickle=False``); every other baseline falls back to
  the documented pickle serializer inside the same layout.  Corrupt
  manifests, wrong ``format_version`` and unknown classes raise
  :class:`~repro.serve.persistence.BundleError`.
* :mod:`repro.serve.sharding` — :class:`~repro.serve.sharding.ShardedIndex`
  partitions the rows into contiguous shards, builds them in parallel
  (process pool, with thread/serial fallbacks), fans queries out, and
  merges per-shard top-k by the canonical tie-order
  ``np.lexsort((ids, dists))``: ascending distance, ties by ascending
  global id.  Because every index ranks with the same lexsort and the
  distance kernels are row-wise bit-identical, candidate-saturated
  sharded queries are byte-identical to unsharded ones.
* :mod:`repro.serve.registry` — name -> class registry the manifests
  reference, so loading a bundle never unpickles a class reference.
* :mod:`repro.serve.concurrency` —
  :class:`~repro.serve.concurrency.ConcurrentIndex` makes any index
  safe to share across threads: parallel readers, exclusive writers
  behind a writer-preference lock, and a monotone **version** counter
  bumped on every write.
* :mod:`repro.serve.cache` — :class:`~repro.serve.cache.QueryCache`, a
  thread-safe LRU keyed on (query bytes, k, kwargs, index version), so
  a hit is always byte-identical to a fresh query at that version.
* :mod:`repro.serve.service` — :class:`~repro.serve.service.ANNService`
  composes all of the above and micro-batches concurrent single
  queries into one vectorised ``batch_query`` call.
* :mod:`repro.serve.durability` — crash durability and read scaling:
  :class:`~repro.serve.durability.DurableIndex` write-ahead-logs every
  ``fit``/``insert``/``delete`` before applying it,
  :class:`~repro.serve.durability.SnapshotManager` checkpoints the
  index as WAL-position-tagged bundles,
  :func:`~repro.serve.durability.recover` rebuilds the acknowledged
  state (snapshot + log-suffix replay, with corrupt-snapshot
  fallback), and a :class:`~repro.serve.durability.Replica` follows
  the WAL to serve reads from its own copy.
* :mod:`repro.serve.server` — the front door:
  :class:`~repro.serve.server.AsyncANNServer` is the one JSON-lines
  request handler — verb dispatch, admission control (explicit overload
  shedding), the per-connection write barrier, per-op latency
  histograms (:mod:`repro.obs.metrics`) and graceful drain — for the
  sockets it accepts and for any other reader/writer pair (``cli
  serve`` feeds it stdin that way);
  :func:`~repro.serve.server.run_server` adds the prefork worker
  model (N mmap replica processes behind one SO_REUSEPORT port, a
  primary process owning the WAL).  :mod:`repro.serve.client` has
  the matching asyncio and blocking clients.
"""

from repro.serve.cache import QueryCache, freeze_kwargs, query_key
from repro.serve.concurrency import ConcurrentIndex, RWLock
from repro.serve.durability import (
    DurableIndex,
    RecoveryError,
    Replica,
    SnapshotManager,
    StaleReadError,
    WALError,
    WriteAheadLog,
    recover,
)
from repro.serve.persistence import (
    FORMAT_VERSION,
    ArrayStore,
    BundleError,
    export_index,
    import_index,
    load_index,
    load_shard,
    read_manifest,
    save_index,
)
from repro.serve.registry import (
    index_names,
    index_registry,
    register_index,
    registry_name,
    resolve_index_class,
)
from repro.serve.client import (
    AsyncServeClient,
    Overloaded,
    ServeClient,
    ServerError,
)
from repro.obs.metrics import LatencyHistogram, ServerMetrics
from repro.serve.server import (
    AsyncANNServer,
    ServerConfig,
    ThreadedServer,
    run_server,
)
from repro.serve.service import ANNService
from repro.serve.sharding import IndexSpec, ShardedIndex, merge_topk

__all__ = [
    "ANNService",
    "ArrayStore",
    "AsyncANNServer",
    "AsyncServeClient",
    "BundleError",
    "ConcurrentIndex",
    "DurableIndex",
    "FORMAT_VERSION",
    "IndexSpec",
    "LatencyHistogram",
    "Overloaded",
    "QueryCache",
    "RWLock",
    "RecoveryError",
    "Replica",
    "ServeClient",
    "ServerConfig",
    "ServerError",
    "ServerMetrics",
    "ShardedIndex",
    "SnapshotManager",
    "StaleReadError",
    "ThreadedServer",
    "WALError",
    "WriteAheadLog",
    "freeze_kwargs",
    "query_key",
    "recover",
    "run_server",
    "export_index",
    "import_index",
    "index_names",
    "index_registry",
    "load_index",
    "load_shard",
    "merge_topk",
    "read_manifest",
    "register_index",
    "registry_name",
    "resolve_index_class",
    "save_index",
]
