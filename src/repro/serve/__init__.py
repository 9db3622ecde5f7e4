"""Serving layer: durable index bundles, concurrency, and the server.

This package turns the in-process indexes into servable artifacts:

* :mod:`repro.serve.persistence` — the ``save``/``load`` bundle format.
  A bundle is a directory of ``manifest.json`` (format version, registry
  class name, ``dim``/``metric``/``seed``, build time, work counters,
  JSON-safe native state, per-array file/shape/dtype/offset index) plus
  one raw ``.npy`` file per array.  Format 4 stores each CSA's hash
  strings as narrow unsigned codes plus an offset, and its ranks as
  uint16 up to 65 536 strings; format-3 bundles (int32 ranks) load as
  they are, format-2 bundles (int64 strings) load encoded once.  ``load_index(path,
  mmap=True)`` opens a bundle as read-only memory maps through the
  :class:`~repro.serve.persistence.ArrayStore` abstraction — cold start
  in milliseconds, one page-cache copy of the data shared by every
  local reader, byte-identical query results.  A bundle holds only
  what is served — ``LCCSLSH``, ``DynamicLCCSLSH`` or ``LinearScan``,
  through their native export hooks; saving any other index raises
  :class:`~repro.serve.persistence.BundleError`, and so does loading a
  pickle bundle an earlier build wrote, a corrupt manifest, another
  ``format_version``, an unknown class, arrays that disagree with
  each other or a manifest naming a file outside the bundle.  Loading never runs code.
* :mod:`repro.serve.registry` — name -> class registry the manifests
  reference, so loading a bundle never imports a class reference,
  and :class:`~repro.serve.registry.IndexSpec`, the JSON-safe index
  recipe a WAL directory records for full-log replay.
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
    read_manifest,
    save_index,
)
from repro.serve.registry import (
    IndexSpec,
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
    "read_manifest",
    "register_index",
    "registry_name",
    "resolve_index_class",
    "save_index",
]
