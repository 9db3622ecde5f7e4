"""Index persistence: JSON-manifest bundles with raw-``.npy`` payloads.

A *bundle* is a directory::

    <path>/
        manifest.json   # format version, registry class name, dim,
                        # metric, seed, build_time, work counters, the
                        # index's JSON-safe native state, and an
                        # ``array_index``: per array the file it lives
                        # in, its shape/dtype, and the byte offset of
                        # its data inside that file
        arrays/
            <name>.npy  # one raw npy file per numpy array

Because every array is a plain contiguous ``.npy`` file, the whole
bundle can be opened with ``np.load(..., mmap_mode="r")``:
``load_index(path, mmap=True)`` returns a servable index in
milliseconds without reading the payload — the OS page cache holds
the only physical copy of the data, shared by every local process
that maps the same bundle.

Two serializers share the layout:

* ``native`` — the index implements the :meth:`ANNIndex._export_state` /
  :meth:`ANNIndex._import_state` hooks, splitting itself into JSON-safe
  metadata and named arrays.  Loading never unpickles anything (arrays
  are read with ``allow_pickle=False``), bundles are inspectable with a
  text editor plus ``np.load``, and they stay readable across library
  refactors as long as the hook contract holds.  ``LCCSLSH``,
  ``MPLCCSLSH``, ``DynamicLCCSLSH``, ``LinearScan``, ``ShardedIndex``,
  ``QALSH``, ``SKLSH``, ``LSBForest`` and ``SRS`` ship native
  implementations.
* ``pickle`` — the documented fallback for the remaining baselines
  (``E2LSH``/``MultiProbeLSH``/``FALCONN``/``StaticConcatIndex``,
  ``C2LSH``, ``LazyLSH``, ``LSHForest``, and the cascades): the whole
  index object is pickled into a single ``uint8`` array stored under
  the ``__pickle__`` key.  Same on-disk layout, same API, but the usual
  pickle caveats apply (trusted inputs only, and bundles are tied to
  the class layout of the writing version).  Indexes opt in simply by
  *not* overriding the export hooks.  ``mmap=True`` is ineffective for
  pickle bundles — unpickling materialises a private copy anyway.

That in-bundle payload, named by a manifest that says so, is the only
thing ever unpickled: a path that is not a bundle directory (a regular
file, whatever it holds) is refused with :class:`BundleError`.

:class:`ArrayStore` is the read-side abstraction bundles load through:
a mapping from array name to ``np.ndarray`` whose ``mode`` is either
``"eager"`` (private in-RAM copies) or ``"mmap"`` (read-only memory
maps opened lazily).  Arrays served by an mmap store are **read-only**;
index classes must treat loaded state as immutable and copy-on-write
anything they need to change.

Errors are reported as :class:`BundleError` (corrupt or missing
manifest, wrong ``format_version``, unknown registry class, missing
arrays), so callers can distinguish bad bundles from programming errors.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import shutil
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.base import ANNIndex

__all__ = [
    "ArrayStore",
    "BundleError",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "ARRAYS_DIR",
    "bundle_summary",
    "export_index",
    "import_index",
    "open_array_store",
    "save_index",
    "load_index",
    "load_shard",
    "read_manifest",
]

#: the one bundle layout written and read; bump when it changes incompatibly
FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
#: directory of one raw .npy file per array
ARRAYS_DIR = "arrays"
#: array name holding the pickled index when the fallback serializer is used
PICKLE_KEY = "__pickle__"

_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]")


class BundleError(RuntimeError):
    """A bundle is corrupt, incomplete, or from an incompatible version."""


def _check_version(manifest, source: str) -> None:
    """Refuse a manifest this library cannot read, before any array is."""
    if not isinstance(manifest, dict):
        raise BundleError(f"{source}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleError(
            f"{source}: unsupported bundle format_version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )


def json_safe(obj) -> bool:
    """Whether ``obj`` survives a JSON round trip unchanged (scalars,
    strings, None, and lists/dicts thereof)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return True
    if isinstance(obj, (list, tuple)):
        return all(json_safe(v) for v in obj)
    if isinstance(obj, dict):
        return all(isinstance(k, str) and json_safe(v) for k, v in obj.items())
    return False


# ----------------------------------------------------------------------
# In-memory export / import (also used for nesting, e.g. shard payloads)
# ----------------------------------------------------------------------

def export_index(index: "ANNIndex") -> Tuple[dict, Dict[str, np.ndarray]]:
    """Flatten ``index`` into ``(manifest, arrays)``.

    Tries the native hooks first; on ``NotImplementedError`` falls back
    to the documented pickle serializer (the whole object as a ``uint8``
    array under ``__pickle__``).
    """
    from repro import __version__
    from repro.serve.registry import registry_name

    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "class": registry_name(type(index)),
        "dim": index.dim,
        "metric": index.metric,
        "seed": index.seed,
        "fitted": index.is_fitted,
        "build_time": float(index.build_time),
        "last_stats": {k: float(v) for k, v in index.last_stats.items()},
    }
    try:
        state, arrays = index._export_state()
        if not json_safe(state):
            raise NotImplementedError(
                f"{type(index).__name__}._export_state returned non-JSON-safe "
                "metadata"
            )
        manifest["serializer"] = "native"
        manifest["state"] = state
    except NotImplementedError:
        manifest["serializer"] = "pickle"
        payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
        arrays = {PICKLE_KEY: np.frombuffer(payload, dtype=np.uint8)}
    # Recorded so the loader can detect truncated payloads up front.
    manifest["array_names"] = sorted(arrays)
    return manifest, arrays


def import_index(
    manifest: dict, arrays: Mapping[str, np.ndarray], source: str = "<bundle>"
) -> "ANNIndex":
    """Rebuild an index from :func:`export_index` output.

    Args:
        manifest: parsed manifest dictionary.
        arrays: named arrays — a plain dict or an :class:`ArrayStore`
            (mmap stores hand out read-only maps; never unpickled here).
        source: human-readable origin used in error messages.
    """
    from repro.base import ANNIndex
    from repro.serve.registry import resolve_index_class

    _check_version(manifest, source)
    for key in ("class", "serializer", "dim", "metric"):
        if key not in manifest:
            raise BundleError(f"{source}: manifest is missing {key!r}")
    try:
        cls = resolve_index_class(manifest["class"])
    except KeyError as exc:
        raise BundleError(f"{source}: {exc.args[0]}") from None

    expected = manifest.get("array_names")
    if expected is not None:
        missing = sorted(set(expected) - set(arrays))
        if missing:
            raise BundleError(
                f"{source}: arrays missing from payload: {missing[:5]}"
                f"{' ...' if len(missing) > 5 else ''}"
            )

    serializer = manifest["serializer"]
    if serializer == "pickle":
        if PICKLE_KEY not in arrays:
            raise BundleError(f"{source}: pickle bundle is missing its payload")
        index = pickle.loads(arrays[PICKLE_KEY].tobytes())
        if not isinstance(index, ANNIndex):
            raise BundleError(
                f"{source}: pickle payload is {type(index).__name__}, "
                "not an ANNIndex"
            )
    elif serializer == "native":
        try:
            index = cls._import_state(manifest, dict(arrays))
        except (KeyError, IndexError, ValueError) as exc:
            raise BundleError(
                f"{source}: incomplete native state for {manifest['class']}: "
                f"{exc!r}"
            ) from exc
    else:
        raise BundleError(f"{source}: unknown serializer {serializer!r}")

    if index.dim != manifest["dim"] or index.metric != manifest["metric"]:
        raise BundleError(
            f"{source}: reconstructed index (dim={index.dim}, "
            f"metric={index.metric!r}) contradicts its manifest "
            f"(dim={manifest['dim']}, metric={manifest['metric']!r})"
        )
    index.build_time = float(manifest.get("build_time", 0.0))
    index.last_stats = {
        k: float(v) for k, v in manifest.get("last_stats", {}).items()
    }
    return index


# ----------------------------------------------------------------------
# Nesting helpers (Dynamic inner index, Sharded shard payloads)
# ----------------------------------------------------------------------

def pack_nested(
    arrays: Dict[str, np.ndarray], prefix: str
) -> Dict[str, np.ndarray]:
    """Prefix a nested index's arrays so several fit in one bundle."""
    return {f"{prefix}.{key}": val for key, val in arrays.items()}


def unpack_nested(
    arrays: Mapping[str, np.ndarray], prefix: str
) -> Dict[str, np.ndarray]:
    """Invert :func:`pack_nested` for one prefix."""
    head = f"{prefix}."
    return {
        key[len(head):]: arrays[key] for key in arrays
        if key.startswith(head)
    }


# ----------------------------------------------------------------------
# ArrayStore: the read-side eager-vs-mmap abstraction
# ----------------------------------------------------------------------

class ArrayStore(Mapping):
    """A bundle's named arrays behind one mapping interface.

    ``mode == "eager"``: every array is a private in-RAM copy, loaded up
    front.  ``mode == "mmap"``: arrays are opened on first access as
    **read-only** ``np.memmap`` views of their ``.npy`` files and
    cached, so iterating names costs nothing and
    opening an array costs one header read — the payload pages fault in
    lazily and are shared with every other process mapping the bundle.

    Construct via :func:`open_array_store` (from a bundle directory) or
    :meth:`ArrayStore.eager` (from an in-memory dict).
    """

    def __init__(
        self,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        *,
        path: Optional[str] = None,
        files: Optional[Dict[str, str]] = None,
        mmap: bool = False,
        source: str = "<arrays>",
    ):
        self._cache: Dict[str, np.ndarray] = dict(arrays) if arrays else {}
        self._path = path
        self._files = dict(files) if files else {}
        self._mmap = bool(mmap)
        self._source = source
        self._names = tuple(
            sorted(set(self._cache) | set(self._files))
        )

    @classmethod
    def eager(cls, arrays: Dict[str, np.ndarray]) -> "ArrayStore":
        """Wrap an already-loaded name -> array dict."""
        return cls(arrays, mmap=False)

    @property
    def mode(self) -> str:
        """``"mmap"`` or ``"eager"`` — how arrays are materialised."""
        return "mmap" if self._mmap else "eager"

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name) -> bool:
        return name in self._cache or name in self._files

    def __getitem__(self, name: str) -> np.ndarray:
        if name in self._cache:
            return self._cache[name]
        try:
            rel = self._files[name]
        except KeyError:
            raise KeyError(name) from None
        fpath = os.path.join(self._path, rel)
        try:
            if self._mmap:
                arr = np.load(fpath, mmap_mode="r", allow_pickle=False)
            else:
                arr = np.load(fpath, allow_pickle=False)
        except FileNotFoundError:
            raise BundleError(
                f"{self._source}: missing array file {rel!r} for {name!r}"
            ) from None
        except (ValueError, OSError) as exc:
            raise BundleError(
                f"{self._source}: unreadable array {name!r}: {exc}"
            ) from None
        self._cache[name] = arr
        return arr


def _array_filenames(names) -> Dict[str, str]:
    """Deterministic, collision-free name -> filename map for writes."""
    out: Dict[str, str] = {}
    used = set()
    for i, name in enumerate(sorted(names)):
        safe = _UNSAFE_FILENAME.sub("_", name)
        if not safe or safe.startswith("."):
            safe = f"array{i}"
        fname = f"{safe}.npy"
        while fname in used:  # sanitisation collision: disambiguate
            safe = f"{safe}_{i}"
            fname = f"{safe}.npy"
        used.add(fname)
        out[name] = fname
    return out


def _npy_header(fpath: str) -> Tuple[Tuple[int, ...], np.dtype, int]:
    """(shape, dtype, data offset) from a ``.npy`` file's header only."""
    with open(fpath, "rb") as f:
        version = np.lib.format.read_magic(f)
        if version == (1, 0):
            shape, _, dtype = np.lib.format.read_array_header_1_0(f)
        elif version == (2, 0):
            shape, _, dtype = np.lib.format.read_array_header_2_0(f)
        else:
            raise ValueError(f"npy format {version}")
        return shape, dtype, f.tell()


def _array_index(path: str, manifest: dict) -> dict:
    array_index = manifest.get("array_index")
    if not isinstance(array_index, dict):
        raise BundleError(f"{path}: manifest has no array_index")
    return array_index


def open_array_store(
    path: str, manifest: dict, mmap: bool = False
) -> ArrayStore:
    """Open a bundle directory's arrays as an :class:`ArrayStore`
    (``mmap``: lazy read-only maps instead of in-RAM copies)."""
    files = {
        name: entry["file"]
        for name, entry in _array_index(path, manifest).items()
        if isinstance(entry, dict) and "file" in entry
    }
    return ArrayStore(path=path, files=files, mmap=mmap, source=path)


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------

def _write_arrays(path: str, arrays: Dict[str, np.ndarray]) -> dict:
    """Write one raw ``.npy`` per array; returns the manifest array index."""
    arrays_dir = os.path.join(path, ARRAYS_DIR)
    if os.path.isdir(arrays_dir):  # rewrite in place: drop stale members
        shutil.rmtree(arrays_dir)
    os.makedirs(arrays_dir)
    filenames = _array_filenames(arrays)
    index: dict = {}
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        fname = filenames[name]
        fpath = os.path.join(arrays_dir, fname)
        with open(fpath, "wb") as f:
            np.lib.format.write_array(f, arr, allow_pickle=False)
        shape, dtype, offset = _npy_header(fpath)
        index[name] = {
            "file": f"{ARRAYS_DIR}/{fname}",
            "shape": [int(s) for s in shape],
            "dtype": dtype.str,
            "offset": int(offset),
            "nbytes": int(np.prod(shape, dtype=np.int64)) * dtype.itemsize,
        }
    return index


def save_index(
    index: "ANNIndex",
    path: str,
    extra: Optional[dict] = None,
) -> str:
    """Write ``index`` as a bundle directory at ``path``; returns ``path``.

    Args:
        index: any :class:`ANNIndex` (fitted or not).
        path: bundle directory (created if needed; files overwritten).
        extra: optional JSON-safe application metadata stored under the
            manifest's ``"extra"`` key (the CLI records dataset
            provenance here).
    """
    manifest, arrays = export_index(index)
    if extra is not None:
        if not json_safe(extra):
            raise ValueError("extra metadata must be JSON-safe")
        manifest["extra"] = extra
    if os.path.exists(path) and not os.path.isdir(path):
        raise BundleError(
            f"{path} exists and is not a directory; bundles are directories"
        )
    os.makedirs(path, exist_ok=True)
    # Write arrays first so a torn write leaves no parseable manifest —
    # including on an in-place re-save, where the *previous* manifest
    # must go before the old arrays do (a crash mid-rewrite must not
    # leave a stale manifest describing half-replaced payloads).
    stale_manifest = os.path.join(path, MANIFEST_NAME)
    if os.path.exists(stale_manifest):
        os.remove(stale_manifest)
    manifest["array_index"] = _write_arrays(path, arrays)
    blob = json.dumps(manifest, indent=2, sort_keys=True)
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as f:
        f.write(blob + "\n")
    return path


def read_manifest(path: str) -> dict:
    """Parse a bundle's manifest (without loading any arrays).

    :class:`BundleError` unless ``path`` is a directory holding a
    parseable manifest of the format version this library reads.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except (FileNotFoundError, NotADirectoryError):
        raise BundleError(f"{path}: no {MANIFEST_NAME}; not a bundle") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BundleError(f"{path}: corrupt manifest: {exc}") from None
    _check_version(manifest, path)
    return manifest


def _summary_arrays(path: str, manifest: dict) -> list:
    """Per-array summary rows from the manifest (no payload I/O at all)."""
    array_index = _array_index(path, manifest)
    rows = []
    for name in sorted(array_index):
        entry = array_index[name]
        try:
            shape = tuple(int(s) for s in entry["shape"])
            dtype = np.dtype(entry["dtype"])
            rel = entry["file"]
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleError(
                f"{path}: corrupt array_index entry {name!r}: {exc}"
            ) from None
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        try:
            stored = int(os.path.getsize(os.path.join(path, rel)))
        except OSError:
            raise BundleError(
                f"{path}: missing array file {rel!r} for {name!r}"
            ) from None
        rows.append(
            {
                "name": name,
                "shape": shape,
                "dtype": str(dtype),
                "bytes": nbytes,
                "stored_bytes": stored,
            }
        )
    return rows


def bundle_summary(path: str) -> dict:
    """Describe a bundle without loading (or unpickling) any arrays.

    Everything comes from the manifest's ``array_index`` (zero payload
    I/O beyond one ``stat`` per file), so inspecting a multi-gigabyte
    bundle is instant.  Returns::

        {
          "path", "class", "serializer", "format_version",
          "library_version", "dim", "metric", "seed", "fitted",
          "build_time", "shards",            # None unless sharded
          "extra",                           # build provenance, if any
          "arrays": [ {"name", "shape", "dtype",
                       "bytes",              # in-memory size
                       "stored_bytes"}, ...],  # on-disk size
          "total_bytes", "total_stored_bytes",
        }

    Raises :class:`BundleError` for anything that is not a readable
    bundle (the same contract as :func:`load_index`).
    """
    manifest = read_manifest(path)
    state = manifest.get("state", {})
    summary = {
        "path": path,
        "class": manifest.get("class"),
        "serializer": manifest.get("serializer"),
        "format_version": manifest.get("format_version"),
        "library_version": manifest.get("library_version"),
        "dim": manifest.get("dim"),
        "metric": manifest.get("metric"),
        "seed": manifest.get("seed"),
        "fitted": manifest.get("fitted"),
        "build_time": manifest.get("build_time"),
        "shards": state.get("num_shards") if isinstance(state, dict) else None,
        "extra": manifest.get("extra"),
        "arrays": _summary_arrays(path, manifest),
    }
    summary["total_bytes"] = sum(a["bytes"] for a in summary["arrays"])
    summary["total_stored_bytes"] = sum(
        a["stored_bytes"] for a in summary["arrays"]
    )
    return summary


def load_index(path: str, mmap: bool = False) -> "ANNIndex":
    """Load a bundle directory.

    Args:
        path: bundle directory.
        mmap: open the arrays as read-only memory maps instead of
            reading them into RAM.  The index is servable immediately —
            array pages fault in on first touch and live in the OS page
            cache, shared across every process that maps the same
            bundle.  Ineffective for pickle-serialized bundles.

    Everything goes through the manifest protocol, with
    :class:`BundleError` on any inconsistency — including a ``path``
    that is a regular file: nothing outside a bundle is ever unpickled.

    Eager and mmap loads reconstruct byte-identical indexes: every
    query answered by an mmap-loaded index returns exactly the ids and
    distances its eager twin would.
    """
    manifest = read_manifest(path)
    store = open_array_store(path, manifest, mmap=mmap)
    index = import_index(manifest, store, source=path)
    # Record provenance so downstream layers (e.g. the sharded process
    # fan-out) can re-open the same bundle in worker processes.
    attach = getattr(index, "attach_bundle", None)
    if callable(attach):
        attach(os.path.abspath(path), mmap=store.mode == "mmap")
    return index


def load_shard(path: str, shard: int, mmap: bool = False) -> "ANNIndex":
    """Load one shard of a saved :class:`~repro.serve.sharding.ShardedIndex`.

    With ``mmap=True`` only the requested shard's arrays are opened (as
    read-only maps), so a fan-out worker process touches none of the
    other shards' pages — this is what lets a process pool serve a
    sharded bundle with one physical copy of the dataset.

    Args:
        path: bundle directory holding a fitted ``ShardedIndex``.
        shard: shard number in ``[0, num_shards)``.
        mmap: open arrays as read-only memory maps.
    """
    manifest = read_manifest(path)
    state = manifest.get("state")
    shard_manifests = state.get("shards") if isinstance(state, dict) else None
    if not isinstance(shard_manifests, list) or not shard_manifests:
        raise BundleError(f"{path}: not a fitted ShardedIndex bundle")
    if not 0 <= shard < len(shard_manifests):
        raise BundleError(
            f"{path}: shard {shard} out of range "
            f"[0, {len(shard_manifests)})"
        )
    store = open_array_store(path, manifest, mmap=mmap)
    arrays = unpack_nested(store, f"shard{shard}")
    return import_index(
        shard_manifests[shard], arrays, source=f"{path}[shard {shard}]"
    )
