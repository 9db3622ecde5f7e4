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

The CSA of an LCCS-LSH index is stored as ``csa.doubled`` — the doubled
hash strings as unsigned codes of the narrowest of 1/2/4/8 bytes that
holds their range — ``csa.offset`` (the int64 value of code 0),
``csa.sorted_idx`` and ``csa.next_link`` (uint16 for a CSA of at most
65 536 strings, int32 beyond).  The vectors (``data``, or a dynamic
index's ``store``) are kept in the narrowest exact type of uint8, int8,
uint16, int16, float32 and float64 (:mod:`repro.core.store`), and a
bundle holding them in any other type is refused.  That is format 5.
Format 4 stored the vectors as float64; format 3 also stored the ranks
as int32 at every size.  Bundles of both load and are served in place,
eager or memory-mapped, float64 vectors included.  Format 2 also stored
``csa.doubled`` as int64 with no offset, and still loads: its strings
are encoded once at load, into private memory.

Because every array is a plain contiguous ``.npy`` file, the whole
bundle can be opened with ``np.load(..., mmap_mode="r")``:
``load_index(path, mmap=True)`` returns a servable index in
milliseconds without reading the payload — the OS page cache holds
the only physical copy of the data, shared by every local process
that maps the same bundle.

A bundle holds only what is served: an ``LCCSLSH``, a
``DynamicLCCSLSH`` or a ``LinearScan``.  Each splits itself into
JSON-safe metadata and named arrays through the
:meth:`ANNIndex._export_state` / :meth:`ANNIndex._import_state` hooks,
recorded as ``"serializer": "native"``.  Arrays are plain numeric
``.npy`` files (object arrays are refused at save and never read), so
loading a bundle never runs code; bundles are inspectable with a text
editor plus ``np.load``.  Saving any other index, or one whose state is
not JSON-safe, raises :class:`BundleError` naming the class before
anything is written.  A manifest naming another serializer — the
object-serialized bundles earlier builds wrote for the baselines — is
refused before any array is opened, and so is any path that is not a
bundle directory.

Loading checks every array the kernels read in place against the rest
of the bundle: that its file lies inside the bundle's ``arrays/``
directory (symlinks resolved), each file's shape and dtype against the
manifest, CSA ranks against the row count, the data against the CSA,
the vectors' type against the store types, and a dynamic index's
handles against its row store.  A bundle that fails a check is
:class:`BundleError`, eagerly or memory-mapped alike, never an
out-of-bounds read.

:class:`ArrayStore` is the read-side abstraction bundles load through:
a mapping from array name to ``np.ndarray`` whose ``mode`` is either
``"eager"`` (private in-RAM copies) or ``"mmap"`` (read-only memory
maps opened lazily).  Arrays served by an mmap store are **read-only**;
index classes must treat loaded state as immutable and copy-on-write
anything they need to change.

Errors are reported as :class:`BundleError` (corrupt or missing
manifest, a ``format_version`` other than 2, 3, 4 or 5, a serializer other
than ``native``, unknown or unservable registry class, missing,
mis-typed or inconsistent arrays), so callers can distinguish bad
bundles from programming errors.
"""

from __future__ import annotations

import json
import os
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
    "TYPED_STORE_VERSION",
    "MANIFEST_NAME",
    "ARRAYS_DIR",
    "bundle_summary",
    "export_index",
    "import_index",
    "open_array_store",
    "save_index",
    "load_index",
    "read_manifest",
]

#: the bundle layout written; bump when it changes incompatibly.  5: the
#: vectors are stored in the narrowest exact type (``STORE_DTYPES``)
FORMAT_VERSION = 5
#: layouts read: 4 stored the vectors as float64 and 3 also every CSA's
#: ranks as int32, both served as they are; 2 also stored the CSA
#: strings as int64, which are encoded once at load
READ_VERSIONS = (2, 3, 4, 5)
#: the first layout whose vector stores must be one of ``STORE_DTYPES``
TYPED_STORE_VERSION = 5
MANIFEST_NAME = "manifest.json"
#: directory of one raw .npy file per array
ARRAYS_DIR = "arrays"

_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]")


class BundleError(RuntimeError):
    """A bundle is corrupt, incomplete, or from an incompatible version."""


def _check_version(manifest, source: str) -> None:
    """Refuse a manifest this library cannot read, before any array is."""
    if not isinstance(manifest, dict):
        raise BundleError(f"{source}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if version not in READ_VERSIONS:
        raise BundleError(
            f"{source}: unsupported bundle format_version {version!r} "
            f"(this library reads versions {READ_VERSIONS})"
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
# In-memory export / import (also used for nesting, e.g. segment payloads)
# ----------------------------------------------------------------------

def export_index(index: "ANNIndex") -> Tuple[dict, Dict[str, np.ndarray]]:
    """Flatten ``index`` into ``(manifest, arrays)`` through its native
    hooks; :class:`BundleError` naming the class for an index that has
    none (not served) or whose state is not JSON-safe."""
    from repro import __version__
    from repro.serve.registry import registry_name

    name = type(index).__name__
    try:
        state, arrays = index._export_state()
    except NotImplementedError as exc:
        raise BundleError(
            f"{name} cannot be saved as a bundle: bundles hold LCCSLSH, "
            f"DynamicLCCSLSH and LinearScan with JSON-safe parameters"
            f"{f' ({exc})' if str(exc) else ''}"
        ) from None
    if not json_safe(state):
        raise BundleError(
            f"{name} cannot be saved as a bundle: its state is not JSON-safe"
        )
    objects = sorted(k for k, v in arrays.items() if np.asarray(v).dtype.hasobject)
    if objects:
        raise BundleError(
            f"{name} cannot be saved as a bundle: object arrays {objects}"
        )
    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "class": registry_name(type(index)),
        "serializer": "native",
        "dim": index.dim,
        "metric": index.metric,
        "seed": index.seed,
        "fitted": index.is_fitted,
        "build_time": float(index.build_time),
        "last_stats": {k: float(v) for k, v in index.last_stats.items()},
        "state": state,
        # Recorded so the loader can detect truncated payloads up front.
        "array_names": sorted(arrays),
    }
    return manifest, arrays


def import_index(
    manifest: dict, arrays: Mapping[str, np.ndarray], source: str = "<bundle>"
) -> "ANNIndex":
    """Rebuild an index from :func:`export_index` output.

    Args:
        manifest: parsed manifest dictionary.
        arrays: named arrays — a plain dict or an :class:`ArrayStore`
            (mmap stores hand out read-only maps).
        source: human-readable origin used in error messages.

    A manifest whose serializer is not ``native`` is refused before any
    array is read.
    """
    from repro.serve.registry import resolve_index_class

    _check_version(manifest, source)
    for key in ("class", "serializer", "dim", "metric"):
        if key not in manifest:
            raise BundleError(f"{source}: manifest is missing {key!r}")
    if manifest["serializer"] != "native":
        raise BundleError(
            f"{source}: serializer {manifest['serializer']!r} is not read; "
            "only native bundles load"
        )
    try:
        cls = resolve_index_class(manifest["class"])
    except (KeyError, TypeError) as exc:
        raise BundleError(f"{source}: {exc.args[0]}") from None

    expected = manifest.get("array_names")
    if expected is not None:
        missing = sorted(set(expected) - set(arrays))
        if missing:
            raise BundleError(
                f"{source}: arrays missing from payload: {missing[:5]}"
                f"{' ...' if len(missing) > 5 else ''}"
            )

    try:
        index = cls._import_state(manifest, dict(arrays))
    except NotImplementedError:
        raise BundleError(
            f"{source}: {manifest['class']} is not served from bundles"
        ) from None
    except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
        # a malformed manifest state surfaces as one of these in a hook
        raise BundleError(
            f"{source}: incomplete or inconsistent native state for "
            f"{manifest['class']}: {exc!r}"
        ) from exc

    fitted = manifest.get("fitted", index.is_fitted)
    if (index.dim, index.metric, index.is_fitted) != (
        manifest["dim"], manifest["metric"], fitted
    ):
        raise BundleError(
            f"{source}: reconstructed index (dim={index.dim}, "
            f"metric={index.metric!r}, fitted={index.is_fitted}) "
            f"contradicts its manifest (dim={manifest['dim']}, "
            f"metric={manifest['metric']!r}, fitted={fitted})"
        )
    index.build_time = float(manifest.get("build_time", 0.0))
    index.last_stats = {
        k: float(v) for k, v in manifest.get("last_stats", {}).items()
    }
    return index


# ----------------------------------------------------------------------
# Nesting helpers (a Dynamic index's per-segment inner payloads)
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

    An array opened from a file must have the shape and dtype its
    manifest entry records (:class:`BundleError` otherwise), so the
    manifest describes what the loader hands the kernels.

    Construct via :func:`open_array_store`.
    """

    def __init__(
        self, path: str, files: Dict[str, dict], mmap: bool = False,
        source: str = "<arrays>",
    ):
        self._cache: Dict[str, np.ndarray] = {}
        self._path = path
        self._files = dict(files)
        self._mmap = bool(mmap)
        self._source = source
        self._names = tuple(sorted(self._files))

    @property
    def mode(self) -> str:
        """``"mmap"`` or ``"eager"`` — how arrays are materialised."""
        return "mmap" if self._mmap else "eager"

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name) -> bool:
        return name in self._files

    def __getitem__(self, name: str) -> np.ndarray:
        if name in self._cache:
            return self._cache[name]
        try:
            entry = self._files[name]
        except KeyError:
            raise KeyError(name) from None
        rel = entry["file"]
        fpath = _array_path(self._path, rel, name, self._source)
        try:
            if self._mmap:
                arr = np.load(fpath, mmap_mode="r")
            else:
                arr = np.load(fpath)
        except FileNotFoundError:
            raise BundleError(
                f"{self._source}: missing array file {rel!r} for {name!r}"
            ) from None
        except (ValueError, OSError, EOFError) as exc:
            raise BundleError(
                f"{self._source}: unreadable array {name!r}: {exc}"
            ) from None
        try:
            recorded = (list(entry["shape"]), np.dtype(entry["dtype"]))
        except (KeyError, TypeError, ValueError):
            recorded = None
        if recorded != (list(arr.shape), arr.dtype):
            raise BundleError(
                f"{self._source}: array {name!r} is {arr.dtype}"
                f"{list(arr.shape)} but its manifest entry says "
                f"{entry.get('dtype')!r}{entry.get('shape')!r}"
            )
        self._cache[name] = arr
        return arr


def _array_path(path: str, rel, name: str, source: str) -> str:
    """The file array ``name`` is read from: ``rel`` (its manifest entry's
    ``file``) resolved against the bundle, symlinks included.
    :class:`BundleError` unless it lies inside the bundle's
    ``arrays/`` — a manifest cannot point the loader at other files."""
    root = os.path.realpath(os.path.join(path, ARRAYS_DIR))
    if isinstance(rel, str):
        fpath = os.path.realpath(os.path.join(path, rel))
        if os.path.dirname(fpath) == root:
            return fpath
    raise BundleError(
        f"{source}: array {name!r} names file {rel!r}, which is not in "
        f"the bundle's {ARRAYS_DIR}/ directory"
    )


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
        name: entry
        for name, entry in _array_index(path, manifest).items()
        if isinstance(entry, dict) and isinstance(entry.get("file"), str)
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
            np.lib.format.write_array(f, arr)
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
            stored = int(os.path.getsize(_array_path(path, rel, name, path)))
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
    """Describe a bundle without loading any arrays.

    Everything comes from the manifest's ``array_index`` (zero payload
    I/O beyond one ``stat`` per file), so inspecting a multi-gigabyte
    bundle is instant.  Returns::

        {
          "path", "class", "serializer", "format_version",
          "library_version", "dim", "metric", "seed", "fitted",
          "build_time", "extra",             # build provenance, if any
          "arrays": [ {"name", "shape", "dtype",
                       "bytes",              # in-memory size
                       "stored_bytes"}, ...],  # on-disk size
          "total_bytes", "total_stored_bytes",
        }

    Raises :class:`BundleError` for anything that is not a readable
    bundle (the same contract as :func:`load_index`).
    """
    manifest = read_manifest(path)
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
            bundle.

    Everything goes through the manifest protocol, with
    :class:`BundleError` on any inconsistency — a ``path`` that is a
    regular file, a serializer other than ``native`` (the
    object-serialized bundles earlier builds wrote), or arrays that
    disagree with each other or with the manifest.  Loading never runs
    code.

    Eager and mmap loads reconstruct byte-identical indexes: every
    query answered by an mmap-loaded index returns exactly the ids and
    distances its eager twin would.
    """
    manifest = read_manifest(path)
    store = open_array_store(path, manifest, mmap=mmap)
    return import_index(manifest, store, source=path)
