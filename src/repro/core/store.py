"""The vector store's element type: the narrowest one that is exact.

An LCCS index keeps its vectors only to verify candidates, and every
distance is computed on their float64 values.  So the store may hold
them in any type that widens back to the same float64 bits: SIFT-like
descriptors (integers 0..255) fit in one byte instead of eight.  The
type is chosen from the values alone, at fit — there is no knob — as
the first of :data:`STORE_DTYPES` through which every value widens back
to its own float64 bits.  Bits, not values: ``-0.0`` never narrows to an integer
type, and a NaN never narrows at all.  A dynamic store widens (once, in
the copy its growth makes anyway) when an insert does not fit, and
never narrows back.

Readers widen what they gather before any arithmetic (``uint8 - uint8``
wraps; ``(double)a - b`` is exact), so answers are byte-identical to a
float64 store of the same values.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["STORE_DTYPES", "check_store", "narrow_store", "widen_for"]

#: the store types, narrowest first; the C verify kernel reads each
STORE_DTYPES = tuple(np.dtype(t) for t in ("u1", "i1", "u2", "i2", "f4", "f8"))

#: elements checked per step: the temporaries stay in cache, and a
#: type that does not fit is usually rejected after the first step
_CHUNK = 1 << 14


def _as(values: np.ndarray, dtype: np.dtype) -> Optional[np.ndarray]:
    """``values`` as ``dtype`` if every element widens back to the
    float64 bits of the input element (and none is NaN), else ``None``.

    The comparison is in float64, not in the input's type: casting
    ``int8`` to ``uint8`` and back is a bijection that would pass
    ``-3`` stored as ``253``."""
    flat = values.reshape(-1)
    out = np.empty(flat.shape, dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, len(flat), _CHUNK):
            part = flat[start : start + _CHUNK]
            out[start : start + _CHUNK] = part
            back = out[start : start + _CHUNK].astype(np.float64)
            want = part.astype(np.float64, copy=False)
            if not np.array_equal(back.view(np.uint64), want.view(np.uint64)) or (
                dtype.kind == "f" and np.isnan(part).any()
            ):
                return None
    return out.reshape(values.shape)


def narrow_store(data: np.ndarray, copy: bool = False) -> np.ndarray:
    """``data`` in the first of :data:`STORE_DTYPES` that holds it exactly.

    Any other input type (int64, bool, float16, ...) is first converted
    to float64, the type every distance is computed in.  The result is
    a new C-contiguous array when the type changes; otherwise ``data``
    itself (a copy with ``copy=True``).
    """
    data = np.asarray(data)
    if data.dtype not in STORE_DTYPES:
        data, copy = np.ascontiguousarray(data, dtype=np.float64), False
    for dtype in STORE_DTYPES[: STORE_DTYPES.index(data.dtype)]:
        narrow = _as(data, dtype)
        if narrow is not None:
            return narrow
    return data.copy() if copy else data


def widen_for(store: np.dtype, vector: np.ndarray) -> np.dtype:
    """The store type that holds both ``store``'s values and ``vector``:
    ``store`` itself when the vector fits, else the first wider type."""
    if _as(vector, store) is not None:  # one cast: the common case
        return store
    own = narrow_store(vector).dtype
    return next(
        t for t in STORE_DTYPES if np.can_cast(store, t) and np.can_cast(own, t)
    )


def check_store(data: np.ndarray, typed: bool) -> np.ndarray:
    """A loaded store, refused (``ValueError``) when its bundle format
    types the store (``typed``) and it is not one of
    :data:`STORE_DTYPES`; earlier formats wrote float64 and are served
    as they are."""
    if typed and data.dtype not in STORE_DTYPES:
        raise ValueError(
            f"a vector store is one of {[str(t) for t in STORE_DTYPES]}, "
            f"got {data.dtype}"
        )
    return data
