"""The compiled query engine for the LCCS-LSH hot path.

The three query-time kernels — CSA bisection, the walk-tournament
merge, and fused candidate verification — run as a small C extension
(:mod:`repro.kernels.cext`) compiled on first use with the system C
compiler (no build step, no new dependency) and loaded through
``ctypes``.  It is *the engine*: every batch entry point of
:class:`~repro.core.csa.CircularShiftArray` and every served query
goes through it.  So does every CSA build (fit, seal, compaction,
recovery replay): :meth:`~repro.kernels.cext.CExtBackend.csa_build`.

The scalar path (``csa.search_all_shifts`` / ``merge_candidates``,
``ANNIndex._verify`` and the rank-doubling ``csa._build``) is the oracle
the engine must match byte for byte — same ids, same LCCS lengths, same
distances, same tie-breaks, same CSA arrays
(``tests/test_kernel_equivalence.py``, ``tests/test_csa.py``).  It is
also the fallback when the engine cannot be built: :func:`engine` then returns
``None`` after one ``RuntimeWarning`` carrying the compile error, and
indexes answer through the scalar path, slower but identically.

``backend="cext"`` (constructor kwarg, ``serve --backend``) names the
one engine; asking for it on a host where it cannot be built raises
with the compile error instead of running something else.
"""

from __future__ import annotations

import threading
import warnings
from typing import Optional

__all__ = ["check_backend", "engine"]

#: backend names earlier builds recorded in bundles, recipes and
#: pickles; reading one back loads on the engine
_RETIRED = ("numpy", "numba")

_lock = threading.Lock()
_loaded = False
_engine = None
_error: Optional[str] = None


def engine():
    """The compiled backend, or ``None`` when it cannot be built.

    Compiled (or loaded from the cache) once per process; the first
    failure warns once with a ``RuntimeWarning`` naming the error.
    """
    global _loaded, _engine, _error
    if _loaded:
        return _engine
    with _lock:
        if not _loaded:
            from repro.kernels.cext import CExtBackend, _load_library

            try:
                _engine = CExtBackend(_load_library())
            except Exception as exc:  # no compiler, compile error, bad dlopen
                _error = f"{type(exc).__name__}: {exc}"
                warnings.warn(
                    f"repro: the cext kernel engine is unavailable ({_error}); "
                    "queries run on the scalar path",
                    RuntimeWarning,
                    stacklevel=2,
                )
            _loaded = True
    return _engine


def check_backend(name: Optional[str]) -> None:
    """Validate an index constructor's ``backend=`` argument.

    ``None`` (and a retired name read back from an artifact) means the
    engine when it exists and the scalar path otherwise; ``"cext"``
    insists on the engine and raises ``RuntimeError`` with the compile
    error where it cannot be built; any other name is a ``ValueError``.
    """
    if name is None or name in _RETIRED:
        return
    if name != "cext":
        raise ValueError(f"unknown kernel backend {name!r}; the engine is 'cext'")
    if engine() is None:
        raise RuntimeError(f"backend='cext' is unavailable here: {_error}")
