"""Pluggable compiled kernels for the LCCS-LSH hot path.

The three query-time kernels — lock-step CSA bisection, the
walk-tournament merge, and fused candidate verification — are pure
NumPy since PR 1 but remain Python-orchestrated.  This package turns
each into a *backend* behind a tiny registry:

* ``numpy`` — the reference implementation (the exact code the CSA ran
  before this package existed), always available;
* ``cext`` — the same loops as a small C extension compiled on first
  use with the system C compiler (no build step, no new dependency)
  and loaded through ``ctypes``; silently skipped when no compiler is
  present.

Every backend is **byte-identical to the reference**: identical ids,
identical LCCS lengths, identical distances, identical tie-breaks.
The property tests in ``tests/test_kernel_equivalence.py`` pin this
down, and it is what lets compiled read kernels coexist with the
NumPy paths that writes, rebuilds and persistence keep using.

Selection precedence (first hit wins):

1. explicit ``backend=`` kwarg (``LCCSLSH(..., backend="cext")``);
2. a process-wide default installed by :func:`set_default_backend`
   (what the CLI ``--backend`` flag calls);
3. the ``REPRO_BACKEND`` environment variable;
4. ``"numpy"``.

A *known but unavailable* backend (no C compiler) falls back to NumPy
silently — the documented behavior that keeps bundles and scripts
portable across machines.  An *unknown* name raises ``ValueError`` when
requested explicitly; coming from the environment it is ignored (a typo
in a login profile must not break every import), and read back from a
pickle or bundle it means the default (:func:`persisted_backend` — the
artifact may have been written by a build that had a backend this one
does not).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

__all__ = [
    "BACKEND_ENV_VAR",
    "KNOWN_BACKENDS",
    "available_backends",
    "get_backend",
    "persisted_backend",
    "resolve_backend",
    "set_default_backend",
]

BACKEND_ENV_VAR = "REPRO_BACKEND"

#: registry order is also the documentation order
KNOWN_BACKENDS = ("numpy", "cext")

_instances: Dict[str, object] = {}
_unavailable: Dict[str, str] = {}
_default_override: Optional[str] = None


def _make(name: str):
    """Instantiate a backend, returning None (with a reason) if unavailable."""
    if name == "numpy":
        from repro.kernels.reference import NumpyBackend

        return NumpyBackend()
    if name == "cext":
        from repro.kernels.cext import make_cext_backend

        return make_cext_backend(_unavailable)
    raise ValueError(
        f"unknown kernel backend {name!r}; known: {list(KNOWN_BACKENDS)}"
    )


def get_backend(name: str):
    """The backend instance for ``name``, or ``None`` if unavailable.

    Raises ``ValueError`` for names outside :data:`KNOWN_BACKENDS`.
    """
    if name not in KNOWN_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {list(KNOWN_BACKENDS)}"
        )
    if name not in _instances:
        _instances[name] = _make(name)
    return _instances[name]


def available_backends() -> List[str]:
    """Names of the backends usable in this process, registry order."""
    return [name for name in KNOWN_BACKENDS if get_backend(name) is not None]


def unavailable_reason(name: str) -> Optional[str]:
    """Why ``name`` is unavailable (import/compile error), or None."""
    get_backend(name)
    return _unavailable.get(name)


def set_default_backend(name: Optional[str]) -> str:
    """Install a process-wide default (the CLI ``--backend`` hook).

    ``None`` clears the override.  Returns the name the default
    *resolves* to right now (e.g. ``"numpy"`` when cext was requested
    but no C compiler is present).
    """
    global _default_override
    if name is not None and name not in KNOWN_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {list(KNOWN_BACKENDS)}"
        )
    _default_override = name
    return resolve_backend(None).name


def persisted_backend(name: Optional[str]) -> Optional[str]:
    """A backend name read back from a pickle or bundle, made safe.

    Whoever wrote the artifact may have had a backend this build does
    not know; that must not make the artifact unloadable, so an unknown
    name becomes ``None`` (the default chain).  Names a *caller* passes
    go to :func:`resolve_backend` unchanged and still raise.
    """
    return name if name in KNOWN_BACKENDS else None


def resolve_backend(name: Optional[str] = None):
    """Resolve a backend request into a live backend instance.

    ``name=None`` applies the precedence chain (CLI default, then
    ``REPRO_BACKEND``, then numpy).  Explicit unknown names raise;
    unknown names from the environment are ignored; known-but-
    unavailable backends fall back to NumPy silently.
    """
    if name is None:
        name = _default_override
    if name is None:
        env = os.environ.get(BACKEND_ENV_VAR, "").strip()
        if env in KNOWN_BACKENDS:
            name = env
    if name is None:
        name = "numpy"
    backend = get_backend(name)
    if backend is None:  # known but unavailable: documented silent fallback
        backend = get_backend("numpy")
    return backend
