"""Registry of index classes, by name.

The persistence layer stores a *registry name* (the class name) in every
bundle manifest instead of a class reference, so bundles stay readable
across refactors and loading never imports arbitrary code.  The registry
is populated lazily from the library's own index modules, baselines
included, so :class:`IndexSpec` and the CLI's ``compare`` can name any
of them; only classes that implement the native export hooks
(``LCCSLSH``, ``DynamicLCCSLSH``, ``LinearScan``) round-trip through
``save``/``load``.  Any external :class:`~repro.base.ANNIndex` subclass
can join via :func:`register_index`.  :class:`IndexSpec` is the
JSON-safe recipe (registry name + constructor kwargs) that WAL
directories record in ``durable.json`` to rebuild an index for a
full-log replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type, Union

from repro.base import ANNIndex

__all__ = [
    "IndexSpec",
    "index_registry",
    "register_index",
    "registry_name",
    "resolve_index_class",
]

_REGISTRY: Dict[str, Type[ANNIndex]] = {}
_POPULATED = False


def _populate() -> None:
    """Import the library's index modules and register every index."""
    global _POPULATED
    if _POPULATED:
        return
    _POPULATED = True
    import repro.baselines as baselines
    import repro.core as core

    for module in (core, baselines):
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, ANNIndex):
                _REGISTRY.setdefault(obj.__name__, obj)


def register_index(cls: Type[ANNIndex], name: Optional[str] = None) -> Type[ANNIndex]:
    """Register ``cls`` (usable as a decorator); returns ``cls``.

    Args:
        cls: the :class:`ANNIndex` subclass to make loadable.
        name: registry name; defaults to ``cls.__name__``.
    """
    if not (isinstance(cls, type) and issubclass(cls, ANNIndex)):
        raise TypeError(f"{cls!r} is not an ANNIndex subclass")
    _populate()
    _REGISTRY[name or cls.__name__] = cls
    return cls


def registry_name(cls: Type[ANNIndex]) -> str:
    """The name recorded in bundle manifests for ``cls``."""
    _populate()
    for name, registered in _REGISTRY.items():
        if registered is cls:
            return name
    return cls.__name__


def resolve_index_class(name: str) -> Type[ANNIndex]:
    """Look up a registry name; raises ``KeyError`` with choices if unknown."""
    _populate()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown index class {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def index_registry() -> Dict[str, Type[ANNIndex]]:
    """A copy of the current name -> class mapping."""
    _populate()
    return dict(_REGISTRY)


def index_names() -> List[str]:
    """Sorted registry names (convenience for CLIs and tests)."""
    _populate()
    return sorted(_REGISTRY)


class IndexSpec:
    """A picklable recipe for constructing an unfitted index.

    WAL directories record it as JSON (``durable.json``) so a full-log
    replay can rebuild the index anywhere, and the CLI's method table is
    a set of them.  The class may be given directly or as a registry
    name.

    Example:
        >>> spec = IndexSpec("LCCSLSH", dim=32, m=64, seed=0)
        >>> index = spec.build()
    """

    def __init__(self, index_cls: Union[str, type], **kwargs):
        if isinstance(index_cls, str):
            index_cls = resolve_index_class(index_cls)
        if not (isinstance(index_cls, type) and issubclass(index_cls, ANNIndex)):
            raise TypeError(f"{index_cls!r} is not an ANNIndex subclass")
        self.class_name = registry_name(index_cls)
        self.kwargs = dict(kwargs)

    def build(self) -> ANNIndex:
        """Construct a fresh, unfitted index from the recipe."""
        return resolve_index_class(self.class_name)(**self.kwargs)

    def to_manifest(self) -> dict:
        return {"class": self.class_name, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_manifest(cls, manifest: dict) -> "IndexSpec":
        kwargs = dict(manifest["kwargs"])
        # recorded by earlier builds; the knobs are gone (the store type
        # is chosen exactly at fit, and every merge runs inline)
        kwargs.pop("verify_dtype", None)
        kwargs.pop("compaction", None)
        return cls(manifest["class"], **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v!r}" for k, v in self.kwargs.items())
        return f"IndexSpec({self.class_name}{', ' if args else ''}{args})"
