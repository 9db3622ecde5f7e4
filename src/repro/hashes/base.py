"""Abstract LSH family interface.

The LCCS framework is LSH-family-independent (paper §1): it only needs a
family that maps a vector to ``m`` integer hash values (one hash string)
and, for multi-probe schemes, per-position *alternative* hash values with
scores (lower score = more promising perturbation, as in Multi-Probe LSH
and FALCONN).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["HashFamily", "PositionAlternatives", "bucket_codes"]

#: attributes handled explicitly by ``export_state`` / ``from_state``
_STATE_SPECIAL = ("dim", "m", "seed", "rng")

#: alternatives of one position: parallel (codes, scores), sorted by score
PositionAlternatives = Tuple[np.ndarray, np.ndarray]

#: bucket codes are int64: every ``floor(raw / w)`` must lie below this
#: in magnitude (a float64 constant, exact)
_CODE_BOUND = 2.0**63


def bucket_codes(raw: np.ndarray, w: float) -> np.ndarray:
    """``floor(raw / w)`` as int64 bucket codes, or ``ValueError``.

    A finite vector can still project past int64 (``1e200`` per
    coordinate) or overflow to infinity; casting such a value yields an
    arbitrary code, so the vector would hash into some unrelated bucket.
    """
    codes = np.floor(raw / w)
    if not (np.abs(codes) < _CODE_BOUND).all():  # also false for NaN
        raise ValueError(
            "vector cannot be hashed: a projection is non-finite or "
            "outside the int64 bucket range"
        )
    return codes.astype(np.int64)


class HashFamily(abc.ABC):
    """A collection of ``m`` i.i.d. LSH functions ``h_1..h_m``.

    Args:
        dim: input dimensionality.
        m: number of hash functions (= hash-string length).
        seed: RNG seed; the family is deterministic given the seed.
    """

    #: metric this family is locality-sensitive for
    metric: str = "euclidean"
    #: whether :meth:`query_alternatives` is implemented
    supports_probing: bool = False

    def __init__(self, dim: int, m: int, seed: Optional[int] = None):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if m <= 0:
            raise ValueError("m must be positive")
        self.dim = int(dim)
        self.m = int(m)
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def hash(self, data: np.ndarray) -> np.ndarray:
        """Hash strings for ``data``.

        Accepts ``(n, dim)`` (returns ``(n, m)`` int64) or a single
        ``(dim,)`` vector (returns ``(m,)``).
        """
        data = np.asarray(data, dtype=np.float64)
        single = data.ndim == 1
        if single:
            data = data[None, :]
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise ValueError(
                f"data shape {data.shape} incompatible with dim={self.dim}"
            )
        codes = self._hash_batch(data)
        return codes[0] if single else codes

    def query_alternatives(
        self, q: np.ndarray, max_alternatives: int = 8
    ) -> Tuple[np.ndarray, List[PositionAlternatives]]:
        """Hash string of ``q`` plus scored alternatives per position.

        Returns ``(codes, alts)`` where ``alts[i]`` is a pair of parallel
        arrays ``(alt_codes, alt_scores)`` for position ``i``, sorted by
        ascending score (the best perturbation first).  Scores are
        *incremental costs*: non-negative, relative to the unperturbed
        hash value, and additive across positions — the conventions the
        probing-sequence generators rely on.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support multi-probe alternatives"
        )

    def collision_probability(self, dist: float) -> float:
        """Closed-form ``Pr[h(o) = h(q)]`` at distance ``dist`` (if known)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form collision probability"
        )

    # ------------------------------------------------------------------

    def export_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Split the family into a JSON-safe meta dict and named arrays.

        Used by the native index persistence protocol
        (:mod:`repro.serve.persistence`): scalar parameters and the RNG
        state go into the manifest, drawn parameters (projections,
        offsets, seeds tables) into the bundle's ``.npy`` arrays.
        Families whose state is exactly "ndarray attributes + scalar
        attributes" — all of the built-in ones — need no per-class code.

        Raises ``NotImplementedError`` for families carrying state this
        generic split cannot represent; the owning index then cannot be
        saved as a bundle (``BundleError``).
        """
        meta: dict = {
            "family": type(self).__name__,
            "dim": self.dim,
            "m": self.m,
            "seed": self.seed,
            "rng_state": self.rng.bit_generator.state,
            "params": {},
        }
        arrays: Dict[str, np.ndarray] = {}
        for key, val in self.__dict__.items():
            if key in _STATE_SPECIAL:
                continue
            if isinstance(val, np.ndarray):
                arrays[key] = val
            elif isinstance(val, (bool, int, float, str)) or val is None:
                meta["params"][key] = val
            else:
                raise NotImplementedError(
                    f"{type(self).__name__}.{key} ({type(val).__name__}) is "
                    "not expressible in the JSON/.npy bundle format"
                )
        return meta, arrays

    @staticmethod
    def from_state(meta: dict, arrays: Dict[str, np.ndarray]) -> "HashFamily":
        """Rebuild a family from :meth:`export_state` output.

        Dispatches on ``meta['family']`` over the classes exported by
        :mod:`repro.hashes`; construction bypasses ``__init__`` (the
        drawn parameters are restored verbatim, not re-drawn).  The
        restored family must hash a ``dim``-vector to ``m`` codes, which
        index kernels read without bounds (``ValueError`` otherwise).
        """
        import repro.hashes as _hashes

        name = meta.get("family")
        cls = getattr(_hashes, str(name), None)
        if not (isinstance(cls, type) and issubclass(cls, HashFamily)):
            raise ValueError(f"unknown hash family {name!r}")
        fam = cls.__new__(cls)
        fam.dim = int(meta["dim"])
        fam.m = int(meta["m"])
        fam.seed = meta["seed"]
        fam.rng = np.random.default_rng(fam.seed)
        rng_state = meta.get("rng_state")
        if rng_state is not None:
            fam.rng.bit_generator.state = rng_state
        for key, val in meta.get("params", {}).items():
            setattr(fam, key, val)
        for key, val in arrays.items():
            setattr(fam, key, val)
        try:
            probe = fam.hash(np.ones(fam.dim)).shape
        except (ValueError, IndexError, TypeError) as exc:
            probe = exc
        if probe != (fam.m,):
            raise ValueError(
                f"{name} state does not hash dim={fam.dim} to m={fam.m} "
                f"codes: {probe}"
            )
        return fam

    @abc.abstractmethod
    def _hash_batch(self, data: np.ndarray) -> np.ndarray:
        """Hash a validated ``(n, dim)`` float batch into ``(n, m)`` int64."""

    def size_bytes(self) -> int:
        """Memory held by the family's parameters (projections etc.)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dim={self.dim}, m={self.m}, seed={self.seed})"
