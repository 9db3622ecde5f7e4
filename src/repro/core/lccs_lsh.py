"""Single-probe LCCS-LSH (paper §4.1).

Indexing: hash every object with ``m`` i.i.d. LSH functions into a hash
string ``H(o)``; build a Circular Shift Array over the strings.  Query:
run a ``(lambda + k - 1)``-LCCS search of ``H(q)`` and verify candidates
against the raw vectors, returning the closest ``k``.

The only structural tuning knob is ``m`` (the paper's selling point);
``num_candidates`` (the paper's ``lambda``) trades accuracy for query
time and defaults to a small multiple of ``sqrt(n)``.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.base import ANNIndex
from repro.core.csa import CircularShiftArray
from repro.hashes import HashFamily, make_family
from repro.kernels import verify as kernel_verify

__all__ = ["LCCSLSH"]

#: Below this many queries the reference (NumPy) backend answers a batch
#: by looping the scalar path: its lock-step kernels pay a fixed cost per
#: call (a batch of one: 21 ms against 11 ms scalar at n=10k, m=64; 15 ms
#: against 1 ms at n=2k, m=16) and overtake the loop between 12 and 16
#: queries at both sizes.  Compiled backends have no such cost — there a
#: lone query *is* a batch of one (~0.1 ms against 2.3 ms scalar on
#: ``cext`` at n=10k, m=64).
SCALAR_CROSSOVER = 12


class LCCSLSH(ANNIndex):
    """Single-probe LCCS-LSH index.

    Args:
        dim: vector dimensionality.
        m: hash-string length (number of LSH functions); the paper sweeps
            ``m in {8, 16, ..., 512}``.
        metric: distance metric; any metric with an LSH family
            (``euclidean``, ``angular``, ``hamming``, ``jaccard``).
        family: optional pre-built :class:`HashFamily`; overrides
            ``metric``-based construction (this is what makes the scheme
            LSH-family-independent).
        w: bucket width when the random projection family is built.
        cp_dim: cross-polytope dimension when that family is built.
        seed: RNG seed.
        backend: kernel backend name (``"numpy"``/``"cext"``,
            see :mod:`repro.kernels`); ``None`` applies the CLI/env
            precedence chain.  Every backend answers byte-identically.
        verify_dtype: ``"float64"`` (default, exact) or ``"float32"``
            (opt-in: candidates are screened with reduced-precision
            distances and the surviving top-``k`` margin re-ranked with
            the exact float64 kernel).

    Example:
        >>> import numpy as np
        >>> from repro import LCCSLSH
        >>> rng = np.random.default_rng(0)
        >>> data = rng.normal(size=(1000, 32))
        >>> index = LCCSLSH(dim=32, m=32, metric="euclidean", seed=0).fit(data)
        >>> ids, dists = index.query(data[0], k=5)
    """

    name = "LCCS-LSH"

    def __init__(
        self,
        dim: int,
        m: int = 64,
        metric: str = "euclidean",
        family: Optional[HashFamily] = None,
        w: float = 4.0,
        cp_dim: int = 32,
        seed: Optional[int] = None,
        backend: Optional[str] = None,
        verify_dtype: str = "float64",
    ):
        super().__init__(dim, metric, seed)
        if m <= 1:
            raise ValueError("hash-string length m must exceed 1")
        if verify_dtype not in ("float64", "float32"):
            raise ValueError(
                f"verify_dtype must be 'float64' or 'float32', got {verify_dtype!r}"
            )
        self.m = int(m)
        self.backend = backend
        self.verify_dtype = verify_dtype
        if family is not None:
            if family.dim != dim or family.m != m:
                raise ValueError(
                    f"family (dim={family.dim}, m={family.m}) does not match "
                    f"index (dim={dim}, m={m})"
                )
            self.family = family
            self.metric = family.metric
        else:
            self.family = make_family(
                metric, dim, m, seed=seed, w=w, cp_dim=cp_dim
            )
        self.csa: Optional[CircularShiftArray] = None
        self.hash_strings: Optional[np.ndarray] = None

    # ------------------------------------------------------------------

    def _fit(self, data: np.ndarray) -> None:
        self.csa = CircularShiftArray(self.family.hash(data), backend=self.backend)
        self.hash_strings = self.csa.strings
        # Verification caches are keyed on the data array; drop stale ones.
        self._kv_packed = None
        self._kv_data32 = None

    @property
    def kernel_backend(self) -> str:
        """Name of the kernel backend currently answering queries."""
        if self.csa is not None:
            return self.csa.backend_name
        from repro.kernels import resolve_backend

        return resolve_backend(self.backend).name

    def set_kernel_backend(self, backend: Optional[str]) -> str:
        """Switch kernel backends in place; returns the resolved name.

        Cheap (no rebuild), which is how benchmarks compare backends on
        one index and how operators can force ``"numpy"`` on a machine
        whose compiled backend misbehaves.
        """
        self.backend = backend
        if self.csa is not None:
            return self.csa.set_backend(backend)
        from repro.kernels import resolve_backend

        return resolve_backend(backend).name

    def default_candidates(self, k: int) -> int:
        """Default ``lambda``: ``ceil(sqrt(n)) + k - 1``, clamped to n.

        Theorem 5.1's exact ``lambda`` needs ``p1``/``p2`` for a target
        radius; absent one, ``O(sqrt(n))`` matches the paper's
        ``alpha = 1`` regime for ``rho = 1/2``.
        """
        return min(self.n, int(math.ceil(math.sqrt(self.n))) + k - 1)

    def _query(
        self, q: np.ndarray, k: int, num_candidates: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.csa._backend.compiled:
            # The engine picks: compiled kernels make a batch of one the
            # cheap way to answer a lone query.
            return self._batch_query(q[None, :], k, num_candidates)[0]
        if num_candidates is None:
            num_candidates = self.default_candidates(k)
        if num_candidates <= 0:
            raise ValueError("num_candidates must be positive")
        # The paper's (lambda + k - 1)-LCCS search.
        budget = min(self.n, num_candidates + k - 1)
        t0 = time.perf_counter()
        query_string = self.family.hash(q)
        t1 = time.perf_counter()
        bounds = self.csa.search_all_shifts(query_string)
        t2 = time.perf_counter()
        qd = self.csa.query_rotations(query_string)
        cand_ids, lccs_lens = self.csa.merge_candidates(qd, bounds, budget)
        t3 = time.perf_counter()
        self.last_stats["max_lccs"] = int(lccs_lens[0]) if len(lccs_lens) else 0
        out = self._verify(cand_ids, q, k)
        t4 = time.perf_counter()
        self._record_stages(t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        return out

    def _batch_query(
        self, queries: np.ndarray, k: int, num_candidates: Optional[int] = None
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Vectorised batch path: one fused hash, one batched CSA search.

        The whole query matrix is hashed with a single family call, the
        CSA answers every query's k-LCCS search in one backend call, and
        all candidates are verified through one fused distance kernel.
        Per query the results are identical to the scalar :meth:`_query`
        — which is what the reference backend loops below
        :data:`SCALAR_CROSSOVER` queries.
        """
        if not self.csa._backend.compiled and len(queries) < SCALAR_CROSSOVER:
            return super()._batch_query(
                queries, k, num_candidates=num_candidates
            )
        if num_candidates is None:
            num_candidates = self.default_candidates(k)
        if num_candidates <= 0:
            raise ValueError("num_candidates must be positive")
        budget = min(self.n, num_candidates + k - 1)
        t0 = time.perf_counter()
        query_strings = self.family.hash(queries)
        t1 = time.perf_counter()
        flat_ids, flat_lens, offsets, search_s = self.csa._batch_k_lccs_flat(
            query_strings, budget
        )
        t3 = time.perf_counter()
        # each query's first string is its longest LCCS
        firsts = offsets[:-1][offsets[1:] > offsets[:-1]]
        self.last_stats["max_lccs"] = float(flat_lens[firsts].sum())
        out = kernel_verify.verify_flat(
            self, self.csa._backend, flat_ids, offsets, queries, k
        )
        t4 = time.perf_counter()
        self._record_stages(t1 - t0, search_s, t3 - t1 - search_s, t4 - t3)
        return out

    def _record_stages(
        self, hash_s: float, search_s: float, merge_s: float, verify_s: float
    ) -> None:
        """Accumulate per-stage wall-clock into ``last_stats``.

        Keys are ``stage_{hash,search,merge,verify}_s``; the profiler
        and benchmark reports read them to attribute backend speedups
        per stage.
        """
        for key, val in (
            ("stage_hash_s", hash_s),
            ("stage_search_s", search_s),
            ("stage_merge_s", merge_s),
            ("stage_verify_s", verify_s),
        ):
            self.last_stats[key] = self.last_stats.get(key, 0.0) + float(val)

    def _verify_batch(
        self, candidate_ids_per_query, queries: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Backend-aware verification (packed popcount / fused gather).

        CSA merges emit duplicate-free candidate lists, which is what
        lets :func:`repro.kernels.verify.verify_batch` skip the
        re-unique pass; results stay byte-identical to the base
        implementation for every backend.
        """
        backend = self.csa._backend if self.csa is not None else None
        return kernel_verify.verify_batch(
            self, backend, candidate_ids_per_query, queries, k
        )

    # ------------------------------------------------------------------

    def theoretical_candidates(self, R: float, c: float) -> int:
        """Theorem 5.1's candidate budget ``lambda`` for an (R, c)-NNS.

        Uses the family's closed-form collision probabilities at radii
        ``R`` (-> p1) and ``cR`` (-> p2); the returned budget guarantees
        success probability >= 1/4.  Clamped to ``[1, n]``.
        """
        from repro.theory import theorem51_lambda

        if c <= 1.0:
            raise ValueError("approximation ratio c must exceed 1")
        p1 = self.family.collision_probability(R)
        p2 = self.family.collision_probability(c * R)
        if not 0.0 < p2 < p1 < 1.0:
            # Degenerate radii (e.g. both collide almost surely): verify
            # everything, which is always sound.
            return max(1, self.n)
        lam = theorem51_lambda(self.m, max(2, self.n), p1, p2)
        return int(min(max(1.0, lam), self.n))

    def query_rc(
        self, q: np.ndarray, R: float, c: float
    ) -> Optional[Tuple[int, float]]:
        """Answer the (R, c)-NNS decision problem (paper Definition 2.2).

        Returns ``(id, distance)`` of some point within ``cR`` of ``q``,
        or ``None``.  Per Theorem 5.1, if a point within ``R`` exists the
        answer is non-None with probability at least 1/4 when verifying
        the theoretical ``lambda`` candidates (use repetitions to boost).
        """
        if R <= 0.0:
            raise ValueError("search radius R must be positive")
        lam = self.theoretical_candidates(R, c)
        ids, dists = self.query(q, k=1, num_candidates=lam)
        if len(ids) and dists[0] <= c * R:
            return int(ids[0]), float(dists[0])
        return None

    def index_size_bytes(self) -> int:
        if self.csa is None:
            return self.family.size_bytes()
        return self.family.size_bytes() + self.csa.size_bytes()

    # ------------------------------------------------------------------
    # Native persistence.  The CSA arrays are serialized through the
    # CSA's own `export_arrays` codepath (nested under a ``csa.``
    # prefix), so loading reconstructs the index without re-sorting —
    # with ``load_index(path, mmap=True)`` the whole index is servable
    # in milliseconds from read-only memory maps.  The hash strings are
    # not stored separately: they are exactly the left half of the
    # CSA's ``doubled`` array.
    # ------------------------------------------------------------------

    def _export_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        family_meta, family_arrays = self.family.export_state()
        state = {
            "m": self.m,
            "family": family_meta,
            "backend": self.backend,
            "verify_dtype": self.verify_dtype,
        }
        arrays = {f"family.{key}": val for key, val in family_arrays.items()}
        if self._data is not None:
            arrays["data"] = self._data
        if self.csa is not None:
            arrays.update(
                {f"csa.{key}": val for key, val in self.csa.export_arrays().items()}
            )
        return state, arrays

    @classmethod
    def _import_state(
        cls, manifest: dict, arrays: Dict[str, np.ndarray]
    ) -> "LCCSLSH":
        from repro.hashes import HashFamily as _HashFamily

        state = manifest["state"]
        family = _HashFamily.from_state(
            state["family"],
            {
                key[len("family."):]: val
                for key, val in arrays.items()
                if key.startswith("family.")
            },
        )
        index = cls(
            dim=int(manifest["dim"]),
            m=int(state["m"]),
            family=family,
            seed=manifest["seed"],
            **cls._extra_init_kwargs(state),
        )
        index.metric = manifest["metric"]
        if "data" in arrays:
            index._data = arrays["data"]
        csa_arrays = {
            key[len("csa."):]: val
            for key, val in arrays.items()
            if key.startswith("csa.")
        }
        if csa_arrays:
            index.csa = CircularShiftArray.from_arrays(
                csa_arrays, source="<csa>", backend=index.backend
            )
            index.hash_strings = index.csa.strings
        index._kv_packed = None
        index._kv_data32 = None
        return index

    @classmethod
    def _extra_init_kwargs(cls, state: dict) -> dict:
        """Constructor kwargs subclasses add on import (hook for MP)."""
        from repro.kernels import persisted_backend

        return {
            "backend": persisted_backend(state.get("backend")),
            "verify_dtype": state.get("verify_dtype", "float64"),
        }
