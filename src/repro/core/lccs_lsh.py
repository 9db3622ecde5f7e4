"""Single-probe LCCS-LSH (paper §4.1).

Indexing: hash every object with ``m`` i.i.d. LSH functions into a hash
string ``H(o)``; build a Circular Shift Array over the strings.  Query:
run a ``(lambda + k - 1)``-LCCS search of ``H(q)`` and verify candidates
against the raw vectors, returning the closest ``k``.

The only structural tuning knob is ``m`` (the paper's selling point);
``num_candidates`` (the paper's ``lambda``) trades accuracy for query
time and defaults to a small multiple of ``sqrt(n)``.

Multi-probe LCCS-LSH (paper §4.2) is the query-time ``n_probes``
argument over the same index: above 1, Algorithm 3's perturbation
vectors (:mod:`repro.core.perturbation`, the paper's ``MAX_GAP = 2``)
re-search only the shifts whose match window covers a modified
position, and every probe feeds the one merge shared with the
unperturbed search, so candidates are verified best-first and never
twice.

Queries run on the compiled engine (:mod:`repro.kernels`), where a lone
query is a batch of one; the scalar path (``csa.search_all_shifts`` /
``merge_candidates`` / ``ANNIndex._verify``) is the oracle it matches
byte for byte, and answers instead wherever the engine cannot be built.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.base import ANNIndex
from repro.core.csa import CircularShiftArray
from repro.core.perturbation import generate_perturbation_vectors
from repro.core.store import check_store, narrow_store
from repro.hashes import HashFamily, make_family
from repro.kernels import verify as kernel_verify

__all__ = ["LCCSLSH", "affected_shifts", "check_probes"]


def check_probes(n_probes) -> int:
    """The query-time probe count as an int, or ``ValueError``."""
    if isinstance(n_probes, (bool, np.bool_)) or not isinstance(
        n_probes, (int, np.integer)
    ) or n_probes < 1:
        raise ValueError(f"n_probes must be an integer >= 1, got {n_probes!r}")
    return int(n_probes)


def affected_shifts(positions: Tuple[int, ...], reach: np.ndarray) -> List[int]:
    """Shifts whose match window covers any modified position.

    ``reach[s] = max(len_l, len_u)`` from the unperturbed search; a
    probe can only change the outcome at shift ``s`` if some modified
    position ``p`` satisfies ``(p - s) mod m <= reach[s]``.
    """
    shifts = np.arange(len(reach))
    hit = np.zeros(len(reach), dtype=bool)
    for p in positions:
        hit |= (p - shifts) % len(reach) <= reach
    return np.flatnonzero(hit).tolist()


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
        backend: ``None`` or ``"cext"``, which insists on the compiled
            engine (``RuntimeError`` where it cannot be built); selects
            nothing else — see :func:`repro.kernels.check_backend`.

    The fitted vectors are kept in the narrowest type that holds them
    exactly (:func:`repro.core.store.narrow_store`: SIFT-like integers
    0..255 take one byte each); distances are computed on their float64
    values, so answers do not depend on it.

    Example:
        >>> import numpy as np
        >>> from repro import LCCSLSH
        >>> rng = np.random.default_rng(0)
        >>> data = rng.normal(size=(1000, 32))
        >>> index = LCCSLSH(dim=32, m=32, metric="euclidean", seed=0).fit(data)
        >>> ids, dists = index.query(data[0], k=5)
        >>> ids, dists = index.query(data[0], k=5, n_probes=33)  # MP-LCCS-LSH
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
    ):
        super().__init__(dim, metric, seed)
        if m <= 1:
            raise ValueError("hash-string length m must exceed 1")
        kernels.check_backend(backend)
        self.m = int(m)
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

    # ------------------------------------------------------------------

    def _fit(self, data: np.ndarray) -> None:
        self.csa = CircularShiftArray(self.family.hash(data))
        self._data = narrow_store(data)
        # The packed-bits cache is keyed on the data array; drop it.
        self._kv_packed = None

    @property
    def hash_strings(self) -> Optional[np.ndarray]:
        """The ``(n, m)`` int64 hash strings, decoded from the CSA's codes
        on each access (``None`` before fit)."""
        return None if self.csa is None else self.csa.strings

    @property
    def kernel_backend(self) -> str:
        """``"cext"`` when the engine answers queries, else ``"scalar"``."""
        engine = kernels.engine() if self.csa is None else self.csa._engine
        return "scalar" if engine is None else engine.name

    def default_candidates(self, k: int) -> int:
        """Default ``lambda``: ``ceil(sqrt(n)) + k - 1``, clamped to n.

        Theorem 5.1's exact ``lambda`` needs ``p1``/``p2`` for a target
        radius; absent one, ``O(sqrt(n))`` matches the paper's
        ``alpha = 1`` regime for ``rho = 1/2``.
        """
        return min(self.n, int(math.ceil(math.sqrt(self.n))) + k - 1)

    def _budget(self, k: int, num_candidates: Optional[int]) -> int:
        """The paper's ``(lambda + k - 1)``-LCCS search budget."""
        if num_candidates is None:
            num_candidates = self.default_candidates(k)
        if num_candidates <= 0:
            raise ValueError("num_candidates must be positive")
        return min(self.n, num_candidates + k - 1)

    def _probes(self, n_probes) -> int:
        n_probes = check_probes(n_probes)
        if n_probes > 1 and not self.family.supports_probing:
            raise ValueError(
                f"{type(self.family).__name__} does not expose multi-probe "
                "alternatives; query it with n_probes=1"
            )
        return n_probes

    def _query(
        self,
        q: np.ndarray,
        k: int,
        num_candidates: Optional[int] = None,
        n_probes: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.csa._engine is not None:
            # On the engine a batch of one is the cheap way to answer a
            # lone query.
            return self._batch_query(q[None, :], k, num_candidates, n_probes)[0]
        budget = self._budget(k, num_candidates)
        n_probes = self._probes(n_probes)
        if n_probes > 1:
            return self._probe_query(q, k, budget, n_probes)
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
        self,
        queries: np.ndarray,
        k: int,
        num_candidates: Optional[int] = None,
        n_probes: int = 1,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Batch path: one fused hash, one engine call per stage.

        The whole query matrix is hashed with a single family call, the
        CSA answers every query's k-LCCS search in one engine call, and
        all candidates are verified through one fused distance kernel.
        Per query the results are identical to the scalar :meth:`_query`
        (without an engine the CSA and verification loop it).
        """
        budget = self._budget(k, num_candidates)
        n_probes = self._probes(n_probes)
        if n_probes > 1:
            return self._batch_probe_query(queries, k, budget, n_probes)
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
            self, self.csa._engine, flat_ids, offsets, queries, k
        )
        t4 = time.perf_counter()
        self._record_stages(t1 - t0, search_s, t3 - t1 - search_s, t4 - t3)
        return out

    # ------------------------------------------------------------------
    # Multi-probe (paper §4.2): n_probes > 1
    # ------------------------------------------------------------------

    def _probe_candidates(
        self, probed: list, bounds: list, budget: int, n_probes: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Algorithm 3 over a batch: ``(ids, lccs_lengths)`` per query.

        ``probed[qi]`` is the query's ``(codes, alternatives)`` and
        ``bounds[qi]`` its unperturbed :class:`ShiftBounds` per shift.
        Each later probe re-searches only the shifts whose match window
        covers a modified position; every such search across the batch
        runs as one lock-step bisection, and each query's probes feed
        the one merge heap of its unperturbed search.
        """
        shifts: list = []
        qds: list = []
        owner: list = []
        for qi, ((codes, alternatives), qb) in enumerate(zip(probed, bounds)):
            reach = np.array([max(b.len_lower, b.len_upper) for b in qb])
            alt_codes = [a[0] for a in alternatives]
            deltas = generate_perturbation_vectors(
                [a[1] for a in alternatives], n_probes
            )
            for delta in itertools.islice(deltas, 1, None):  # 0: unperturbed
                modified = codes.copy()
                for pos, j in delta:
                    modified[pos] = alt_codes[pos][j]
                qd = self.csa.query_rotations(modified)
                affected = affected_shifts(tuple(p for p, _ in delta), reach)
                shifts += affected
                qds += [qd] * len(affected)
                owner += [qi] * len(affected)
        extra: List[list] = [[] for _ in probed]
        if shifts:
            q_rots = np.stack([qd[s : s + self.m] for s, qd in zip(shifts, qds)])
            found = self.csa.batch_binary_search(np.array(shifts), q_rots)
            for qi, s, qd, b in zip(owner, shifts, qds, found):
                if b.pos_lower >= 0:
                    extra[qi].append((b.len_lower, s, b.pos_lower, -1, qd))
                if b.pos_upper < self.n:
                    extra[qi].append((b.len_upper, s, b.pos_upper, +1, qd))
        self.last_stats["probes"] = float(n_probes) * len(probed)
        self.last_stats["probe_searches"] = float(len(shifts))
        return [
            self.csa.merge_candidates(
                self.csa.query_rotations(codes), qb, budget, extra_entries=ex
            )
            for (codes, _), qb, ex in zip(probed, bounds, extra)
        ]

    def _probe_query(
        self, q: np.ndarray, k: int, budget: int, n_probes: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scalar multi-probe: the oracle and the no-engine path."""
        probed = self.family.query_alternatives(q)
        bounds = self.csa.search_all_shifts(probed[0])
        ((cand_ids, lccs_lens),) = self._probe_candidates(
            [probed], [bounds], budget, n_probes
        )
        self.last_stats["max_lccs"] = int(lccs_lens[0]) if len(lccs_lens) else 0
        return self._verify(cand_ids, q, k)

    def _batch_probe_query(
        self, queries: np.ndarray, k: int, budget: int, n_probes: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Batched multi-probe, identical per query to :meth:`_probe_query`:
        probe 0 of every query is one engine search, and candidates are
        verified with one fused kernel."""
        t0 = time.perf_counter()
        probed = [self.family.query_alternatives(q) for q in queries]
        codes = np.array([c for c, _ in probed], dtype=np.int64)
        t1 = time.perf_counter()
        arrays = self.csa.batch_search_all_shifts(codes.reshape(-1, self.m))
        bounds = [
            self.csa._bounds_list(a[qi] for a in arrays)
            for qi in range(len(queries))
        ]
        t2 = time.perf_counter()
        merged = self._probe_candidates(probed, bounds, budget, n_probes)
        t3 = time.perf_counter()
        self.last_stats["max_lccs"] = float(
            sum(int(lens[0]) if len(lens) else 0 for _, lens in merged)
        )
        out = self._verify_batch([ids for ids, _ in merged], queries, k)
        t4 = time.perf_counter()
        self._record_stages(t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        return out

    def _record_stages(
        self, hash_s: float, search_s: float, merge_s: float, verify_s: float
    ) -> None:
        """Accumulate per-stage wall-clock into ``last_stats``.

        Keys are ``stage_{hash,search,merge,verify}_s``; the profiler
        and benchmark reports read them to attribute time per stage.
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
        """Engine verification (packed popcount / fused gather).

        CSA merges emit duplicate-free candidate lists, which is what
        lets :func:`repro.kernels.verify.verify_batch` skip the
        re-unique pass; results stay byte-identical to the base
        implementation, which answers without an engine.
        """
        engine = self.csa._engine if self.csa is not None else None
        return kernel_verify.verify_batch(
            self, engine, candidate_ids_per_query, queries, k
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
    # not stored separately: they decode from the CSA's codes.  Format v2
    # stored them as int64, which the CSA encodes once at load.  The
    # kernels read the CSA and the data in place, so loading checks that
    # they agree: one data row of ``dim`` values per CSA string, of the
    # index's length ``m``, in one of the store types (format 5; earlier
    # formats stored float64, served as it is).  A ``verify_dtype``
    # field that earlier builds recorded is ignored.
    # ------------------------------------------------------------------

    def _export_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        family_meta, family_arrays = self.family.export_state()
        state = {"m": self.m, "family": family_meta}
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
        from repro.serve.persistence import TYPED_STORE_VERSION

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
        )
        index.metric = manifest["metric"]
        csa_arrays = {
            key[len("csa."):]: val
            for key, val in arrays.items()
            if key.startswith("csa.")
        }
        if csa_arrays:
            adopt = CircularShiftArray.from_arrays
            if manifest.get("format_version") == 2:
                adopt = CircularShiftArray.from_int64_arrays
            index.csa = adopt(csa_arrays, source="<csa>")
            data = arrays.get("data")
            shape = (index.csa.n, index.dim)
            if data is None or data.shape != shape or index.csa.m != index.m:
                raise ValueError(
                    f"data {None if data is None else data.shape} and CSA "
                    f"(n={index.csa.n}, m={index.csa.m}) do not fit an "
                    f"index of dim={index.dim}, m={index.m}"
                )
            index._data = check_store(
                data, manifest["format_version"] >= TYPED_STORE_VERSION
            )
        index._kv_packed = None
        return index
