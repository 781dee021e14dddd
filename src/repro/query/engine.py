"""One kernel, many queries: the memoizing semi-local query engine.

The whole point of a *semi-local* kernel is that one O(mn) combing of a
pair answers every string-vs-substring, all-prefix and all-suffix score
for that pair (Def. 3.2/3.3), so at many-request scale the kernel — not
the score — is the thing worth caching. :class:`QueryEngine` is that
cache plus the query algebra on top:

- **two-level memoization** — an in-process LRU of live
  :class:`~repro.core.kernel.SemiLocalKernel` objects (the dominance
  counter is part of the cached value, so repeat queries skip even the
  counter build), backed by an optional
  :class:`~repro.checkpoint.store.KernelStore` in LRU cache mode
  (``max_bytes``) that persists permutations *and built counters*
  across processes — a disk hit deserializes the counter sidecar
  instead of re-running the O(n log n) construction;
- **the query ops** of :data:`~repro.query.catalog.QUERY_CATALOG` —
  ``lcs``, ``windowed_lcs``, ``all_prefix_scores``,
  ``all_suffix_scores``, ``substring_threshold_matches`` — each a
  *single batched* dominance probe (``count_many``) over the cached
  kernel instead of a Python loop of descents;
- **incremental append / prepend** (Theorems 3.4 + 3.5) —
  ``append(a, suffix, b)`` composes the cached ``P_{a,b}`` with a
  freshly combed ``P_{suffix,b}``; ``prepend(prefix, a, b)`` stacks a
  combed prefix block *above* the cached kernel. Both cache the
  composite, so a growing string reuses its existing kernel instead of
  recombing from scratch.

Kernels are keyed content-addressed under the canonical
:data:`QUERY_ALGORITHM` label: every combing algorithm produces the
*same* kernel permutation, so artifacts built by any backend (including
the serve tier's lockstep megabatches) are interchangeable cache
entries.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..alphabet import concat, encode
from ..core.compose import compose_vertical
from ..core.kernel import SemiLocalKernel
from ..errors import CheckpointCorruptionError, QueryError
from ..obs.metrics import inc as _metric_inc
from ..types import PermArray, Sequenceish
from .catalog import QUERY_OPS

__all__ = ["QUERY_ALGORITHM", "QueryEngine"]

#: Canonical store label for query-tier kernels. Deliberately
#: algorithm-agnostic: P_{a,b} is unique, so kernels combed by any
#: backend share cache entries.
QUERY_ALGORITHM = "semilocal-kernel"


class QueryEngine:
    """Compute (or fetch) a pair's semi-local kernel once, then serve
    many cheap queries off it.

    Parameters
    ----------
    store:
        Optional :class:`~repro.checkpoint.store.KernelStore` used as the
        second memoization level (construct it with ``max_bytes=...`` for
        LRU cache mode). ``None`` keeps everything in process memory.
    max_kernels:
        In-memory LRU capacity, counted in live kernels (each holds its
        permutation plus the dominance counter).
    comb:
        Combing algorithm ``(ca, cb) -> kernel`` for cache misses;
        defaults to the vectorized anti-diagonal iterative combing.
    multiply:
        Braid multiplication used by :meth:`append` / :meth:`prepend`
        compositions (default: the library's level-vectorized steady
        ant, :data:`~repro.core.steady_ant.steady_ant_multiply`).
    dense_threshold:
        Passed through to :class:`~repro.core.kernel.SemiLocalKernel` —
        kernels of order up to this use the O(1)-query dense counter.
    counter_kind:
        Force a dominance-counting structure (one of
        :data:`repro.core.dominance.COUNTER_KINDS`) for every kernel this
        engine wraps, instead of the size-based default (dense below the
        threshold, wavelet above). The ``REPRO_COUNTER`` environment
        variable overrides the default but not an explicit kind here.
    """

    def __init__(
        self,
        *,
        store=None,
        max_kernels: int = 64,
        comb=None,
        multiply=None,
        dense_threshold: int = 2048,
        counter_kind: str | None = None,
    ):
        if max_kernels <= 0:
            raise QueryError(f"max_kernels must be positive, got {max_kernels}")
        self.store = store
        self.max_kernels = int(max_kernels)
        if comb is None:
            from ..core.combing.iterative import iterative_combing_antidiag_simd as comb
        self._comb = comb
        if multiply is None:
            from ..core.steady_ant import steady_ant_multiply as multiply
        self._multiply = multiply
        self._dense_threshold = int(dense_threshold)
        self._counter_kind = counter_kind
        self._mem: "OrderedDict[str, SemiLocalKernel]" = OrderedDict()
        self._lock = threading.Lock()
        self.requests = 0
        self.kernel_hits = 0
        self.kernel_misses = 0
        self.kernel_builds = 0
        self.appends = 0
        self.prepends = 0

    # -- keys and cache levels -------------------------------------------

    def _encoded(self, a: Sequenceish, b: Sequenceish):
        return encode(a), encode(b)

    def key_of(self, a: Sequenceish, b: Sequenceish) -> str:
        """Content-addressed cache key of the pair (canonical
        :data:`QUERY_ALGORITHM` label, so it is backend-independent)."""
        from ..checkpoint.store import kernel_key

        ca, cb = self._encoded(a, b)
        return kernel_key(ca, cb, QUERY_ALGORITHM)

    def cached(self, a: Sequenceish, b: Sequenceish) -> bool:
        """True when the pair's kernel is already in the memory LRU or
        the backing store (no combing needed to answer queries)."""
        key = self.key_of(a, b)
        with self._lock:
            if key in self._mem:
                return True
        return self.store is not None and self.store.contains(key)

    def _remember(self, key: str, kern: SemiLocalKernel) -> None:
        with self._lock:
            self._mem[key] = kern
            self._mem.move_to_end(key)
            while len(self._mem) > self.max_kernels:
                self._mem.popitem(last=False)

    def _mem_get(self, key: str) -> SemiLocalKernel | None:
        with self._lock:
            kern = self._mem.get(key)
            if kern is not None:
                self._mem.move_to_end(key)  # touch
            return kern

    # -- kernel acquisition ----------------------------------------------

    def kernel(self, a: Sequenceish, b: Sequenceish) -> SemiLocalKernel:
        """The pair's semi-local kernel: memory LRU, else backing store,
        else one fresh combing (then cached at both levels)."""
        ca, cb = self._encoded(a, b)
        key = self.key_of(ca, cb)
        kern = self._mem_get(key)
        if kern is not None:
            self._count_hit()
            return kern
        if self.store is not None:
            try:
                perm, counter_bytes = self.store.get_with_counter(key)
            except CheckpointCorruptionError:
                self.store.discard(key)
                perm, counter_bytes = None, None
            if perm is not None:
                counter = None
                if counter_bytes is not None:
                    from ..core.dominance import counter_from_bytes

                    try:
                        counter = counter_from_bytes(counter_bytes)
                    except ValueError:
                        counter = None  # rebuild below; never trust a bad sidecar
                kern = self._wrap(perm, ca.size, cb.size, counter=counter)
                self._remember(key, kern)
                self._count_hit()
                return kern
        self._count_miss()
        perm = np.asarray(self._comb(ca, cb), dtype=np.int64)
        with self._lock:
            self.kernel_builds += 1
        _metric_inc("query.kernel_builds", 1)
        return self._install(key, perm, ca.size, cb.size)

    def install_kernel(
        self, a: Sequenceish, b: Sequenceish, perm: PermArray
    ) -> SemiLocalKernel:
        """Adopt a kernel built elsewhere (e.g. by a serve-tier lockstep
        megabatch) into both cache levels; returns the wrapped kernel."""
        ca, cb = self._encoded(a, b)
        return self._install(self.key_of(ca, cb), np.asarray(perm, dtype=np.int64),
                             ca.size, cb.size)

    def _wrap(
        self, perm: PermArray, m: int, n: int, counter=None
    ) -> SemiLocalKernel:
        return SemiLocalKernel(
            perm,
            m,
            n,
            validate=False,
            dense_threshold=self._dense_threshold,
            counter_kind=self._counter_kind,
            counter=counter,
        )

    def _install(self, key: str, perm: PermArray, m: int, n: int) -> SemiLocalKernel:
        kern = self._wrap(perm, m, n)
        self._remember(key, kern)
        if self.store is not None:
            self.store.put(
                key,
                perm,
                algorithm=QUERY_ALGORITHM,
                m=m,
                n=n,
                counter=kern.export_counter(),
            )
        return kern

    def _count_hit(self) -> None:
        with self._lock:
            self.kernel_hits += 1
        _metric_inc("query.kernel_hits", 1)

    def _count_miss(self) -> None:
        with self._lock:
            self.kernel_misses += 1
        _metric_inc("query.kernel_misses", 1)

    # -- query ops --------------------------------------------------------

    def lcs(self, a: Sequenceish, b: Sequenceish) -> int:
        """Global LCS score of the pair, off the cached kernel."""
        self._count_request()
        return self.kernel(a, b).lcs_whole()

    def windowed_lcs(
        self, a: Sequenceish, b: Sequenceish, window: int
    ) -> np.ndarray:
        """``out[l] = LCS(a, b[l:l+window))`` for every window of ``b``.

        One cached kernel, ``n - window + 1`` dominance counts. Raises
        :class:`~repro.errors.QueryError` when *window* does not fit in
        ``b``.
        """
        self._count_request()
        kern = self.kernel(a, b)
        window = int(window)
        if window <= 0 or window > kern.n:
            raise QueryError(
                f"window {window} outside [1, {kern.n}] for |b| = {kern.n}"
            )
        ls = np.arange(kern.n - window + 1, dtype=np.int64)
        return kern.string_substring_many(ls, ls + window)

    def all_prefix_scores(self, a: Sequenceish, b: Sequenceish) -> np.ndarray:
        """``out[r] = LCS(a, b[:r))`` for every prefix of ``b``."""
        self._count_request()
        kern = self.kernel(a, b)
        rs = np.arange(kern.n + 1, dtype=np.int64)
        return kern.string_substring_many(np.zeros_like(rs), rs)

    def all_suffix_scores(self, a: Sequenceish, b: Sequenceish) -> np.ndarray:
        """``out[l] = LCS(a, b[l:))`` for every suffix of ``b``."""
        self._count_request()
        kern = self.kernel(a, b)
        ls = np.arange(kern.n + 1, dtype=np.int64)
        return kern.string_substring_many(ls, np.full_like(ls, kern.n))

    def substring_threshold_matches(
        self,
        a: Sequenceish,
        b: Sequenceish,
        theta: float,
        window: int | None = None,
    ) -> list[tuple[int, int, int]]:
        """Approximate matching: non-overlapping length-*window* windows
        of ``b`` scoring at least ``ceil(theta * window)`` against ``a``
        (``window`` defaults to ``len(a)``), as ``(start, end, score)``
        triples — :func:`repro.apps.approximate_matching.find_matches`
        running over the cached kernel.
        """
        self._count_request()
        if not (0.0 < theta <= 1.0):
            raise QueryError(f"theta must be in (0, 1], got {theta}")
        from ..apps.approximate_matching import find_matches

        ca, cb = self._encoded(a, b)
        kern = self.kernel(ca, cb)
        window = ca.size if window is None else int(window)
        if window <= 0 or window > kern.n:
            raise QueryError(
                f"window {window} outside [1, {kern.n}] for |b| = {kern.n}"
            )
        min_score = math.ceil(theta * window)
        matches = find_matches(ca, cb, min_score, window=window, kernel=kern)
        return [(m.start, m.end, m.score) for m in matches]

    def append(
        self, a: Sequenceish, suffix: Sequenceish, b: Sequenceish
    ) -> SemiLocalKernel:
        """Kernel of ``(a + suffix, b)`` by Theorem 3.4 composition.

        Reuses the cached ``P_{a,b}`` (building it on a true cold start),
        combs only the suffix block, composes, and caches the composite
        under the extended pair's key — so every later query on the
        extended pair is a plain hit.
        """
        return self._extend(a, suffix, b, top=False)

    def prepend(
        self, prefix: Sequenceish, a: Sequenceish, b: Sequenceish
    ) -> SemiLocalKernel:
        """Kernel of ``(prefix + a, b)`` — the Theorem 3.5 mirror of
        :meth:`append`.

        Vertical composition stacks blocks top-down along ``a``, and the
        *prefix* of the concatenated string is the *top* block — so
        prepending combs only ``P_{prefix,b}`` and composes it **above**
        the cached ``P_{a,b}``. The composite is cached under the
        extended pair's key, so a string growing at the front reuses its
        existing kernel just like :meth:`append` does at the back.
        """
        return self._extend(a, prefix, b, top=True)

    def _extend(self, a, block, b, *, top: bool) -> SemiLocalKernel:
        """Shared body of :meth:`append` (``top=False``: *block* goes
        below ``a``) and :meth:`prepend` (``top=True``: above ``a``)."""
        self._count_request()
        ca, cb = self._encoded(a, b)
        cx = encode(block)
        if cx.size == 0:
            return self.kernel(ca, cb)
        extended = concat([cx, ca] if top else [ca, cx])
        ext_key = self.key_of(extended, cb)
        kern = self._mem_get(ext_key)
        if kern is not None:
            self._count_hit()
            return kern
        base = self.kernel(ca, cb)
        upper = (np.asarray(self._comb(cx, cb), dtype=np.int64), cx.size)
        lower = (base.kernel, base.m)
        if not top:
            upper, lower = lower, upper
        composite = compose_vertical(
            upper[0], lower[0], upper[1], lower[1], cb.size, self._multiply
        )
        counter = "prepends" if top else "appends"
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)
        _metric_inc(f"query.{counter}", 1)
        return self._install(ext_key, composite, extended.size, cb.size)

    # -- dispatch ----------------------------------------------------------

    def answer(self, op: str, a: Sequenceish, b: Sequenceish, **params):
        """Dispatch one catalog op by name (the serve tier's entry point).

        Array results come back as plain lists so they serialize straight
        into the wire protocol; ``append`` and ``prepend`` answer with
        the extended pair's global LCS score (the composite kernel is
        cached as a side effect).
        """
        if op not in QUERY_OPS:
            raise QueryError(f"unknown query op {op!r}; available: {list(QUERY_OPS)}")
        if op == "lcs":
            return int(self.lcs(a, b))
        if op == "windowed_lcs":
            return [int(s) for s in self.windowed_lcs(a, b, params["window"])]
        if op == "all_prefix_scores":
            return [int(s) for s in self.all_prefix_scores(a, b)]
        if op == "all_suffix_scores":
            return [int(s) for s in self.all_suffix_scores(a, b)]
        if op == "substring_threshold_matches":
            return [
                list(t)
                for t in self.substring_threshold_matches(
                    a, b, params["theta"], params.get("window")
                )
            ]
        if op == "append":
            return int(self.append(a, params["suffix"], b).lcs_whole())
        # prepend
        return int(self.prepend(params["prefix"], a, b).lcs_whole())

    def _count_request(self) -> None:
        with self._lock:
            self.requests += 1
        _metric_inc("query.requests", 1)

    # -- introspection -----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Kernel-level hit rate: hits / (hits + misses), 0.0 when idle."""
        with self._lock:
            looked = self.kernel_hits + self.kernel_misses
            return self.kernel_hits / looked if looked else 0.0

    def stats(self) -> dict:
        """Requests, hit/miss/build/append/prepend counters, hit rate,
        and the backing store's own counters when one is attached."""
        with self._lock:
            out = {
                "requests": self.requests,
                "kernel_hits": self.kernel_hits,
                "kernel_misses": self.kernel_misses,
                "kernel_builds": self.kernel_builds,
                "appends": self.appends,
                "prepends": self.prepends,
                "memory_kernels": len(self._mem),
            }
        out["hit_rate"] = round(self.hit_rate, 6)
        if self.store is not None:
            out["store"] = self.store.stats()
        return out
