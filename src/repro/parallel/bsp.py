"""Bulk-synchronous parallel (BSP) cost accounting.

The paper's parallel braid multiplication descends from Tiskin's BSP
algorithms [25] in Valiant's model [26]: an execution is a sequence of
*supersteps*, each costing ``w + g * h + l`` where ``w`` is the maximum
local computation of any processor, ``h`` the maximum number of words
any processor sends or receives (the *h-relation*), ``g`` the machine's
communication throughput cost per word, and ``l`` its barrier latency.

:class:`BSPCostModel` records supersteps (computation measured, data
volumes counted) and prices the run for any ``(p, g, l)`` machine — the
standard way BSP papers compare algorithms without running on every
machine. :func:`bsp_cost_of_steady_ant` instruments the task-parallel
steady ant and returns its BSP profile, separating the three terms the
paper's §4.2.1 discussion is about: parallel leaf work, sequential
combine work, and the data exchanged between levels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Superstep:
    """One recorded superstep: measured work + counted communication."""

    label: str
    comp_per_proc: tuple[float, ...]  # measured seconds per processor
    words_per_proc: tuple[int, ...]  # words sent+received per processor

    @property
    def w(self) -> float:
        return max(self.comp_per_proc) if self.comp_per_proc else 0.0

    @property
    def h(self) -> int:
        return max(self.words_per_proc) if self.words_per_proc else 0


@dataclass
class BSPCostModel:
    """Collects supersteps; prices them for arbitrary (g, l)."""

    p: int
    supersteps: list[Superstep] = field(default_factory=list)

    def record(self, label: str, comp: Sequence[float], words: Sequence[int]) -> None:
        self.supersteps.append(Superstep(label, tuple(comp), tuple(words)))

    @property
    def total_work(self) -> float:
        return sum(sum(s.comp_per_proc) for s in self.supersteps)

    @property
    def critical_work(self) -> float:
        """Sum of per-superstep maxima (the w term with g = l = 0)."""
        return sum(s.w for s in self.supersteps)

    @property
    def total_words(self) -> int:
        return sum(s.h for s in self.supersteps)

    @property
    def sync_count(self) -> int:
        return len(self.supersteps)

    def cost(self, g: float, l: float) -> float:
        """Predicted running time on a machine with throughput cost *g*
        (seconds/word) and barrier latency *l* (seconds)."""
        return sum(s.w + g * s.h + l for s in self.supersteps)

    def summary(self) -> dict:
        return {
            "p": self.p,
            "supersteps": self.sync_count,
            "critical_work_s": self.critical_work,
            "total_work_s": self.total_work,
            "max_h_relation_words": max((s.h for s in self.supersteps), default=0),
            "total_h_words": self.total_words,
        }


def _assign(tasks: Sequence[float], p: int) -> list[list[int]]:
    """Greedy LPT assignment of task indices to p processors."""
    order = sorted(range(len(tasks)), key=lambda k: -tasks[k])
    loads = [0.0] * p
    buckets: list[list[int]] = [[] for _ in range(p)]
    for k in order:
        proc = min(range(p), key=loads.__getitem__)
        buckets[proc].append(k)
        loads[proc] += tasks[k]
    return buckets


def bsp_cost_of_steady_ant(
    p_perm: np.ndarray,
    q_perm: np.ndarray,
    processors: int,
    depth: int,
    *,
    leaf_multiply=None,
) -> BSPCostModel:
    """Run the task-parallel steady ant, recording a BSP profile.

    Superstep structure (matching Listing 5's execution):

    1. ``scatter``: the root splits the inputs ``depth`` times and sends
       each processor its leaf subproblems — each leaf of order ``k``
       costs ``2k`` words of communication (two permutations);
    2. ``leaves``: every processor multiplies its leaves locally;
    3. one ``combine`` superstep per level back up: the combining
       processor receives both halves (``2k`` words for an order-``k``
       result) and runs the sequential ant passage.
    """
    from ..core.steady_ant._core import combine, split_p, split_q
    from ..core.steady_ant import steady_ant_multiply

    if leaf_multiply is None:
        leaf_multiply = steady_ant_multiply
    model = BSPCostModel(p=processors)

    # --- split phase (sequential on the root processor) ----------------
    start = time.perf_counter()
    leaves = [(np.ascontiguousarray(p_perm, dtype=np.int64), np.ascontiguousarray(q_perm, dtype=np.int64))]
    split_meta: list[list] = []
    for _ in range(depth):
        meta_level = []
        nxt = []
        for sp, sq in leaves:
            if sp.size <= 1:
                meta_level.append(None)
                nxt.append((sp, sq))
                continue
            h = sp.size // 2
            p_lo, rows_lo, p_hi, rows_hi = split_p(sp, h)
            q_lo, cols_lo, q_hi, cols_hi = split_q(sq, h)
            meta_level.append((rows_lo, cols_lo, rows_hi, cols_hi, sp.size))
            nxt.append((p_lo, q_lo))
            nxt.append((p_hi, q_hi))
        split_meta.append(meta_level)
        leaves = nxt
    split_time = time.perf_counter() - start
    scatter_words = sum(2 * sp.size for sp, _ in leaves)
    model.record(
        "scatter",
        [split_time] + [0.0] * (processors - 1),
        [scatter_words] + [2 * leaves[0][0].size] * (processors - 1) if processors > 1 else [0],
    )

    # --- leaf superstep --------------------------------------------------
    leaf_times = []
    results = []
    for sp, sq in leaves:
        t0 = time.perf_counter()
        results.append(leaf_multiply(sp, sq))
        leaf_times.append(time.perf_counter() - t0)
    buckets = _assign(leaf_times, processors)
    comp = [sum(leaf_times[k] for k in bucket) for bucket in buckets]
    model.record("leaves", comp, [0] * processors)

    # --- combine supersteps ----------------------------------------------
    for meta_level in reversed(split_meta):
        merged = []
        times = []
        words = []
        consumed = 0
        for meta in meta_level:
            if meta is None:
                merged.append(results[consumed])
                consumed += 1
                continue
            rows_lo, cols_lo, rows_hi, cols_hi, nn = meta
            r_lo, r_hi = results[consumed], results[consumed + 1]
            consumed += 2
            t0 = time.perf_counter()
            merged.append(combine(rows_lo, cols_lo[r_lo], rows_hi, cols_hi[r_hi], nn))
            times.append(time.perf_counter() - t0)
            words.append(2 * nn)  # the combining processor receives both halves
        results = merged
        if times:
            buckets = _assign(times, processors)
            comp = [sum(times[k] for k in bucket) for bucket in buckets]
            wrds = [sum(words[k] for k in bucket) for bucket in buckets]
            model.record(f"combine@{len(times)}", comp, wrds)

    return model
