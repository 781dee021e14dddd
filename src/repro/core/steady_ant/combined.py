"""Steady ant with both optimizations ("combined"): precalc base case +
arena-managed memory — the fastest scalar recursion, kept as the Fig. 4a
ablation subject and the scalar reference the vectorized library
default (:data:`repro.core.steady_ant.steady_ant_multiply`) is measured
against.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeMismatchError
from ...obs import get_metrics, get_tracer
from ...types import PermArray
from ._core import combine
from .memory import Arena, arena_capacity_for
from .precalc import DEFAULT_MAX_ORDER, PrecalcTable, get_precalc_table


def _multiply(
    p: np.ndarray,
    q: np.ndarray,
    arena: Arena,
    table: PrecalcTable,
    stats: list | None = None,
    depth: int = 0,
) -> np.ndarray:
    # `stats` is a 2-slot accumulator [base_case_hits, max_depth] flushed
    # once per top-level call — the recursion itself must stay free of
    # global-registry traffic (it runs O(n) nodes per multiplication)
    n = p.size
    if n <= table.max_order:
        if stats is not None:
            stats[0] += 1
            if depth > stats[1]:
                stats[1] = depth
        out = arena.alloc(n)
        out[:] = table.multiply(p, q)
        return out
    h = n // 2
    mark = arena.mark()

    mask = p < h
    rows_lo = arena.alloc(h)
    rows_hi = arena.alloc(n - h)
    rows_lo[:] = np.flatnonzero(mask)
    rows_hi[:] = np.flatnonzero(~mask)
    p_lo = arena.alloc(h)
    p_hi = arena.alloc(n - h)
    np.take(p, rows_lo, out=p_lo)
    np.take(p, rows_hi, out=p_hi)
    p_hi -= h

    cols_lo = arena.alloc(h)
    cols_hi = arena.alloc(n - h)
    cols_lo[:] = q[:h]
    cols_hi[:] = q[h:]
    cols_lo.sort()
    cols_hi.sort()
    q_lo = arena.alloc(h)
    q_hi = arena.alloc(n - h)
    q_lo[:] = np.searchsorted(cols_lo, q[:h])
    q_hi[:] = np.searchsorted(cols_hi, q[h:])

    r_lo_small = _multiply(p_lo, q_lo, arena, table, stats, depth + 1)
    lo_cols_full = arena.alloc(h)
    np.take(cols_lo, r_lo_small, out=lo_cols_full)
    r_hi_small = _multiply(p_hi, q_hi, arena, table, stats, depth + 1)
    hi_cols_full = arena.alloc(n - h)
    np.take(cols_hi, r_hi_small, out=hi_cols_full)

    result = combine(rows_lo, lo_cols_full, rows_hi, hi_cols_full, n)

    arena.release(mark)
    out = arena.alloc(n)
    out[:] = result
    return out


def steady_ant_combined(
    p: PermArray,
    q: PermArray,
    *,
    arena: Arena | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> PermArray:
    """Sticky product ``p ⊙ q`` with precalc + memory optimizations.

    Observability (flushed once per call, not per recursion node): a
    ``steady_ant.multiply`` span, ``steady_ant.multiplies`` /
    ``steady_ant.base_case_hits`` counters, the ``steady_ant.order``
    histogram, and the ``steady_ant.max_depth`` high-water gauge. Base
    case hits are the recursion leaves answered by the precalc table —
    the paper's "sequential switch" (section 5.1).
    """
    p = np.ascontiguousarray(p, dtype=np.int64)
    q = np.ascontiguousarray(q, dtype=np.int64)
    n = p.size
    if n != q.size:
        raise ShapeMismatchError(f"orders differ: {n} vs {q.size}")
    if n == 0:
        return p.copy()
    if arena is None:
        arena = Arena(arena_capacity_for(n))
    table = get_precalc_table(max_order)
    stats = [0, 0]
    mark = arena.mark()
    with get_tracer().span("steady_ant.multiply", args={"order": int(n)}):
        result = _multiply(p, q, arena, table, stats).copy()
    arena.release(mark)
    metrics = get_metrics()
    metrics.inc("steady_ant.multiplies", 1)
    metrics.inc("steady_ant.base_case_hits", stats[0])
    metrics.get("steady_ant.order").observe(n)
    metrics.get("steady_ant.max_depth").set_max(stats[1])
    return result
