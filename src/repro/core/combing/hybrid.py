"""Hybrid combing (paper Listings 6 and 7).

Two variants:

- :func:`hybrid_combing` — Listing 6: recursive splitting of the longer
  string down to a fixed *depth*, iterative (vectorized) combing below it,
  kernel composition on the way up. Depth 0 is pure iterative combing;
  each extra level doubles the number of independent sub-problems
  available to coarse-grained parallelism (Fig. 6 studies this tradeoff).

- :func:`hybrid_combing_grid` — Listing 7 ("semi_hybrid_iterative"):
  the outer recursion is flattened into an ``m_outer x n_outer`` grid of
  sub-blocks, each combed independently by iterative combing (with 16-bit
  strand indices whenever a block's ``m + n <= 2^16``), followed by a
  balanced reduction tree of compositions that always merges along the
  sub-grid's longest side. :func:`plan_grid_reduction` is that tree as
  data — the one schedule this serial grid and
  :func:`~repro.core.combing.parallel.parallel_hybrid_combing_grid`
  both execute.

Both return the same kernel as plain iterative combing (property-tested).
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ...alphabet import encode
from ...obs import get_metrics, get_tracer, phase
from ...types import PermArray, Sequenceish
from ..compose import compose_horizontal, compose_vertical
from .iterative import iterative_combing_antidiag_simd


def _leaf(ca, cb, blend, use_16bit):
    return iterative_combing_antidiag_simd(
        ca, cb, blend=blend, use_16bit_when_possible=use_16bit
    )


def _rec(ca, cb, depth, multiply, blend, use_16bit, on_leaf=None):
    m, n = ca.size, cb.size
    if depth <= 0 or m + n <= 2 or m == 0 or n == 0:
        if on_leaf is not None:
            on_leaf(m, n)
        return _leaf(ca, cb, blend, use_16bit)
    if m <= n:
        half = n // 2
        left = _rec(ca, cb[:half], depth - 1, multiply, blend, use_16bit, on_leaf)
        right = _rec(ca, cb[half:], depth - 1, multiply, blend, use_16bit, on_leaf)
        return compose_horizontal(left, right, m, half, n - half, multiply)
    half = m // 2
    top = _rec(ca[:half], cb, depth - 1, multiply, blend, use_16bit, on_leaf)
    bottom = _rec(ca[half:], cb, depth - 1, multiply, blend, use_16bit, on_leaf)
    return compose_vertical(top, bottom, half, m - half, n, multiply)


def hybrid_combing(
    a: Sequenceish,
    b: Sequenceish,
    depth: int = 2,
    *,
    multiply=None,
    blend: str = "arith",
    use_16bit: bool = True,
    on_leaf=None,
) -> PermArray:
    """Listing 6: recursive splitting to *depth*, then iterative combing.

    ``on_leaf(m, n)`` is an optional callback invoked once per leaf
    sub-problem — the benchmarks use it to account the work available for
    coarse-grained parallelism.
    """
    if multiply is None:
        from ..steady_ant import steady_ant_multiply as multiply
    with phase("combing"), get_tracer().span("combing.hybrid", args={"depth": depth}):
        return _rec(encode(a), encode(b), depth, multiply, blend, use_16bit, on_leaf)


# ---------------------------------------------------------------------------
# Listing 7: flattened grid + balanced reduction
# ---------------------------------------------------------------------------


def optimal_split(m: int, n: int, n_tasks: int, *, strand_limit: int | None = None) -> tuple[int, int]:
    """Choose the sub-grid factorization ``(m_outer, n_outer)``.

    Aims for at least *n_tasks* sub-blocks, splitting the longer side
    more, and keeping every block's ``m_i + n_j`` under *strand_limit*
    when given (the 16-bit constraint of §4.3).
    """
    m_outer, n_outer = 1, 1
    while m_outer * n_outer < max(1, n_tasks):
        # grow the dimension whose blocks are currently longer
        if m / m_outer >= n / n_outer and m_outer < m:
            m_outer += 1
        elif n_outer < n:
            n_outer += 1
        elif m_outer < m:
            m_outer += 1
        else:
            break
    if strand_limit is not None:
        while m_outer < m and math.ceil(m / m_outer) + math.ceil(n / n_outer) > strand_limit:
            if math.ceil(m / m_outer) >= math.ceil(n / n_outer):
                m_outer += 1
            else:
                n_outer += 1
        while n_outer < n and math.ceil(m / m_outer) + math.ceil(n / n_outer) > strand_limit:
            n_outer += 1
    return m_outer, n_outer


def _split_lengths(total: int, parts: int) -> list[int]:
    """Nearly equal part lengths, never zero (parts clamped to total)."""
    parts = max(1, min(parts, total)) if total else 1
    base = total // parts
    extra = total % parts
    return [base + (1 if k < extra else 0) for k in range(parts)]


#: The compose-order heuristics of §4.3 (see :func:`hybrid_combing_grid`).
REDUCTIONS = ("longest-side", "rows-first", "cols-first")


class GridOp(NamedTuple):
    """One reduction node: ``kind`` is ``"h"`` (compose_horizontal) or
    ``"v"`` (compose_vertical), ``out``/``left``/``right`` are plan node
    ids (leaves are ``i * n_outer + j`` row-major), and ``d0/d1/d2`` are
    the compose dimensions (``rows, n_left, n_right`` for "h";
    ``m_top, m_bottom, cols`` for "v"). ``d0 + d1 + d2`` is the order of
    the composed kernel."""

    kind: str
    out: int
    left: int
    right: int
    d0: int
    d1: int
    d2: int


def compose_op(op: GridOp, left, right, multiply) -> PermArray:
    """Execute reduction node *op* on its two input kernels."""
    fn = compose_horizontal if op.kind == "h" else compose_vertical
    return fn(
        np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
        op.d0, op.d1, op.d2, multiply,
    )


def _bounds(lens):
    """Consecutive ``(lo, hi)`` slice bounds of parts with lengths *lens*."""
    offs = [0, *accumulate(lens)]
    return list(zip(offs, offs[1:]))


def _pair_up(bounds):
    """Merge adjacent ``(lo, hi)`` bounds pairwise; an odd last one
    carries over unmerged."""
    merged = [(bounds[k][0], bounds[k + 1][1]) for k in range(0, len(bounds) - 1, 2)]
    return merged + bounds[-1:] if len(bounds) % 2 else merged


def plan_grid_reduction(m: int, n: int, a_lens, b_lens, reduction: str = "longest-side"):
    """Listing 7's balanced reduction tree as explicit levels of ops.

    Each level halves one axis of the sub-grid: ``"longest-side"`` (the
    paper's choice) merges along the axis whose blocks are currently
    longer, ``"rows-first"`` / ``"cols-first"`` exhaust horizontal /
    vertical merges first. Returns ``(levels, spans, root)``: ``levels``
    is a list of lists of :class:`GridOp` (ops in row-major order of
    their outputs; a level's index ``k`` in ``levels`` is reduction level
    ``k + 1`` of the checkpoint journal), ``spans`` maps every node id to
    its covered slice bounds ``(a_lo, a_hi, b_lo, b_hi)`` (checkpoint
    keys derive from these), and ``root`` is the final node's id.

    Ops of one level are mutually independent, and executing the ops in
    any dependency-respecting order produces the same kernel — which is
    what lets the parallel grid run them as a dataflow.
    """
    if reduction not in REDUCTIONS:
        raise ValueError(f"unknown reduction heuristic {reduction!r}")
    a_bounds = _bounds(a_lens)
    b_bounds = _bounds(b_lens)
    n_outer = len(b_bounds)
    ids = [[i * n_outer + j for j in range(n_outer)] for i in range(len(a_bounds))]
    spans = {
        ids[i][j]: (*a_bounds[i], *b_bounds[j])
        for i in range(len(a_bounds))
        for j in range(n_outer)
    }
    levels = []
    while len(a_bounds) > 1 or len(b_bounds) > 1:
        m_outer, n_outer = len(a_bounds), len(b_bounds)
        if n_outer == 1:
            row_reduction = False
        elif m_outer == 1:
            row_reduction = True
        elif reduction != "longest-side":
            row_reduction = reduction == "rows-first"
        else:
            # blocks taller than wide -> merge horizontally (row reduction)
            row_reduction = (m / m_outer) >= (n / n_outer)
        ops = []
        if row_reduction:
            for i, (a_lo, a_hi) in enumerate(a_bounds):
                row = []
                for j in range(0, n_outer - 1, 2):
                    (b_lo, mid), (_, b_hi) = b_bounds[j], b_bounds[j + 1]
                    out = len(spans)
                    ops.append(GridOp("h", out, ids[i][j], ids[i][j + 1],
                                      a_hi - a_lo, mid - b_lo, b_hi - mid))
                    spans[out] = (a_lo, a_hi, b_lo, b_hi)
                    row.append(out)
                ids[i] = row + ids[i][-1:] if n_outer % 2 else row
            b_bounds = _pair_up(b_bounds)
        else:
            new_ids = []
            for i in range(0, m_outer - 1, 2):
                (a_lo, mid), (_, a_hi) = a_bounds[i], a_bounds[i + 1]
                row = []
                for j, (b_lo, b_hi) in enumerate(b_bounds):
                    out = len(spans)
                    ops.append(GridOp("v", out, ids[i][j], ids[i + 1][j],
                                      mid - a_lo, a_hi - mid, b_hi - b_lo))
                    spans[out] = (a_lo, a_hi, b_lo, b_hi)
                    row.append(out)
                new_ids.append(row)
            ids = new_ids + ids[-1:] if m_outer % 2 else new_ids
            a_bounds = _pair_up(a_bounds)
        levels.append(ops)
    return levels, spans, ids[0][0]


def plan_grid(m: int, n: int, n_tasks: int, *, strand_limit=None, reduction="longest-side"):
    """Split an ``m x n`` problem into about *n_tasks* sub-blocks and plan
    their reduction. Returns ``(a_lens, b_lens, levels, spans, root)``
    (see :func:`optimal_split` and :func:`plan_grid_reduction`)."""
    m_outer, n_outer = optimal_split(m, n, n_tasks, strand_limit=strand_limit)
    a_lens = _split_lengths(m, m_outer)
    b_lens = _split_lengths(n, n_outer)
    return (a_lens, b_lens, *plan_grid_reduction(m, n, a_lens, b_lens, reduction))


def hybrid_combing_grid(
    a: Sequenceish,
    b: Sequenceish,
    n_tasks: int = 8,
    *,
    multiply=None,
    blend: str = "arith",
    use_16bit: bool = True,
    strand_limit: int | None = None,
    reduction: str = "longest-side",
    on_leaf=None,
    on_compose=None,
    checkpoint=None,
) -> PermArray:
    """Listing 7: grid decomposition + balanced reduction tree.

    Combs every sub-block of :func:`plan_grid`'s split, then executes the
    plan's compose ops level by level (the serial run of the schedule
    :func:`~repro.core.combing.parallel.parallel_hybrid_combing_grid`
    runs as a dataflow).

    ``reduction`` selects the compose-order heuristic the paper's §4.3
    discusses: ``"longest-side"`` (the paper's choice — always merge
    along the sub-grid's longest axis, keeping block shapes balanced),
    ``"rows-first"`` (merge all row pairs before any columns) or
    ``"cols-first"``. All orders produce the same kernel; the order only
    affects the cost of the log-linear compositions (ablated in
    ``benchmarks/bench_ext_ablations.py``).

    ``on_leaf(m, n)`` / ``on_compose(order)`` are accounting callbacks for
    the parallel cost model (each reduction round's compositions are
    mutually independent, as are all leaf combings); ``on_leaf`` fires as
    each leaf finishes, in row-major order, and ``on_compose`` as each
    compose finishes, level by level.

    ``checkpoint`` is an optional
    :class:`~repro.checkpoint.grid.GridCheckpointer`: every leaf (and
    every reduction compose above the checkpointer's size threshold) is
    durably persisted as it completes, and a resumed run loads completed
    nodes from disk instead of recomputing them.

    Observability: wrapped in the ``combing`` phase and a
    ``combing.grid`` span; sub-block combings count in
    ``combing.grid_leaves`` (compositions count in
    ``combing.grid_composes`` via :func:`repro.core.compose.compose_vertical`).
    """
    with phase("combing"), get_tracer().span(
        "combing.grid", args={"n_tasks": n_tasks, "reduction": reduction}
    ):
        ca, cb = encode(a), encode(b)
        m, n = ca.size, cb.size
        a_lens, b_lens, levels, spans, root = plan_grid(
            m, n, n_tasks, strand_limit=strand_limit, reduction=reduction
        )
        if m == 0 or n == 0:
            return np.arange(m + n, dtype=np.int64)
        if multiply is None:
            from ..steady_ant import steady_ant_multiply as multiply
        if checkpoint is not None:
            finished = checkpoint.begin(ca, cb, a_lens, b_lens)
            if finished is not None:
                return finished

        # comb every sub-block independently (the parallel taskloop); each
        # leaf checkpoints the moment it finishes
        n_leaves = len(a_lens) * len(b_lens)
        get_metrics().inc("combing.grid_leaves", n_leaves)
        kernels = {}
        for node in range(n_leaves):
            a_lo, a_hi, b_lo, b_hi = spans[node]
            ca_blk, cb_blk = ca[a_lo:a_hi], cb[b_lo:b_hi]
            compute = partial(_leaf, ca_blk, cb_blk, blend, use_16bit)
            if checkpoint is not None:
                i, j = divmod(node, len(b_lens))
                kernels[node] = checkpoint.leaf(i, j, ca_blk, cb_blk, compute)
            else:
                kernels[node] = compute()
            if on_leaf is not None:
                on_leaf(a_hi - a_lo, b_hi - b_lo)

        for level, ops in enumerate(levels, start=1):
            for index, op in enumerate(ops):
                compute = partial(
                    compose_op, op, kernels.pop(op.left), kernels.pop(op.right), multiply
                )
                if checkpoint is not None:
                    a_lo, a_hi, b_lo, b_hi = spans[op.out]
                    kernels[op.out] = checkpoint.compose(
                        level, index, ca[a_lo:a_hi], cb[b_lo:b_hi], compute
                    )
                else:
                    kernels[op.out] = compute()
                if on_compose is not None:
                    on_compose(op.d0 + op.d1 + op.d2)

        if checkpoint is not None:
            checkpoint.finish(ca, cb, kernels[root])
        return kernels[root]
