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
  sub-grid's longest side.

Both return the same kernel as plain iterative combing (property-tested).
"""

from __future__ import annotations

import math

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


# ---------------------------------------------------------------------------
# Explicit reduction plans (fused rounds + pipelined execution build on these)
# ---------------------------------------------------------------------------

#: One reduction node: ``kind`` is ``"h"`` (compose_horizontal) or ``"v"``
#: (compose_vertical), ``out``/``left``/``right`` are plan node ids
#: (leaves are ``i * n_outer + j`` row-major), and ``d0/d1/d2`` are the
#: compose dimensions (``rows, n_left, n_right`` for "h";
#: ``m_top, m_bottom, cols`` for "v").
class GridOp:
    __slots__ = ("kind", "out", "left", "right", "d0", "d1", "d2")

    def __init__(self, kind, out, left, right, d0, d1, d2):
        self.kind = kind
        self.out = out
        self.left = left
        self.right = right
        self.d0 = d0
        self.d1 = d1
        self.d2 = d2

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"GridOp({self.kind!r}, out={self.out}, "
                f"left={self.left}, right={self.right})")


def plan_grid_reduction(m: int, n: int, a_lens, b_lens):
    """Flatten Listing 7's longest-side reduction into explicit levels.

    Returns ``(levels, spans, root)``: ``levels`` is a list of lists of
    :class:`GridOp` (one list per reduction level, ops in the exact order
    the level-synchronous implementation submits them), ``spans`` maps
    every plan node id to its covered slice bounds
    ``(a_lo, a_hi, b_lo, b_hi)`` (content-addressed checkpoint keys and
    fusion payload estimates both derive from these), and ``root`` is the
    final node's id. Leaf ids are ``i * n_outer + j`` row-major; the
    caller runs the leaves itself.

    The plan is *semantics-free scheduling data*: executing its ops in
    any dependency-respecting order produces the identical kernel,
    because kernel composition is associative along the chosen reduction
    tree — which is what lets the executor fuse levels and pipeline
    rounds without touching correctness.
    """
    a_lens = list(a_lens)
    b_lens = list(b_lens)
    m_outer, n_outer = len(a_lens), len(b_lens)
    a_bounds = []
    lo = 0
    for ln in a_lens:
        a_bounds.append((lo, lo + ln))
        lo += ln
    b_bounds = []
    lo = 0
    for ln in b_lens:
        b_bounds.append((lo, lo + ln))
        lo += ln
    ids = [[i * n_outer + j for j in range(n_outer)] for i in range(m_outer)]
    spans = {}
    for i in range(m_outer):
        for j in range(n_outer):
            spans[ids[i][j]] = (*a_bounds[i], *b_bounds[j])
    next_id = m_outer * n_outer
    levels = []
    while m_outer > 1 or n_outer > 1:
        if n_outer == 1:
            row_reduction = False
        elif m_outer == 1:
            row_reduction = True
        else:
            row_reduction = (m / m_outer) >= (n / n_outer)
        ops = []
        if row_reduction:
            new_ids = []
            for i in range(m_outer):
                row = []
                for j in range(0, n_outer - 1, 2):
                    out = next_id
                    next_id += 1
                    ops.append(GridOp("h", out, ids[i][j], ids[i][j + 1],
                                      a_lens[i], b_lens[j], b_lens[j + 1]))
                    spans[out] = (*a_bounds[i], b_bounds[j][0], b_bounds[j + 1][1])
                    row.append(out)
                if n_outer % 2:
                    row.append(ids[i][n_outer - 1])
                new_ids.append(row)
            ids = new_ids
            b_lens = [b_lens[j] + b_lens[j + 1] for j in range(0, n_outer - 1, 2)] + (
                [b_lens[-1]] if n_outer % 2 else [])
            b_bounds = [(b_bounds[j][0], b_bounds[j + 1][1]) for j in range(0, n_outer - 1, 2)] + (
                [b_bounds[-1]] if n_outer % 2 else [])
            n_outer = len(b_lens)
        else:
            new_ids = []
            for i in range(0, m_outer - 1, 2):
                row = []
                for j in range(n_outer):
                    out = next_id
                    next_id += 1
                    ops.append(GridOp("v", out, ids[i][j], ids[i + 1][j],
                                      a_lens[i], a_lens[i + 1], b_lens[j]))
                    spans[out] = (a_bounds[i][0], a_bounds[i + 1][1], *b_bounds[j])
                    row.append(out)
                new_ids.append(row)
            if m_outer % 2:
                new_ids.append(ids[m_outer - 1])
            ids = new_ids
            a_lens = [a_lens[i] + a_lens[i + 1] for i in range(0, m_outer - 1, 2)] + (
                [a_lens[-1]] if m_outer % 2 else [])
            a_bounds = [(a_bounds[i][0], a_bounds[i + 1][1]) for i in range(0, m_outer - 1, 2)] + (
                [a_bounds[-1]] if m_outer % 2 else [])
            m_outer = len(a_lens)
        levels.append(ops)
    return levels, spans, ids[0][0]


#: Default fused-round payload budget (bytes of external input kernels
#: per fused task). Small deep levels — where per-round machine overhead
#: dominates — fuse aggressively; large top-of-tree kernels stay one op
#: per task so the workers keep them parallel.
DEFAULT_FUSE_BUDGET = 1 << 20

#: Never chain more than this many reduction levels into one task — a
#: fused task runs its ops sequentially inside one worker, so unbounded
#: depth would serialize the whole top of the tree.
MAX_FUSE_LEVELS = 4


def _node_payload(node, spans, itemsize):
    a_lo, a_hi, b_lo, b_hi = spans[node]
    return ((a_hi - a_lo) + (b_hi - b_lo)) * itemsize


def fuse_plan(levels, spans, *, budget=DEFAULT_FUSE_BUDGET,
              itemsize=8, max_levels=MAX_FUSE_LEVELS):
    """Group reduction levels into submission rounds.

    Adjacent levels merge into one round when every fused task the merge
    would create keeps its *external input payload* (the kernels the task
    must be handed, at *itemsize* bytes per strand) within *budget* and
    the chain spans at most *max_levels* levels. Returns a list of
    rounds; each round is a list of tasks and each task a list of
    :class:`GridOp` in dependency order (length 1 = unfused). Tasks
    within a round are mutually independent — everything a task consumes
    was produced in an earlier round (or is a grid leaf).

    ``budget=0`` (or ``max_levels=1``) degenerates to exactly one round
    per level — the unfused schedule.
    """
    rounds = []
    pending: dict[int, list] = {}
    pending_depth = 0

    def task_externals(ops):
        outs = {op.out for op in ops}
        return [s for op in ops for s in (op.left, op.right) if s not in outs]

    for ops in levels:
        if pending:
            fuse = pending_depth < max_levels
            if fuse:
                for op in ops:
                    cand = pending.get(op.left, []) + pending.get(op.right, []) + [op]
                    payload = sum(_node_payload(s, spans, itemsize)
                                  for s in task_externals(cand))
                    if payload > budget:
                        fuse = False
                        break
            if not fuse:
                rounds.append(list(pending.values()))
                pending = {}
                pending_depth = 0
        for op in ops:
            task = pending.pop(op.left, []) + pending.pop(op.right, []) + [op]
            pending[op.out] = task
        pending_depth += 1
    if pending:
        rounds.append(list(pending.values()))
    return rounds


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
    each leaf finishes, in row-major order.

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
        return _hybrid_combing_grid_impl(
            a, b, n_tasks,
            multiply=multiply, blend=blend, use_16bit=use_16bit,
            strand_limit=strand_limit, reduction=reduction,
            on_leaf=on_leaf, on_compose=on_compose, checkpoint=checkpoint,
        )


def _hybrid_combing_grid_impl(
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
    if reduction not in ("longest-side", "rows-first", "cols-first"):
        raise ValueError(f"unknown reduction heuristic {reduction!r}")
    ca, cb = encode(a), encode(b)
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    if multiply is None:
        from ..steady_ant import steady_ant_multiply as multiply

    m_outer, n_outer = optimal_split(m, n, n_tasks, strand_limit=strand_limit)
    a_lens = _split_lengths(m, m_outer)
    b_lens = _split_lengths(n, n_outer)
    m_outer, n_outer = len(a_lens), len(b_lens)
    a_offs = np.concatenate([[0], np.cumsum(a_lens)])
    b_offs = np.concatenate([[0], np.cumsum(b_lens)])

    if checkpoint is not None:
        finished = checkpoint.begin(ca, cb, a_lens, b_lens)
        if finished is not None:
            return finished

    # comb every sub-block independently (the parallel taskloop); each
    # leaf checkpoints the moment it finishes
    get_metrics().inc("combing.grid_leaves", m_outer * n_outer)
    grid = []
    for i in range(m_outer):
        row = []
        for j in range(n_outer):
            ca_blk = ca[a_offs[i] : a_offs[i + 1]]
            cb_blk = cb[b_offs[j] : b_offs[j + 1]]
            if checkpoint is not None:
                leaf = checkpoint.leaf(
                    i, j, ca_blk, cb_blk,
                    lambda ca_blk=ca_blk, cb_blk=cb_blk: _leaf(ca_blk, cb_blk, blend, use_16bit),
                )
            else:
                leaf = _leaf(ca_blk, cb_blk, blend, use_16bit)
            row.append(leaf)
            if on_leaf is not None:
                on_leaf(a_lens[i], b_lens[j])
        grid.append(row)

    # balanced reduction: merge along the blocks' longest side (default)
    level = 0
    while m_outer > 1 or n_outer > 1:
        level += 1
        a_offs = np.concatenate([[0], np.cumsum(a_lens)])
        b_offs = np.concatenate([[0], np.cumsum(b_lens)])
        if n_outer == 1:
            row_reduction = False
        elif m_outer == 1:
            row_reduction = True
        elif reduction == "rows-first":
            row_reduction = True  # exhaust horizontal merges first
        elif reduction == "cols-first":
            row_reduction = False
        else:
            # blocks taller than wide -> merge horizontally (row reduction)
            row_reduction = (m / m_outer) >= (n / n_outer)
        node_index = 0
        if row_reduction:
            new_b_lens = []
            for i in range(m_outer):
                new_row = []
                for j in range(0, n_outer - 1, 2):
                    compute = lambda i=i, j=j: compose_horizontal(
                        grid[i][j], grid[i][j + 1], a_lens[i], b_lens[j], b_lens[j + 1], multiply
                    )
                    if checkpoint is not None:
                        merged = checkpoint.compose(
                            level, node_index,
                            ca[a_offs[i] : a_offs[i + 1]],
                            cb[b_offs[j] : b_offs[j + 2]],
                            compute,
                        )
                    else:
                        merged = compute()
                    node_index += 1
                    if on_compose is not None:
                        on_compose(a_lens[i] + b_lens[j] + b_lens[j + 1])
                    new_row.append(merged)
                if n_outer % 2:
                    new_row.append(grid[i][n_outer - 1])
                grid[i] = new_row
            for j in range(0, n_outer - 1, 2):
                new_b_lens.append(b_lens[j] + b_lens[j + 1])
            if n_outer % 2:
                new_b_lens.append(b_lens[n_outer - 1])
            b_lens = new_b_lens
            n_outer = len(b_lens)
        else:
            new_a_lens = []
            new_grid = []
            for i in range(0, m_outer - 1, 2):
                new_row = []
                for j in range(n_outer):
                    compute = lambda i=i, j=j: compose_vertical(
                        grid[i][j], grid[i + 1][j], a_lens[i], a_lens[i + 1], b_lens[j], multiply
                    )
                    if checkpoint is not None:
                        merged = checkpoint.compose(
                            level, node_index,
                            ca[a_offs[i] : a_offs[i + 2]],
                            cb[b_offs[j] : b_offs[j + 1]],
                            compute,
                        )
                    else:
                        merged = compute()
                    node_index += 1
                    if on_compose is not None:
                        on_compose(a_lens[i] + a_lens[i + 1] + b_lens[j])
                    new_row.append(merged)
                new_grid.append(new_row)
                new_a_lens.append(a_lens[i] + a_lens[i + 1])
            if m_outer % 2:
                new_grid.append(grid[m_outer - 1])
                new_a_lens.append(a_lens[m_outer - 1])
            grid = new_grid
            a_lens = new_a_lens
            m_outer = len(a_lens)

    if checkpoint is not None:
        checkpoint.finish(ca, cb, grid[0][0])
    return grid[0][0]
