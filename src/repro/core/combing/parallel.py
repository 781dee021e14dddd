"""Machine-parameterized parallel combing (paper Listings 4, 6, 7).

Every function takes a :class:`repro.parallel.api.Machine`; results are
bit-identical to the sequential algorithms, while the machine accounts
the parallel cost (see :mod:`repro.parallel` for the available machines
and why the simulator is the default for thread-scaling figures).

- :func:`parallel_iterative_combing` — Listing 4: anti-diagonal
  wavefront; each anti-diagonal is split into ``workers`` chunks and runs
  as one round (one barrier per anti-diagonal).
- :func:`parallel_load_balanced_combing` — the Fig. 2 variant: phases 1
  and 3 are combed concurrently with matched anti-diagonals so every
  round processes exactly ``m`` cells, then the three phase braids are
  recombined by braid multiplication.
- :func:`parallel_hybrid_combing_grid` — Listing 7: one round combs all
  sub-blocks, then each reduction level of compositions is a round.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ...alphabet import encode
from ...obs import get_metrics, get_tracer
from ...obs import phase as _obs_phase
from ...parallel.transport import (
    machine_broadcast,
    machine_drain_round,
    machine_localize,
    machine_release,
    machine_submit_round,
    run_array_round,
)
from ...types import PermArray, Sequenceish
from ..compose import compose_horizontal, compose_vertical
from .hybrid import (
    DEFAULT_FUSE_BUDGET,
    _split_lengths,
    fuse_plan,
    optimal_split,
    plan_grid_reduction,
)
from .iterative import (
    _UNSIGNED_LIMIT_16,
    _antidiag_ranges,
    _comb_region_simd,
    _extract_kernel,
    _flip_kernel,
    _strands_dtype,
    cut_positions,
    fused_antidiag_groups,
    iterative_combing_antidiag_simd,
)


# -- picklable grid tasks (shipped to worker processes by spec) -------------


def _compact_perm(perm: np.ndarray, compact: bool) -> np.ndarray:
    """Downcast a kernel to ``uint16`` for the trip home when its values
    fit; consumers upcast on entry and the final result is restored to
    ``int64``."""
    if compact and perm.size <= _UNSIGNED_LIMIT_16:
        return perm.astype(np.uint16)
    return perm


def _grid_leaf(ca_blk, cb_blk, blend, use_16bit, compact):
    perm = iterative_combing_antidiag_simd(
        ca_blk, cb_blk, blend=blend, use_16bit_when_possible=use_16bit
    )
    return _compact_perm(perm, compact)


def _grid_compose_h(p, q, rows, n_left, n_right, multiply, compact):
    out = compose_horizontal(
        np.asarray(p, dtype=np.int64),
        np.asarray(q, dtype=np.int64),
        rows,
        n_left,
        n_right,
        multiply,
    )
    return _compact_perm(out, compact)


def _grid_compose_v(p, q, m_top, m_bottom, cols, multiply, compact):
    out = compose_vertical(
        np.asarray(p, dtype=np.int64),
        np.asarray(q, dtype=np.int64),
        m_top,
        m_bottom,
        cols,
        multiply,
    )
    return _compact_perm(out, compact)


def _grid_run_fused(ops, blend, use_16bit, multiply, compact, *vals_in):
    """Run one (possibly fused) chain of grid ops inside a worker.

    *vals_in* are the task's external inputs — encoded sequence slices
    for a leaf, kernels produced by earlier rounds for a compose chain.
    Each op addresses its two sources by index into the growing value
    list: externals first, then the outputs of the task's earlier ops,
    in order. Op kinds: ``"l"`` (leaf comb), ``"h"`` / ``"v"``
    (horizontal / vertical composition with dims ``d0, d1, d2``).

    Only the final kernel is compacted for the trip home; a fused
    chain's intermediate kernels never leave the worker — that is the
    entire point of fusing (no per-level transport, no round barrier).
    """
    vals = list(vals_in)
    for kind, i1, i2, d0, d1, d2 in ops:
        if kind == "l":
            out = iterative_combing_antidiag_simd(
                vals[i1], vals[i2], blend=blend, use_16bit_when_possible=use_16bit
            )
        elif kind == "h":
            out = compose_horizontal(
                np.asarray(vals[i1], dtype=np.int64),
                np.asarray(vals[i2], dtype=np.int64),
                d0, d1, d2, multiply,
            )
        else:
            out = compose_vertical(
                np.asarray(vals[i1], dtype=np.int64),
                np.asarray(vals[i2], dtype=np.int64),
                d0, d1, d2, multiply,
            )
        vals.append(out)
    return _compact_perm(vals[-1], compact)


class _FusedThunk:
    """A fused chain of checkpointable compose steps, run in order inside
    one round slot (the checkpoint path's counterpart of
    :func:`_grid_run_fused` — thunks carrying durable state cannot ship
    to worker processes, so fused rounds stay in-process there).

    Each step is ``(out_node, fn, op)``; step outputs are published to
    the shared *local* dict that later steps' closures read, so a chain
    needs no argument threading. ``recover()`` delegates to the final
    step's durable ledger entry — a
    :class:`~repro.parallel.resilient.ResilientMachine` recovering a
    failed round therefore treats a fused task exactly like a plain one
    (only the chain's final kernel matters to the caller).
    """

    __slots__ = ("steps", "_local")

    def __init__(self, steps, local):
        self.steps = steps
        self._local = local

    def __call__(self):
        out = None
        for node, fn, _op in self.steps:
            out = fn()
            self._local[node] = out
        return out

    def recover(self):
        rec = getattr(self.steps[-1][1], "recover", None)
        return rec() if rec is not None else None


def _chunks(length: int, workers: int) -> list[tuple[int, int]]:
    """Split ``[0, length)`` into up to *workers* contiguous chunks."""
    workers = max(1, min(workers, length))
    base = length // workers
    extra = length % workers
    out = []
    start = 0
    for k in range(workers):
        size = base + (1 if k < extra else 0)
        if size:
            out.append((start, start + size))
        start += size
    return out


def _make_diag_thunk(a_rev, cb, h_strands, v_strands, length, h_lo, v_lo, blend):
    """One anti-diagonal as a round thunk. Its cells are one contiguous
    range of views, so the kernel's scratch is sized to the diagonal."""
    h_sl = slice(h_lo, h_lo + length)
    v_sl = slice(v_lo, v_lo + length)

    def thunk():
        _comb_region_simd(
            a_rev[h_sl], cb[v_sl], h_strands[h_sl], v_strands[v_sl],
            ((length, 0, 0),), blend,
        )

    return thunk


def parallel_iterative_combing(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    blend: str = "arith",
    use_16bit: bool = False,
    fuse_rounds: bool = False,
    fuse_budget: int | None = None,
) -> PermArray:
    """Listing 4: wavefront combing, one synchronized round per
    anti-diagonal.

    The cells of an anti-diagonal are identical-cost independent items,
    so each round is submitted as a *uniform round* (one vectorized batch
    whose cost the machine divides across its workers); see
    :meth:`repro.parallel.api.Machine.run_uniform_round`.

    ``fuse_rounds`` merges consecutive anti-diagonals into rounds of at
    most ``fuse_budget`` cells (:func:`~.iterative.fused_antidiag_groups`;
    default ``4 * m``). A fused group is inherently sequential — its
    diagonals depend on each other — so this deliberately trades
    in-round parallelism for fewer barriers; it is off by default
    because the per-anti-diagonal round structure is what the simulator
    figures (Fig. 4) model. Result-identical either way (the cells are
    processed in the same dependency-compatible order).

    ``use_16bit`` stores strand labels as ``uint16`` whenever
    ``m + n <= 2^16``; the kernel returned is ``int64`` either way.
    """
    ca, cb = encode(a), encode(b)
    if ca.size > cb.size:
        return _flip_kernel(
            parallel_iterative_combing(
                cb, ca, machine, blend=blend, use_16bit=use_16bit,
                fuse_rounds=fuse_rounds, fuse_budget=fuse_budget,
            ),
            cb.size,
            ca.size,
        )
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    if fuse_rounds:
        groups = list(fused_antidiag_groups(m, n, fuse_budget))
    else:
        groups = [[rng] for rng in _antidiag_ranges(m, n)]
    # one top-level span + a single counter bump for the whole wavefront:
    # the per-round instrumentation would be far too hot (see the
    # repro.obs performance contract)
    metrics = get_metrics()
    metrics.inc("combing.wavefront_rounds", len(groups))
    if fuse_rounds:
        metrics.inc("compute.rounds_saved", (m + n - 1) - len(groups))
    with _obs_phase("combing"), get_tracer().span(
        "combing.wavefront", args={"m": m, "n": n}
    ):
        a_rev = np.ascontiguousarray(ca[::-1])
        dt = _strands_dtype(m, n, use_16bit)
        h_strands = np.arange(m, dtype=dt)
        v_strands = np.arange(m, m + n, dtype=dt)
        for group in groups:
            if len(group) == 1:
                length, h_lo, v_lo = group[0]
                thunk = _make_diag_thunk(
                    a_rev, cb, h_strands, v_strands, length, h_lo, v_lo, blend
                )
                machine.run_uniform_round([(thunk, length)])
            else:
                cells = sum(g[0] for g in group)

                def thunk(group=group):
                    _comb_region_simd(a_rev, cb, h_strands, v_strands, group, blend)

                machine.run_uniform_round([(thunk, cells)])
        return _extract_kernel(h_strands, v_strands)


def parallel_load_balanced_combing(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    blend: str = "arith",
    multiply=None,
    use_16bit: bool = False,
) -> PermArray:
    """Fig. 2: phases 1 and 3 combed concurrently with balanced rounds.

    Round ``k`` pairs anti-diagonal ``k`` of the growing phase with
    anti-diagonal ``k`` of the shrinking phase (total exactly ``m`` cells)
    and splits the union into ``workers`` chunks; the middle phase runs
    its full-length anti-diagonals as ordinary rounds. The three phase
    braids are then composed by braid multiplication (serial sections).

    ``use_16bit`` stores the phase strand states as ``uint16`` whenever
    ``m + n <= 2^16``; the kernel returned is ``int64`` either way.
    """
    ca, cb = encode(a), encode(b)
    if ca.size > cb.size:
        return _flip_kernel(
            parallel_load_balanced_combing(
                cb, ca, machine, blend=blend, multiply=multiply, use_16bit=use_16bit
            ),
            cb.size,
            ca.size,
        )
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    if multiply is None:
        from ..steady_ant import steady_ant_multiply as multiply
    with _obs_phase("combing"), get_tracer().span(
        "combing.load_balanced", args={"m": m, "n": n}
    ):
        return _parallel_load_balanced_impl(
            ca, cb, machine, m, n, blend, multiply, use_16bit
        )


def _parallel_load_balanced_impl(ca, cb, machine, m, n, blend, multiply, use_16bit):
    a_rev = np.ascontiguousarray(ca[::-1])
    dt = _strands_dtype(m, n, use_16bit)

    cuts = [0, max(0, m - 1), n, m + n - 1]

    # phase 1 and phase 3 strand states (independent sub-braids,
    # labelled by entry-cut positions: see _region_braid_positions)
    states = {}
    for phase, (d_lo, d_hi) in enumerate(zip(cuts, cuts[1:]), start=1):
        h_in, v_in = cut_positions(d_lo, m, n)
        states[phase] = (h_in.astype(dt), v_in.astype(dt), d_lo, d_hi)

    def diag_slices(d):
        i_lo = max(0, d - n + 1)
        i_hi = min(m - 1, d)
        return i_hi - i_lo + 1, m - 1 - i_hi, d - i_hi

    def phase_task(phase, d):
        h_strands, v_strands, d_lo, d_hi = states[phase]
        if not (d_lo <= d < d_hi):
            return None
        length, h_lo, v_lo = diag_slices(d)
        thunk = _make_diag_thunk(
            a_rev, cb, h_strands, v_strands, length, h_lo, v_lo, blend
        )
        return thunk, length

    # joint rounds for phases 1 and 3 (balanced: the k-th growing and the
    # k-th shrinking anti-diagonal together process exactly m cells)
    p1_len = cuts[1] - cuts[0]
    p3_len = cuts[3] - cuts[2]
    for k in range(max(p1_len, p3_len)):
        tasks = []
        if k < p1_len:
            tasks.append(phase_task(1, cuts[0] + k))
        if k < p3_len:
            tasks.append(phase_task(3, cuts[2] + k))
        tasks = [t for t in tasks if t is not None]
        if tasks:
            machine.run_uniform_round(tasks)
    # middle phase: full-length anti-diagonals
    for d in range(cuts[1], cuts[2]):
        task = phase_task(2, d)
        if task is not None:
            machine.run_uniform_round([task])

    # convert each phase state to cut coordinates and compose
    braids = []
    for phase, (d_lo, d_hi) in enumerate(zip(cuts, cuts[1:]), start=1):
        if d_hi <= d_lo:
            continue
        h_strands, v_strands, _, _ = states[phase]
        h_out, v_out = cut_positions(d_hi, m, n)
        perm = np.empty(m + n, dtype=np.int64)
        perm[h_strands] = h_out
        perm[v_strands] = v_out
        braids.append(perm)
    result = braids[0]
    for nxt in braids[1:]:
        result = machine.run_serial(lambda r=result, x=nxt: multiply(r, x))
    return result


def parallel_hybrid_combing_grid(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    n_tasks: int | None = None,
    blend: str = "arith",
    use_16bit: bool = True,
    multiply=None,
    strand_limit: int | None = None,
    checkpoint=None,
    fuse_rounds: bool = True,
    fuse_budget: int | None = None,
    pipeline: bool = True,
) -> PermArray:
    """Listing 7 with explicit parallel rounds.

    Round 0 combs all ``m_outer x n_outer`` sub-blocks; the reduction
    (always along the blocks' longest side) then runs as a dataflow of
    composition tasks. ``n_tasks`` defaults to ``2 * machine.workers``
    so the dynamic schedule has slack to balance. Compositions multiply
    with *multiply* (default: the library's level-vectorized
    :data:`~repro.core.steady_ant.steady_ant_multiply`).

    Compute-gap toggles (all independently switchable, all
    result-identical — the plan fixes the reduction tree, and kernel
    composition along a fixed tree is associative):

    - ``fuse_rounds`` / ``fuse_budget`` — adjacent reduction levels
      whose tasks keep their external kernel payload within
      *fuse_budget* bytes (default
      :data:`~repro.core.combing.hybrid.DEFAULT_FUSE_BUDGET`) merge into
      one submitted round (:func:`~repro.core.combing.hybrid.fuse_plan`);
      the deep, small levels — where the per-round barrier and transport
      dominate the microseconds of actual compute — collapse into single
      tasks whose intermediates never leave the worker.
    - ``pipeline`` — tasks are submitted in worker-sized chunks with two
      rounds in flight (:func:`~repro.parallel.transport.machine_submit_round`
      double-buffering), and a composition is submitted as soon as its
      inputs drain — early composes overlap the remaining leaf combs
      instead of waiting for the slowest one.

    ``checkpoint`` (a :class:`~repro.checkpoint.grid.GridCheckpointer`)
    makes the run durable: each leaf/compose task persists its kernel
    from inside the task the moment it finishes, resumed runs load
    completed nodes from disk, and — because the submitted tasks expose
    ``recover()`` — a :class:`~repro.parallel.resilient.ResilientMachine`
    recovering a failed round re-reads the on-disk ledger instead of
    recomputing. Checkpointed runs stay round-synchronous (durable
    thunks cannot ship to worker processes, so there is nothing to
    pipeline) but do honour ``fuse_rounds``: a fused task is a
    :class:`_FusedThunk` chain of individually-checkpointed steps, and
    because checkpoint keys are content-addressed a run may crash inside
    a fused round and resume under different fusion settings.

    Observability: wrapped in the ``combing`` phase and a
    ``combing.grid`` span; ``compute.fused_tasks`` /
    ``compute.rounds_saved`` / ``compute.pipelined_rounds`` account what
    the toggles actually did. When tracing (or remote metric collection)
    is active on a :class:`~repro.parallel.processes.ProcessMachine`,
    the worker-side leaf/compose spans and counters ship back with each
    round and re-parent under this call's round spans.
    """
    with _obs_phase("combing"), get_tracer().span(
        "combing.grid",
        args={
            "n_tasks": n_tasks or 0,
            "fuse": bool(fuse_rounds),
            "pipeline": bool(pipeline),
        },
    ):
        return _parallel_hybrid_grid_impl(
            a, b, machine,
            n_tasks=n_tasks, blend=blend, use_16bit=use_16bit,
            multiply=multiply, strand_limit=strand_limit, checkpoint=checkpoint,
            fuse_rounds=fuse_rounds,
            fuse_budget=fuse_budget, pipeline=pipeline,
        )


def _parallel_hybrid_grid_impl(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    n_tasks: int | None = None,
    blend: str = "arith",
    use_16bit: bool = True,
    multiply=None,
    strand_limit: int | None = None,
    checkpoint=None,
    fuse_rounds: bool = True,
    fuse_budget: int | None = None,
    pipeline: bool = True,
) -> PermArray:
    ca, cb = encode(a), encode(b)
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    if multiply is None:
        from ..steady_ant import steady_ant_multiply as multiply
    if n_tasks is None:
        n_tasks = max(1, 2 * machine.workers)

    m_outer, n_outer = optimal_split(m, n, n_tasks, strand_limit=strand_limit)
    a_lens = _split_lengths(m, m_outer)
    b_lens = _split_lengths(n, n_outer)
    m_outer, n_outer = len(a_lens), len(b_lens)

    if checkpoint is not None:
        finished = checkpoint.begin(ca, cb, a_lens, b_lens)
        if finished is not None:
            return finished

    metrics = get_metrics()
    metrics.inc("combing.grid_leaves", m_outer * n_outer)
    compact = bool(use_16bit)

    # The reduction tree as data: levels of compose ops plus each node's
    # covered (a, b) slice. Fusing then merges adjacent levels into
    # rounds within the payload budget (budget 0 = one round per level,
    # i.e. the PR 7 schedule).
    levels, spans, root = plan_grid_reduction(m, n, a_lens, b_lens)
    if fuse_rounds:
        budget = DEFAULT_FUSE_BUDGET if fuse_budget is None else fuse_budget
    else:
        budget = 0
    itemsize = 2 if compact else 8
    rounds = fuse_plan(levels, spans, budget=budget, itemsize=itemsize)
    metrics.inc(
        "compute.fused_tasks", sum(1 for rnd in rounds for task in rnd if len(task) > 1)
    )
    metrics.inc("compute.rounds_saved", len(levels) - len(rounds))

    if checkpoint is not None:
        # Durable thunks cannot ship to worker processes, so the
        # checkpoint path stays round-synchronous in-process — but fused
        # rounds still apply (each fused task is a chain of individually
        # checkpointed steps).
        return _grid_run_checkpointed(
            ca, cb, machine, m_outer, n_outer, levels, spans, root, rounds,
            blend, use_16bit, multiply, checkpoint,
        )
    return _grid_run_dataflow(
        ca, cb, machine, m_outer, n_outer, spans, root, rounds,
        blend, use_16bit, multiply, compact, pipeline, metrics,
    )


def _grid_run_dataflow(
    ca, cb, machine, m_outer, n_outer, spans, root, rounds,
    blend, use_16bit, multiply, compact, pipeline, metrics,
):
    """Execute a (fused) grid plan as a task dataflow.

    Tasks ship as pure ``(fn, args, kwargs)`` specs — process machines
    run them in workers (the input sequences broadcast once as
    shared-memory segments, results travelling back as handles),
    in-process machines run the identical partials locally. Scheduling
    is by readiness, not by level: a task is submitted once every
    external input has drained, in worker-sized chunks, with two chunks
    in flight when *pipeline* is on (one otherwise). Early compositions
    therefore overlap the tail of the leaf round — on the PR 7 schedule
    every level waited for its slowest predecessor task.

    A node's backing segment is released once all consuming tasks have
    drained (each node has exactly one consumer in a reduction tree, but
    the refcount keeps this honest); the broadcast inputs are released
    when the last leaf drains.
    """
    # -- build the task list: leaves first (row-major), then fused tasks
    tasks = []  # (ops, ext, out_node, is_leaf); ext: arrays (leaf) or node ids
    bca, bcb = machine_broadcast(machine, ca, cb)
    for node in range(m_outer * n_outer):
        a_lo, a_hi, b_lo, b_hi = spans[node]
        tasks.append((
            [("l", 0, 1, 0, 0, 0)],
            [bca[a_lo:a_hi], bcb[b_lo:b_hi]],
            node,
            True,
        ))
    for rnd in rounds:
        for task_ops in rnd:
            internal = {op.out for op in task_ops}
            ext = []
            pos = {}  # node id -> index into the worker's value list
            for op in task_ops:
                for s in (op.left, op.right):
                    if s not in internal and s not in pos:
                        pos[s] = len(ext)
                        ext.append(s)
            enc = []
            for k, op in enumerate(task_ops):
                enc.append((op.kind, pos[op.left], pos[op.right], op.d0, op.d1, op.d2))
                pos[op.out] = len(ext) + k
            tasks.append((enc, ext, task_ops[-1].out, False))

    # -- dependency bookkeeping
    dep_count = []
    consumers: dict[int, list[int]] = {}  # node -> tasks reading it
    uses: dict[int, int] = {}  # node -> undrained consuming tasks
    for t_idx, (_enc, ext, _out, is_leaf) in enumerate(tasks):
        if is_leaf:
            dep_count.append(0)
            continue
        dep_count.append(len(ext))
        for s in ext:
            consumers.setdefault(s, []).append(t_idx)
            uses[s] = uses.get(s, 0) + 1

    results: dict[int, object] = {}  # node -> kernel (or transport handle)

    def make_spec(t_idx):
        enc, ext, _out, is_leaf = tasks[t_idx]
        vals = ext if is_leaf else [results[s] for s in ext]
        return (_grid_run_fused, (enc, blend, use_16bit, multiply, compact, *vals), {})

    ready = [t for t in range(len(tasks)) if dep_count[t] == 0]
    inflight: deque = deque()
    depth = 2 if pipeline else 1
    chunk_size = max(1, machine.workers)
    leaves_open = m_outer * n_outer

    while ready or inflight:
        while ready and len(inflight) < depth:
            chunk, ready = ready[:chunk_size], ready[chunk_size:]
            if any(tok[0] == "pending" for tok, _ in inflight):
                metrics.inc("compute.pipelined_rounds", 1)
            token = machine_submit_round(machine, [make_spec(t) for t in chunk])
            inflight.append((token, chunk))
        token, chunk = inflight.popleft()
        outs = machine_drain_round(token)
        for t_idx, res in zip(chunk, outs):
            _enc, ext, out_node, is_leaf = tasks[t_idx]
            results[out_node] = res
            for c in consumers.get(out_node, ()):
                dep_count[c] -= 1
                if dep_count[c] == 0:
                    ready.append(c)
            if is_leaf:
                leaves_open -= 1
                if leaves_open == 0:
                    # the encoded inputs are only read by leaf tasks
                    machine_release(machine, bca, bcb)
            else:
                for s in ext:
                    uses[s] -= 1
                    if uses[s] == 0:
                        machine_release(machine, results.pop(s))

    result = results[root]
    local = machine_localize(machine, result)
    machine_release(machine, result)
    return np.asarray(local, dtype=np.int64)


def _grid_run_checkpointed(
    ca, cb, machine, m_outer, n_outer, levels, spans, root, rounds,
    blend, use_16bit, multiply, checkpoint,
):
    """Execute a (fused) grid plan round-synchronously with durable
    thunks (see :func:`parallel_hybrid_combing_grid` — the checkpoint
    path keeps PR 7's level-by-level structure apart from fusion)."""
    results: dict[int, np.ndarray] = {}

    def leaf_thunk(node):
        a_lo, a_hi, b_lo, b_hi = spans[node]

        def thunk():
            return iterative_combing_antidiag_simd(
                ca[a_lo:a_hi], cb[b_lo:b_hi],
                blend=blend, use_16bit_when_possible=use_16bit,
            )

        return checkpoint.leaf_thunk(ca[a_lo:a_hi], cb[b_lo:b_hi], thunk)

    leaf_tasks = [leaf_thunk(node) for node in range(m_outer * n_outer)]
    flat = machine.run_round(leaf_tasks)
    for i in range(m_outer):
        for j in range(n_outer):
            node = i * n_outer + j
            checkpoint.record_leaf(i, j, leaf_tasks[node].key)
            results[node] = flat[node]

    # journal metadata keeps the unfused (level, index) coordinates —
    # keys are content-addressed, so resume is fusion-agnostic
    op_coords = {
        id(op): (lvl + 1, idx)
        for lvl, ops in enumerate(levels)
        for idx, op in enumerate(ops)
    }

    for rnd in rounds:
        thunks = []
        for task_ops in rnd:
            local: dict[int, np.ndarray] = {}
            steps = []
            for op in task_ops:

                def compute(op=op, local=local):
                    lv = local.get(op.left)
                    lv = results[op.left] if lv is None else lv
                    rv = local.get(op.right)
                    rv = results[op.right] if rv is None else rv
                    fn = compose_horizontal if op.kind == "h" else compose_vertical
                    return fn(
                        np.asarray(lv, dtype=np.int64),
                        np.asarray(rv, dtype=np.int64),
                        op.d0, op.d1, op.d2, multiply,
                    )

                a_lo, a_hi, b_lo, b_hi = spans[op.out]
                wrapped = checkpoint.compose_thunk(
                    ca[a_lo:a_hi], cb[b_lo:b_hi], compute
                ) or compute
                steps.append((op.out, wrapped, op))
            thunks.append(_FusedThunk(steps, local))
        outs = machine.run_round(thunks)
        for task_ops, thunk, out in zip(rnd, thunks, outs):
            results[task_ops[-1].out] = out
            for node, fn, op in thunk.steps:
                if hasattr(fn, "key"):
                    lvl, idx = op_coords[id(op)]
                    checkpoint.record_compose(lvl, idx, fn.key)
            for op in task_ops:
                results.pop(op.left, None)
                results.pop(op.right, None)

    result = np.asarray(results[root], dtype=np.int64)
    checkpoint.finish(ca, cb, result)
    return result
