"""Machine-parameterized parallel combing (paper Listings 4, 6, 7).

Every function takes a :class:`repro.parallel.api.Machine`; results are
bit-identical to the sequential algorithms, while the machine accounts
the parallel cost (see :mod:`repro.parallel` for the available machines
and why the simulator is the default for thread-scaling figures).

- :func:`parallel_iterative_combing` — Listing 4: anti-diagonal
  wavefront; each anti-diagonal runs as one uniform round (one barrier
  per anti-diagonal).
- :func:`parallel_load_balanced_combing` — the Fig. 2 variant: phases 1
  and 3 are combed concurrently with matched anti-diagonals so every
  round processes exactly ``m`` cells, then the three phase braids are
  recombined by braid multiplication.
- :func:`parallel_hybrid_combing_grid` — Listing 7: the leaf combs and
  the reduction plan's compositions run as a dataflow of rounds.
"""

from __future__ import annotations

from collections import deque
from functools import partial

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
)
from ...types import PermArray, Sequenceish
from .hybrid import _leaf, compose_op, plan_grid
from .iterative import (
    _UNSIGNED_LIMIT_16,
    _antidiag_ranges,
    _comb_region_simd,
    _extract_kernel,
    _flip_kernel,
    _strands_dtype,
    cut_positions,
)


# -- picklable grid tasks (shipped to worker processes by spec) -------------


def _compact_perm(perm: np.ndarray, compact: bool) -> np.ndarray:
    """Downcast a kernel to ``uint16`` for the trip home when its values
    fit; consumers upcast on entry and the final result is restored to
    ``int64``."""
    if compact and perm.size <= _UNSIGNED_LIMIT_16:
        return perm.astype(np.uint16)
    return perm


def _grid_task(op, blend, use_16bit, multiply, compact, x, y):
    """One grid node inside a worker: a leaf comb of the encoded slices
    *x*, *y* when *op* is ``None``, else reduction op *op* on the input
    kernels *x*, *y*. The kernel is compacted for the trip home."""
    out = _leaf(x, y, blend, use_16bit) if op is None else compose_op(op, x, y, multiply)
    return _compact_perm(out, compact)


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
    use_16bit: bool = True,
) -> PermArray:
    """Listing 4: wavefront combing, one synchronized round per
    anti-diagonal.

    The cells of an anti-diagonal are identical-cost independent items,
    so each round is submitted as a *uniform round* (one vectorized batch
    whose cost the machine divides across its workers); see
    :meth:`repro.parallel.api.Machine.run_uniform_round`.

    ``use_16bit`` stores strand labels as ``uint16`` whenever
    ``m + n <= 2^16``; the kernel returned is ``int64`` either way.
    """
    ca, cb = encode(a), encode(b)
    if ca.size > cb.size:
        return _flip_kernel(
            parallel_iterative_combing(cb, ca, machine, blend=blend, use_16bit=use_16bit),
            cb.size,
            ca.size,
        )
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    # one top-level span + a single counter bump for the whole wavefront:
    # the per-round instrumentation would be far too hot (see the
    # repro.obs performance contract)
    get_metrics().inc("combing.wavefront_rounds", m + n - 1)
    with _obs_phase("combing"), get_tracer().span(
        "combing.wavefront", args={"m": m, "n": n}
    ):
        a_rev = np.ascontiguousarray(ca[::-1])
        dt = _strands_dtype(m, n, use_16bit)
        h_strands = np.arange(m, dtype=dt)
        v_strands = np.arange(m, m + n, dtype=dt)
        for length, h_lo, v_lo in _antidiag_ranges(m, n):
            thunk = _make_diag_thunk(
                a_rev, cb, h_strands, v_strands, length, h_lo, v_lo, blend
            )
            machine.run_uniform_round([(thunk, length)])
        return _extract_kernel(h_strands, v_strands)


def parallel_load_balanced_combing(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    blend: str = "arith",
    multiply=None,
    use_16bit: bool = True,
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
) -> PermArray:
    """Listing 7 with explicit parallel rounds.

    Runs the longest-side :func:`~repro.core.combing.hybrid.plan_grid`
    reduction — the same plan :func:`~.hybrid.hybrid_combing_grid`
    executes serially — as a dataflow: the leaf combs and compositions
    are submitted in worker-sized chunks with two chunks in flight, and
    a composition is submitted as soon as its inputs drain, so early
    composes overlap the remaining leaf combs instead of waiting for the
    slowest one. ``n_tasks`` defaults to ``2 * machine.workers`` so the
    dynamic schedule has slack to balance. Compositions multiply with
    *multiply* (default: the library's level-vectorized
    :data:`~repro.core.steady_ant.steady_ant_multiply`).

    ``checkpoint`` (a :class:`~repro.checkpoint.grid.GridCheckpointer`)
    makes the run durable: each leaf/compose task persists its kernel
    from inside the task the moment it finishes, resumed runs load
    completed nodes from disk, and — because the submitted tasks expose
    ``recover()`` — a :class:`~repro.parallel.resilient.ResilientMachine`
    recovering a failed round re-reads the on-disk ledger instead of
    recomputing. Checkpointed runs are round-synchronous, one round per
    plan level (durable thunks cannot ship to worker processes, so there
    is nothing to pipeline); their journal records the same
    ``(level, index)`` coordinates as the serial grid's, so a run
    started on either path resumes on the other.

    Observability: wrapped in the ``combing`` phase and a
    ``combing.grid`` span; ``compute.pipelined_rounds`` counts the
    submissions that overlapped a round still in flight. When tracing
    (or remote metric collection) is active on a
    :class:`~repro.parallel.processes.ProcessMachine`, the worker-side
    leaf/compose spans and counters ship back with each round and
    re-parent under this call's round spans.
    """
    with _obs_phase("combing"), get_tracer().span(
        "combing.grid", args={"n_tasks": n_tasks or 0}
    ):
        ca, cb = encode(a), encode(b)
        m, n = ca.size, cb.size
        if m == 0 or n == 0:
            return np.arange(m + n, dtype=np.int64)
        if multiply is None:
            from ..steady_ant import steady_ant_multiply as multiply
        if n_tasks is None:
            n_tasks = max(1, 2 * machine.workers)
        a_lens, b_lens, levels, spans, root = plan_grid(
            m, n, n_tasks, strand_limit=strand_limit
        )
        if checkpoint is not None:
            finished = checkpoint.begin(ca, cb, a_lens, b_lens)
            if finished is not None:
                return finished
        n_leaves = len(a_lens) * len(b_lens)
        get_metrics().inc("combing.grid_leaves", n_leaves)
        if checkpoint is not None:
            return _grid_run_checkpointed(
                ca, cb, machine, n_leaves, len(b_lens), levels, spans, root,
                blend, use_16bit, multiply, checkpoint,
            )
        return _grid_run_dataflow(
            ca, cb, machine, n_leaves, levels, spans, root,
            blend, use_16bit, multiply,
        )


def _grid_run_dataflow(
    ca, cb, machine, n_leaves, levels, spans, root, blend, use_16bit, multiply,
):
    """Execute the grid plan as a task dataflow.

    Tasks ship as pure ``(fn, args, kwargs)`` specs — process machines
    run them in workers (the input sequences broadcast once as
    shared-memory segments, results travelling back as handles),
    in-process machines run the identical partials locally. Scheduling
    is by readiness, not by level: a task is submitted once both its
    inputs have drained, in worker-sized chunks, with two chunks in
    flight.

    A node's backing segment is released once the compose reading it
    has drained (each node has exactly one consumer in a reduction
    tree); the broadcast inputs are released when the last leaf drains.
    """
    compact = bool(use_16bit)
    bca, bcb = machine_broadcast(machine, ca, cb)
    ops = {op.out: op for level in levels for op in level}
    consumer = {src: op.out for op in ops.values() for src in (op.left, op.right)}
    results: dict[int, object] = {}  # node -> kernel (or transport handle)

    def make_spec(node):
        op = ops.get(node)
        if op is None:
            a_lo, a_hi, b_lo, b_hi = spans[node]
            x, y = bca[a_lo:a_hi], bcb[b_lo:b_hi]
        else:
            x, y = results[op.left], results[op.right]
        return (_grid_task, (op, blend, use_16bit, multiply, compact, x, y), {})

    ready = list(range(n_leaves))
    inflight: deque = deque()
    chunk_size = max(1, machine.workers)
    leaves_open = n_leaves
    metrics = get_metrics()

    while ready or inflight:
        while ready and len(inflight) < 2:
            chunk, ready = ready[:chunk_size], ready[chunk_size:]
            if any(tok[0] == "pending" for tok, _ in inflight):
                metrics.inc("compute.pipelined_rounds", 1)
            token = machine_submit_round(machine, [make_spec(node) for node in chunk])
            inflight.append((token, chunk))
        token, chunk = inflight.popleft()
        for node, res in zip(chunk, machine_drain_round(token)):
            results[node] = res
            parent = ops.get(consumer.get(node))
            if parent is not None and parent.left in results and parent.right in results:
                ready.append(parent.out)
            op = ops.get(node)
            if op is None:
                leaves_open -= 1
                if leaves_open == 0:
                    # the encoded inputs are only read by leaf tasks
                    machine_release(machine, bca, bcb)
            else:
                machine_release(machine, results.pop(op.left), results.pop(op.right))

    result = results[root]
    local = machine_localize(machine, result)
    machine_release(machine, result)
    return np.asarray(local, dtype=np.int64)


def _grid_run_checkpointed(
    ca, cb, machine, n_leaves, n_outer, levels, spans, root,
    blend, use_16bit, multiply, checkpoint,
):
    """Execute the grid plan round-synchronously with durable thunks:
    one round of leaf combs, then one round of composes per plan level."""

    leaf_tasks = []
    for node in range(n_leaves):
        a_lo, a_hi, b_lo, b_hi = spans[node]
        ca_blk, cb_blk = ca[a_lo:a_hi], cb[b_lo:b_hi]
        compute = partial(_leaf, ca_blk, cb_blk, blend, use_16bit)
        leaf_tasks.append(checkpoint.leaf_thunk(ca_blk, cb_blk, compute))
    results = dict(enumerate(machine.run_round(leaf_tasks)))
    for node, task in enumerate(leaf_tasks):
        checkpoint.record_leaf(*divmod(node, n_outer), task.key)

    def compose_task(op):
        compute = partial(
            compose_op, op, results.pop(op.left), results.pop(op.right), multiply
        )
        a_lo, a_hi, b_lo, b_hi = spans[op.out]
        return checkpoint.compose_thunk(ca[a_lo:a_hi], cb[b_lo:b_hi], compute) or compute

    for level, ops in enumerate(levels, start=1):
        tasks = [compose_task(op) for op in ops]
        for index, (op, task, out) in enumerate(zip(ops, tasks, machine.run_round(tasks))):
            results[op.out] = out
            if hasattr(task, "key"):
                checkpoint.record_compose(level, index, task.key)

    result = np.asarray(results[root], dtype=np.int64)
    checkpoint.finish(ca, cb, result)
    return result
