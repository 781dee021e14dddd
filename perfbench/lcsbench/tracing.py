"""Per-layer measurement, taken from outside the program.

Three sources, all read or installed by the benchmark's own files:

1. wrappers around public functions of the program's modules (installed
   by :func:`install` in the traced run only), each recording a span on
   the program's own :mod:`repro.obs` tracer;
2. the spans the program already records (``combing.leaf``,
   ``steady_ant.vectorized``, ``batch.run``, ``worker.chunk``, ...),
   including the ones ``ProcessMachine`` workers ship home;
3. the counters the program exports through ``get_metrics()`` or the
   daemon's ``metrics`` and ``health`` requests.

Spans are kept in memory and written out as one Chrome trace at the end
of a run. A span's self time is its duration minus the part of it that
its children cover; children may overlap (two workers under one round),
so the covered part is the length of the union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from repro.obs import get_tracer

from .metrics import PER_LAYER

#: span-name prefix -> layer (first match wins).
_LAYERS = (
    ("alphabet.", "alphabet"),
    ("combing.compose", "core.compose"),
    ("combing.", "core.combing"),
    ("phase:combing", "core.combing"),
    ("steady_ant.", "core.steady_ant"),
    ("dominance.", "core.dominance"),
    ("query.", "query"),
    ("store.", "checkpoint.store"),
    ("batch.", "batch"),
    ("phase:batch", "batch"),
    ("machine.", "parallel"),
    ("worker.", "parallel"),
    ("parallel.", "parallel"),
    ("serve.", "serve"),
)

_MULTIPLIES = ("steady_ant.multiply", "steady_ant.vectorized", "steady_ant.parallel")
_ROUNDS = ("machine.round", "machine.round_arrays", "parallel.submit", "parallel.drain")


def layer_of(name: str) -> str | None:
    for prefix, layer in _LAYERS:
        if name.startswith(prefix):
            return layer
    return None


# -- self time -----------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(events) -> dict[str, float]:
    """Span id -> self time (same unit as ``dur``)."""
    ids = {e["id"] for e in events}
    kids = defaultdict(list)
    for e in events:
        parent = e.get("parent")
        if parent in ids:
            kids[parent].append((e["ts"], e["ts"] + e["dur"]))
    out = {}
    for e in events:
        lo, hi = e["ts"], e["ts"] + e["dur"]
        out[e["id"]] = max(0.0, e["dur"] - covered_length(kids.get(e["id"], ()), lo, hi))
    return out


def in_window(events, t0: float, t1: float) -> list[dict]:
    """Spans that start inside the epoch-seconds window ``[t0, t1]``."""
    lo, hi = t0 * 1e6, t1 * 1e6
    return [e for e in events if lo <= e["ts"] <= hi]


# -- wrappers ------------------------------------------------------------


def spanned(fn, name: str):
    """*fn* wrapped to record a span called *name* while tracing is on."""
    tracer = get_tracer()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name, cat="bench"):
            return fn(*args, **kwargs)

    return wrapper


def after_the_fact(fn, name: str, args_of=None):
    """Like :func:`spanned`, but the span is recorded once the call has
    returned. Cheaper for leaf calls, and spans the call starts elsewhere
    (worker chunks of a submitted round) keep the caller's span as their
    parent."""
    tracer = get_tracer()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        _trace_id, parent = tracer.current_context()
        ts = time.time() * 1e6
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.adopt([{
                "name": name, "cat": "bench", "ts": ts,
                "dur": (time.perf_counter_ns() - start) / 1e3,
                "pid": os.getpid(), "tid": threading.get_native_id(),
                "id": f"bench:{os.getpid()}:{next(_ids)}", "parent": parent,
                "args": args_of(*args, **kwargs) if args_of else {},
            }])

    return wrapper


_ids = itertools.count(1)


def rebind(module, attr: str, wrapper) -> None:
    """Replace ``module.attr`` in every loaded ``repro`` module that holds
    the same object, so call sites that imported it by name see the
    wrapper too."""
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", None) or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _probes(_self, i_arr, j_arr):
    return {"probes": int(np.broadcast(np.asarray(i_arr), np.asarray(j_arr)).size)}


_QUERY_METHODS = (
    "answer", "kernel", "install_kernel", "lcs", "windowed_lcs",
    "all_prefix_scores", "all_suffix_scores", "substring_threshold_matches",
    "append", "prepend",
)

_installed = False


def install() -> None:
    """Wrap the program's public functions (idempotent). Call before any
    worker pool is created: pool workers fork from this process and keep
    its wrappers."""
    global _installed
    if _installed:
        return
    _installed = True
    import repro.alphabet as alphabet
    import repro.batch.scheduler  # noqa: F401 - binds names the rebind must see
    import repro.checkpoint.store as store
    import repro.cli  # noqa: F401
    import repro.core.combing.parallel  # noqa: F401
    import repro.core.dominance as dominance
    import repro.core.kernel  # noqa: F401
    import repro.core.steady_ant._core as ant_core
    import repro.core.steady_ant.combined  # noqa: F401
    import repro.core.steady_ant.precalc as precalc
    import repro.core.steady_ant.vectorized as vectorized
    import repro.parallel.processes as processes
    import repro.query.engine as query_engine
    import repro.serve.engine  # noqa: F401
    import repro.serve.server  # noqa: F401

    rebind(alphabet, "encode", after_the_fact(alphabet.encode, "alphabet.encode"))
    rebind(ant_core, "combine", after_the_fact(ant_core.combine, "steady_ant.combine"))
    rebind(vectorized, "warm_compute_kernels",
            spanned(vectorized.warm_compute_kernels, "steady_ant.precalc_build"))
    precalc.PrecalcTable.__init__ = spanned(
        precalc.PrecalcTable.__init__, "steady_ant.precalc_build")
    rebind(dominance, "make_counter", spanned(dominance.make_counter, "dominance.build"))
    rebind(dominance, "counter_from_bytes",
            spanned(dominance.counter_from_bytes, "dominance.load"))
    for cls in (dominance.DenseCounter, dominance.DominanceCounter, dominance.WaveletCounter):
        cls.count_many = after_the_fact(cls.count_many, "dominance.probe", _probes)
    for meth in _QUERY_METHODS:
        cls = query_engine.QueryEngine
        setattr(cls, meth, spanned(getattr(cls, meth), f"query.{meth}"))
    store.KernelStore.get = spanned(store.KernelStore.get, "store.get")
    store.KernelStore.get_with_counter = spanned(
        store.KernelStore.get_with_counter, "store.get")
    store.KernelStore.put = spanned(store.KernelStore.put, "store.put")
    pm = processes.ProcessMachine
    pm.submit_round_arrays = after_the_fact(pm.submit_round_arrays, "parallel.submit")
    pm.drain_round = spanned(pm.drain_round, "parallel.drain")


# -- the per-layer report --------------------------------------------------


def _value(delta: dict, name: str, field: str = "value") -> float:
    return float((delta.get(name) or {}).get(field, 0) or 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def total(events, name: str) -> float:
    """Summed duration (seconds) of the spans called *name*."""
    return sum(e["dur"] for e in events if e["name"] == name) / 1e6


def outer_total(events, names) -> float:
    """Summed duration (seconds) of spans named in *names* that are not
    nested inside another span of that set."""
    names = set(names)
    named = {e["id"] for e in events if e["name"] in names}
    return sum(
        e["dur"] for e in events if e["name"] in names and e.get("parent") not in named
    ) / 1e6


def layer_report(events, delta: dict, *, window_s: float, workers: int = 0,
                 setup_events=(), extra: dict | None = None) -> dict[str, float]:
    """Every :data:`~.metrics.PER_LAYER` metric from the timed window's
    spans (*events*) and counter deltas (*delta*, keyed by the program's
    metric catalog names). Precalc builds also count from the set-up's
    spans (*setup_events*). *extra* supplies what only the workload
    knows (client latencies, daemon health deltas, speed-ups)."""
    st = self_times(events)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for e in events:
        by_name[e["name"]].append(e)
        layer_self[layer_of(e["name"])] += st[e["id"]] / 1e6

    def spent(name):
        return sum(e["dur"] for e in by_name[name]) / 1e6

    out = dict.fromkeys(PER_LAYER, 0.0)
    out["alphabet.encode_s"] = spent("alphabet.encode")

    leaves = by_name["combing.leaf"]
    cells = sum(e["args"].get("m", 0) * e["args"].get("n", 0) for e in leaves)
    leaf_self = sum(st[e["id"]] for e in leaves) / 1e6
    out["core.combing.calls"] = len(leaves)
    out["core.combing.cells"] = cells
    out["core.combing.self_s"] = layer_self["core.combing"]
    out["core.combing.cells_per_s"] = _ratio(cells, leaf_self)

    mults = [e for n in _MULTIPLIES for e in by_name[n]]
    ant_self = layer_self["core.steady_ant"] - sum(
        st[e["id"]] for e in by_name["steady_ant.precalc_build"]) / 1e6
    out["core.steady_ant.calls"] = len(mults)
    out["core.steady_ant.order_mean"] = _ratio(
        sum(e["args"].get("order", 0) for e in mults), len(mults))
    out["core.steady_ant.self_s"] = ant_self
    out["core.steady_ant.combine_s"] = spent("steady_ant.combine")
    out["core.steady_ant.combine_share"] = _ratio(out["core.steady_ant.combine_s"], ant_self)
    out["core.steady_ant.precalc_build_s"] = total(
        list(setup_events) + list(events), "steady_ant.precalc_build")

    out["core.compose.calls"] = len(by_name["combing.compose"])
    out["core.compose.self_s"] = layer_self["core.compose"]

    probes = sum(e["args"].get("probes", 0) for e in by_name["dominance.probe"])
    out["core.dominance.counter_builds"] = len(by_name["dominance.build"])
    out["core.dominance.build_s"] = spent("dominance.build")
    out["core.dominance.probe_batches"] = len(by_name["dominance.probe"])
    out["core.dominance.probes"] = probes
    out["core.dominance.probe_s"] = spent("dominance.probe")
    out["core.dominance.ns_per_probe"] = _ratio(out["core.dominance.probe_s"] * 1e9, probes)

    hits, misses = _value(delta, "query.kernel_hits"), _value(delta, "query.kernel_misses")
    out["query.requests"] = _value(delta, "query.requests")
    out["query.kernel_hit_ratio"] = _ratio(hits, hits + misses)
    out["query.kernel_builds"] = _value(delta, "query.kernel_builds")
    out["query.self_s"] = layer_self["query"]
    out["query.append_s"] = spent("query.append")
    out["query.prepend_s"] = spent("query.prepend")

    s_hits, s_misses = _value(delta, "checkpoint.hits"), _value(delta, "checkpoint.misses")
    out["checkpoint.store.gets"] = s_hits + s_misses
    out["checkpoint.store.hit_ratio"] = _ratio(s_hits, s_hits + s_misses)
    out["checkpoint.store.get_s"] = outer_total(events, ("store.get",))
    out["checkpoint.store.put_s"] = spent("store.put")
    out["checkpoint.store.bytes_written"] = _value(delta, "checkpoint.bytes_written")
    out["checkpoint.store.evictions"] = _value(delta, "store.evictions")

    run_s = outer_total(events, ("batch.run",))
    real, padded = _value(delta, "batch.real_cells"), _value(delta, "batch.padded_cells")
    out["batch.run_s"] = run_s
    out["batch.megabatches"] = _value(delta, "batch.megabatches")
    out["batch.lanes_mean"] = _ratio(_value(delta, "batch.lanes", "sum"),
                                     _value(delta, "batch.lanes", "count"))
    out["batch.useful_cell_ratio"] = _ratio(real, padded)
    out["batch.cells_per_s"] = _ratio(real, run_s)

    out["parallel.rounds"] = _value(delta, "machine.rounds")
    out["parallel.tasks"] = _value(delta, "machine.tasks")
    out["parallel.round_s"] = outer_total(events, _ROUNDS)
    out["parallel.worker_busy_ratio"] = _ratio(spent("worker.chunk"), workers * window_s)
    out["parallel.retries"] = _value(delta, "resilience.retries")
    out["parallel.transport.bytes_shipped"] = _value(delta, "transport.bytes_shipped")
    out["parallel.transport.bytes_returned"] = _value(delta, "transport.bytes_returned")

    out["serve.flush_s"] = outer_total(events, ("serve.flush",))
    out["serve.protocol_s"] = spent("serve.protocol")

    out.update(extra or {})
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return out
