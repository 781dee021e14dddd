"""Workload ``edit_stream``: documents that are read and edited in place.

One process runs a :class:`~repro.query.QueryEngine` with library
defaults, backed by an LRU-mode :class:`~repro.checkpoint.KernelStore`.
Twelve documents (pairs at n=2048) outnumber the engine's in-memory
kernel slots, so reads reach the store and the store evicts the stale
versions that edits leave behind. Each step picks a document and either
reads it (one of five query ops) or, one step in twelve, edits it
by appending or prepending a 32-64 symbol block (Theorems 3.4/3.5).

Why: reads exercise counter builds and batched dominance probes, writes
exercise composition through the library-default braid multiply, and
both move kernels through the store. Reads and writes share the run, so
a change that speeds one side by costing the other shows. It bypasses
``serve``, ``batch`` and ``parallel``.
"""

from __future__ import annotations

import math
import shutil
import time

import numpy as np

from repro.checkpoint import KernelStore
from repro.obs import diff_snapshots, get_metrics, get_tracer
from repro.query import QueryEngine

from . import tracing
from .inputs import dna, dna_pair
from .runner import Outcome, end_to_end, halves, out_dir, peak_rss_mib
from .stats import median, tail
from .verify import Verifier, lcs, prefix_scores, sample, suffix_scores

N_DOCS = 12
DOC_LEN = 2048
#: In-memory kernel slots: fewer than the documents, so reads reach the store.
MAX_KERNELS = 8
#: Store budget: room for every current document and a few stale versions.
STORE_BYTES = 16 << 20
BLOCK = (32, 64)
READS = ("lcs", "windowed_lcs", "all_prefix_scores", "all_suffix_scores",
         "substring_threshold_matches")
#: One block of the op stream: 1 write in 12 steps.
STEPS = ("write",) + READS * 2 + ("read",)
WINDOWS = (128, 512)
THETA, MATCH_WINDOW = 0.8, 256
SETUPS = 3
SAMPLE = 8


def documents(seed: int) -> list[tuple[str, str]]:
    rng = np.random.default_rng([seed, 0])
    return [dna_pair(rng, DOC_LEN) for _ in range(N_DOCS)]


def op_stream(seed: int):
    """The seeded, endless sequence of ``(doc, op, params)`` steps.

    Stratified so every seed runs the same shape: each block of
    :data:`STEPS` holds one write, every read op twice and one more read
    drawn at random, in seeded order."""
    rng = np.random.default_rng([seed, 1])
    while True:
        for step in rng.permutation(STEPS):
            doc = int(rng.integers(N_DOCS))
            if step == "write":
                op = "append" if rng.random() < 0.5 else "prepend"
                block = dna(rng, int(rng.integers(BLOCK[0], BLOCK[1] + 1)))
                yield doc, op, {"suffix" if op == "append" else "prefix": block}
                continue
            op = READS[int(rng.integers(len(READS)))] if step == "read" else str(step)
            params = {}
            if op == "windowed_lcs":
                params = {"window": WINDOWS[int(rng.integers(len(WINDOWS)))]}
            elif op == "substring_threshold_matches":
                params = {"theta": THETA, "window": MATCH_WINDOW}
            yield doc, op, params


def _setup(docs, store_dir):
    """Open the store and build every base kernel cold; returns the
    engine and the seconds it took."""
    t0 = time.perf_counter()
    engine = QueryEngine(store=KernelStore(store_dir, max_bytes=STORE_BYTES),
                         max_kernels=MAX_KERNELS)
    for a, b in docs:
        engine.kernel(a, b)
    return engine, time.perf_counter() - t0


def _edited(a: str, op: str, params: dict) -> str:
    return a + params["suffix"] if op == "append" else params["prefix"] + a


def _timed(engine, docs, seed: int, seconds: float):
    """Run steps until *seconds* of op time; returns the step log and the
    op time. Each entry is ``(op, a, b, params, kept, seconds, error)``,
    where *kept* is what :func:`verify` checks of the answer."""
    rng = np.random.default_rng([seed, 2])
    state = list(docs)
    log = []
    busy = 0.0
    for doc, op, params in op_stream(seed):
        if busy >= seconds:
            break
        a, b = state[doc]
        t = time.perf_counter()
        try:
            answer, error = engine.answer(op, a, b, **params), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            answer, error = None, repr(exc)
        dt = time.perf_counter() - t
        busy += dt
        kept = sample(answer, rng, SAMPLE) if isinstance(answer, list) else answer
        log.append((op, a, b, params, kept, dt, error))
        if op in ("append", "prepend") and error is None:
            state[doc] = (_edited(a, op, params), b)
    return log, busy


def verify(log) -> Verifier:
    """Check every step against the DP: whole scores exactly, arrays at
    the entries :func:`_timed` sampled (their length too)."""
    v = Verifier()
    rows: dict = {}

    def row(kind, a, b):
        key = (kind, a, b)
        if key not in rows:
            rows[key] = (prefix_scores if kind == "prefix" else suffix_scores)(a, b)
        return rows[key]

    for op, a, b, params, kept, _dt, error in log:
        what = f"{op} |a|={len(a)}"
        if error is not None:
            v.answer(what, [(error, None)])
        elif op == "lcs":
            v.expect(what, kept, row("prefix", a, b)[-1])
        elif op in ("append", "prepend"):
            v.expect(what, kept, row("prefix", _edited(a, op, params), b)[-1])
        elif op in ("all_prefix_scores", "all_suffix_scores"):
            want = row("prefix" if op == "all_prefix_scores" else "suffix", a, b)
            n, entries = kept
            v.answer(what, [(n, len(want))] + [(got, want[i]) for i, got in entries])
        elif op == "windowed_lcs":
            w = params["window"]
            n, entries = kept
            v.answer(what, [(n, len(b) - w + 1)]
                     + [(got, lcs(a, b[i:i + w])) for i, got in entries])
        else:  # substring_threshold_matches: sampled (start, end, score) triples
            w = params["window"]
            floor = math.ceil(params["theta"] * w)
            checks = []
            for _i, (s, e, score) in kept[1]:
                checks += [(e - s, w), (score >= floor, True), (score, lcs(a, b[s:e]))]
            v.answer(what, checks)
    return v


def _measure(seed: int, seconds: float, traced: bool) -> dict:
    docs = documents(seed)
    tracer = get_tracer()
    setups = []
    engine = None
    for k in range(SETUPS):
        store_dir = out_dir() / f"edit-store-{seed}-{k}"
        shutil.rmtree(store_dir, ignore_errors=True)
        if engine is not None:
            shutil.rmtree(engine.store.root, ignore_errors=True)
        tracer.enabled = traced
        engine, took = _setup(docs, store_dir)
        setups.append(took)
    setup_events = tracer.events()
    tracer.reset()
    before = get_metrics().snapshot()
    try:
        log, busy = _timed(engine, docs, seed, seconds)
    finally:
        tracer.enabled = False
        shutil.rmtree(engine.store.root, ignore_errors=True)
    return {
        "setups": setups, "log": log, "busy": busy, "rss": peak_rss_mib(),
        "events": tracer.events(), "setup_events": setup_events,
        "delta": diff_snapshots(get_metrics().snapshot(), before),
    }


def _summary(res: dict) -> dict:
    log, busy = res["log"], res["busy"]
    reads = [dt for op, *_rest, dt, _e in log if op in READS]
    writes = [dt for op, *_rest, dt, _e in log if op not in READS]
    cells = sum(len(p.get("suffix") or p.get("prefix")) * len(b)
                for op, _a, b, p, *_ in log if op not in READS)
    return {
        "setup_s": median(res["setups"]),
        "ops_per_s": len(log) / busy,
        "cells_per_s": cells / busy,
        "latency_p50_ms": median(reads) * 1e3,
        "latency_p99_ms": tail(reads, 99)[0] * 1e3,
        "write_p50_ms": median(writes) * 1e3,
        "write_p90_ms": tail(writes, 90)[0] * 1e3,
        "peak_rss_mb": res["rss"],
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    if not trace:
        res = _measure(seed, seconds, traced=False)
        v = verify(res["log"])
        reads = sum(1 for e in res["log"] if e[0] in READS)
        notes = [f"{reads} reads, {len(res['log']) - reads} writes"] + v.examples
        return Outcome(len(res["log"]), v.wrong, end_to_end(_summary(res)), notes)
    plain = _measure(seed, seconds / 2, traced=False)
    tracing.install()
    res = _measure(seed, seconds / 2, traced=True)
    v_plain, v = verify(plain["log"]), verify(res["log"])
    attempted = len(plain["log"]) + len(res["log"])
    failed = v_plain.wrong + v.wrong
    metrics = tracing.layer_report(
        res["events"], res["delta"], window_s=res["busy"],
        setup_events=res["setup_events"],
        extra={"failed_ratio": failed / attempted,
               **halves(_summary(plain), _summary(res))},
    )
    return Outcome(attempted, failed, metrics, v_plain.examples + v.examples,
                   trace_events=res["setup_events"] + res["events"])
