"""Workload ``pair_large``: a stream of distinct n=8192 pairs, one grid
kernel each, on a warm two-worker process pool.

Each pair gets one ``parallel_hybrid_combing_grid(a, b, machine)`` call
with library defaults on ``make_machine("processes", workers=2,
transport="shm")``. Set-up is pool spawn plus one warm-up kernel on an
n=1024 pair, which pays the workers' lazy precalc and plan growth.

Why: this is the paper's headline computation (Fig. 8): leaf combing,
steady-ant multiplies and transport rounds dominate. It bypasses
``serve``, ``batch``, ``query`` and ``core.dominance``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.core.kernel import SemiLocalKernel
from repro.obs import diff_snapshots, get_metrics, get_tracer
from repro.parallel import make_machine

from . import tracing
from .inputs import dna_pair
from .runner import (Outcome, child_pids, end_to_end, halves, peak_rss_mib,
                     shm_segments)
from .stats import median, tail
from .verify import Verifier, lcs

N = 8192
WARM_N = 1024
WORKERS = 2
SETUPS = 5
#: string-substring entries checked per kernel, besides the whole score.
SAMPLE = 2


def pair_stream(seed: int):
    rng = np.random.default_rng([seed, 0])
    while True:
        yield dna_pair(rng, N)


def _setup(seed: int, k: int):
    """Spawn the pool and run one warm-up kernel; returns the machine,
    the seconds it took and the warm-up ``(a, b, perm)``."""
    a, b = dna_pair(np.random.default_rng([seed, 3, k]), WARM_N)
    t0 = time.perf_counter()
    machine = make_machine("processes", workers=WORKERS, transport="shm")
    perm = parallel_hybrid_combing_grid(a, b, machine)
    return machine, time.perf_counter() - t0, (a, b, perm)


def verify(kernels, seed: int) -> Verifier:
    """Whole score of every kernel plus a seeded sample of
    ``LCS(a, b[l:r])`` entries, against the DP."""
    rng = np.random.default_rng([seed, 2])
    v = Verifier()
    for a, b, perm in kernels:
        kern = SemiLocalKernel(perm, len(a), len(b))
        checks = [(kern.lcs_whole(), lcs(a, b))]
        for _ in range(SAMPLE):
            lo, hi = sorted(int(x) for x in rng.integers(len(b) + 1, size=2))
            checks.append((kern.string_substring(lo, hi), lcs(a, b[lo:hi])))
        v.answer(f"kernel n={len(b)}", checks)
    return v


def _measure(seed: int, seconds: float, traced: bool) -> dict:
    tracer = get_tracer()
    shm_before = shm_segments()
    setups, warm = [], []
    machine = None
    for k in range(SETUPS):
        if machine is not None:
            machine.close()
        tracer.enabled = traced
        machine, took, warmed = _setup(seed, k)
        setups.append(took)
        warm.append(warmed)
    setup_events = tracer.events()
    tracer.reset()
    before = get_metrics().snapshot()
    kernels, times = [], []
    busy = 0.0
    try:
        for a, b in pair_stream(seed):
            if busy >= seconds:
                break
            t = time.perf_counter()
            perm = parallel_hybrid_combing_grid(a, b, machine)
            dt = time.perf_counter() - t
            busy += dt
            kernels.append((a, b, perm))
            times.append(dt)
        rss = peak_rss_mib() + sum(peak_rss_mib(pid) for pid in child_pids())
    finally:
        tracer.enabled = False
        machine.close()
    leaked = shm_segments() - shm_before
    return {
        "setups": setups, "warm": warm, "kernels": kernels, "times": times,
        "busy": busy, "rss": rss, "leaked": leaked, "events": tracer.events(),
        "setup_events": setup_events,
        "delta": diff_snapshots(get_metrics().snapshot(), before),
    }


def _summary(res: dict) -> dict:
    times = res["times"]
    p50 = median(times) * 1e3
    return {
        "setup_s": median(res["setups"]),
        "ops_per_s": len(times) / res["busy"],
        "cells_per_s": N * N * len(times) / res["busy"],
        "latency_p50_ms": p50,
        "latency_p99_ms": tail(times, 99)[0] * 1e3,
        "write_p50_ms": p50,
        "write_p90_ms": tail(times, 90)[0] * 1e3,
        "peak_rss_mb": res["rss"],
    }


def _check(res: dict, seed: int) -> tuple[int, int, list[str]]:
    v = verify(res["warm"] + res["kernels"], seed)
    notes = v.examples + [f"leaked shared-memory segment {n}" for n in sorted(res["leaked"])]
    return len(res["warm"]) + len(res["kernels"]), v.wrong + len(res["leaked"]), notes


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    if not trace:
        res = _measure(seed, seconds, traced=False)
        attempted, failed, notes = _check(res, seed)
        notes.insert(0, f"{len(res['times'])} kernels at n={N}")
        return Outcome(attempted, failed, end_to_end(_summary(res)), notes)
    plain = _measure(seed, seconds / 2, traced=False)
    tracing.install()
    res = _measure(seed, seconds / 2, traced=True)
    a, b, _perm = plain["kernels"][0]
    t = time.perf_counter()
    parallel_hybrid_combing_grid(a, b, make_machine("serial"))
    serial_s = time.perf_counter() - t
    att_plain, failed_plain, notes = _check(plain, seed)
    att, failed, notes_traced = _check(res, seed)
    attempted, failed = att_plain + att, failed_plain + failed
    metrics = tracing.layer_report(
        res["events"], res["delta"], window_s=res["busy"], workers=WORKERS,
        setup_events=res["setup_events"],
        extra={
            "failed_ratio": failed / attempted,
            "parallel.speedup_vs_serial": serial_s / plain["times"][0],
            **halves(_summary(plain), _summary(res)),
        },
    )
    return Outcome(attempted, failed, metrics, notes + notes_traced,
                   trace_events=res["setup_events"] + res["events"])
