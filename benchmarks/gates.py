"""Performance gates: four measured claims, one gate table, one report.

Each section measures one claim of the paper that matters in practice
and verifies every answer against the DP or sequential oracle:

- ``transport`` — shared-memory rounds (Figs. 4b/8): the hybrid grid on
  a real ProcessMachine under pickle and shm transport, bytes shipped;
- ``batch`` — lockstep batching: B pairs scored by per-pair loops and by
  the batch engine, in process and on a ProcessMachine;
- ``compute`` — the vectorized braid multiply: a warm microbenchmark
  against the scalar steady ant, and the single-pair grid ladder
  (scalar baseline vs the library multiply) with every config in a
  fresh subprocess, so each pays its own cold start;
- ``query`` — one kernel, many queries (Tiskin, arXiv:0707.3619): cold
  build vs cached ops, continued-comb append vs recomb, a store hit,
  and batched vs scalar dominance probes.

:data:`SECTIONS` holds each section's sizes, :data:`GATES` every bound;
:func:`check` walks the gate table over a report. A run writes one
``BENCH.json`` (schema ``repro-bench-gates/1``) and exits 1 if any gate
fails::

    PYTHONPATH=src python benchmarks/gates.py                  # full run
    PYTHONPATH=src python benchmarks/gates.py --quick --out BENCH.ci.json
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

import numpy as np

SCHEMA = "repro-bench-gates/1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (gate, section, metric path, comparison, full bound, quick bound).
#: In a path ``*`` means every key and ``max`` the largest size; a
#: ``None`` bound skips the row in that mode.
GATES = [
    ("transport.shm_ships_fewer_bytes", "transport", "reduction.*.shipped_x", ">", 1.0, 1.0),
    ("batch.speedup", "batch", "speedup.best_x", ">=", 5.0, 1.5),
    ("compute.vectorized_multiply", "compute", "microbench.speedup_x", ">=", 1.5, 1.5),
    ("compute.ladder_processes", "compute", "speedup_x.max.processes", ">=", 3.0, None),
    ("query.cached_lcs", "query", "runs.max.cached.lcs.speedup_vs_build_x", ">=", 20.0, 20.0),
    ("query.append_vs_recomb", "query", "runs.max.append_speedup_x", ">=", 1.0, 1.0),
    ("query.batched_probe", "query", "probes.wavelet_batched_speedup_x", ">=", 10.0, 10.0),
] + [
    (f"{section}.verified", section, "verified", "==", True, True)
    for section in ("transport", "batch", "compute", "query")
]

_COMPARE = {">": operator.gt, ">=": operator.ge, "==": operator.eq}

#: kwargs the batch section scores with, per-pair and lockstep alike
ALGO_KWARGS = {"blend": "arith", "use_16bit_when_possible": True}

#: the compute ladder: (config, scalar multiply?, REPRO_PRECALC_BUILD).
#: The baseline passes the scalar combined recursion with per-worker
#: scalar table builds; +vectorize is the library default.
LADDER = [("baseline", True, "scalar"), ("+vectorize", False, "vectorized")]


# -- verify ---------------------------------------------------------------


def _values(node, path: str) -> list:
    """Every value at *path* under *node*; ``[]`` when it is missing."""
    if not path:
        return [node]
    if not isinstance(node, dict) or not node:
        return []
    head, _, rest = path.partition(".")
    if head == "*":
        children = list(node.values())
    elif head == "max":
        children = [node[max(node, key=int)]]
    elif head in node:
        children = [node[head]]
    else:
        return []
    return [value for child in children for value in _values(child, rest)]


def _rows(quick: bool):
    """The gate rows active in this mode, as (gate, section, path, cmp, bound)."""
    for gate, section, path, cmp, full, quick_bound in GATES:
        bound = quick_bound if quick else full
        if bound is not None:
            yield gate, section, path, cmp, bound


def check(report: dict, quick: bool) -> list[str]:
    """Names of every gate *report* fails; a missing metric fails."""
    failed = []
    for gate, section, path, cmp, bound in _rows(quick):
        values = _values(report.get(section, {}), path)
        if not values or not all(_COMPARE[cmp](v, bound) for v in values):
            failed.append(gate)
    return failed


# -- measure --------------------------------------------------------------


def _codes(n: int):
    rng = np.random.default_rng(2021)
    return rng.integers(0, 4, n), rng.integers(0, 4, n)


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _best(fn, repeats: int) -> float:
    return min(_timed(fn)[0] for _ in range(repeats))


def transport(sizes, workers) -> dict:
    """Pickle vs shm bytes and wall time of the hybrid grid per size."""
    from repro.core.combing.iterative import iterative_combing_antidiag_simd
    from repro.core.combing.parallel import parallel_hybrid_combing_grid
    from repro.parallel import ProcessMachine

    runs, reduction = [], {}
    for n in sizes:
        a, b = _codes(n)
        oracle = iterative_combing_antidiag_simd(a, b)
        by = {}
        for kind in ("pickle", "shm"):
            with ProcessMachine(workers=workers, transport=kind) as machine:
                wall, kernel = _timed(lambda: parallel_hybrid_combing_grid(a, b, machine))
                stats = machine.transport_stats()
            by[kind] = {
                "n": n,
                "transport": kind,
                "transport_active": stats["transport_active"],
                "bytes_shipped": stats["bytes_shipped"],
                "bytes_returned": stats["bytes_returned"],
                "wall_s": round(wall, 4),
                "verified": bool(np.array_equal(kernel, oracle)),
            }
            runs.append(by[kind])
        reduction[str(n)] = {
            f"{way}_x": round(by["pickle"][f"bytes_{way}"] / max(1, by["shm"][f"bytes_{way}"]), 2)
            for way in ("shipped", "returned")
        }
    return {
        "workers": workers,
        "runs": runs,
        "reduction": reduction,
        "verified": all(r["verified"] for r in runs),
    }


def batch(pairs, n, workers) -> dict:
    """Pairs/sec of per-pair loops vs the lockstep batch engine, in
    process and on a shm ProcessMachine; scores checked against the
    serial loop."""
    from repro import semilocal_lcs
    from repro.batch import batch_lcs
    from repro.batch.scheduler import _pair_score
    from repro.parallel import ProcessMachine, run_array_round

    rng = np.random.default_rng(2021)
    data = [(rng.integers(0, 4, n), rng.integers(0, 4, n)) for _ in range(pairs)]

    def mode(fn):
        wall, scores = _timed(fn)
        return wall, [int(s) for s in scores]

    runs = {
        "loop_serial": mode(lambda: [
            semilocal_lcs(a, b, "semi_antidiag_simd", **ALGO_KWARGS).lcs_whole()
            for a, b in data
        ]),
        "batch_serial": mode(lambda: batch_lcs(data, **ALGO_KWARGS)),
    }
    with ProcessMachine(workers=workers, transport="shm") as machine:
        specs = [(_pair_score, ("semi_antidiag_simd", a, b, ALGO_KWARGS), {}) for a, b in data]
        runs["loop_processes"] = mode(lambda: run_array_round(machine, specs))
    with ProcessMachine(workers=workers, transport="shm") as machine:
        runs["batch_processes"] = mode(lambda: batch_lcs(data, machine=machine, **ALGO_KWARGS))

    wall = {name: w for name, (w, _) in runs.items()}
    speedup = {
        "serial_x": round(wall["loop_serial"] / wall["batch_serial"], 2),
        "processes_x": round(wall["loop_processes"] / wall["batch_processes"], 2),
    }
    speedup["best_x"] = max(speedup.values())
    reference = runs["loop_serial"][1]
    return {
        "pairs": pairs,
        "n": n,
        "workers": workers,
        "transport": "shm",
        "runs": {
            name: {"wall_s": round(w, 4), "pairs_per_s": round(pairs / w, 1)}
            for name, w in wall.items()
        },
        "speedup": speedup,
        "verified": all(scores == reference for _, scores in runs.values()),
    }


def _microbench(n: int = 4096, repeats: int = 3) -> dict:
    """Warm vectorized-vs-scalar steady-ant multiply of one large pair."""
    from repro.core.steady_ant import (
        steady_ant_combined,
        steady_ant_vectorized,
        warm_compute_kernels,
    )

    rng = np.random.default_rng(7)
    p, q = rng.permutation(n), rng.permutation(n)
    warm_compute_kernels(2 * n)
    want = steady_ant_combined(p, q)  # warms the scalar path
    verified = bool(np.array_equal(steady_ant_vectorized(p, q), want))
    scalar = _best(lambda: steady_ant_combined(p, q), repeats)
    vectorized = _best(lambda: steady_ant_vectorized(p, q), repeats)
    return {
        "n": n,
        "scalar_s": round(scalar, 4),
        "vectorized_s": round(vectorized, 4),
        "speedup_x": round(scalar / vectorized, 2),
        "verified": verified,
    }


def _ladder_point(spec: dict) -> dict:
    """One cold grid run of the ladder; runs in a fresh subprocess."""
    from repro.core.combing.iterative import iterative_combing_antidiag_simd
    from repro.core.combing.parallel import parallel_hybrid_combing_grid
    from repro.core.steady_ant import steady_ant_combined
    from repro.parallel import ProcessMachine, SerialMachine

    a, b = _codes(spec["n"])
    oracle = iterative_combing_antidiag_simd(a, b)
    toggles = {"multiply": steady_ant_combined} if spec["scalar_multiply"] else {}
    if spec["machine"] == "serial":
        machine = nullcontext(SerialMachine())
    else:
        machine = ProcessMachine(workers=spec["workers"], transport="shm")
    with machine as m:
        wall, kernel = _timed(lambda: parallel_hybrid_combing_grid(a, b, m, **toggles))
    return {
        "wall_s": round(wall, 4),
        "verified": bool(np.array_equal(np.asarray(kernel, dtype=np.int64), oracle)),
    }


def _in_subprocess(spec: dict, precalc_build: str) -> dict:
    env = dict(os.environ, REPRO_PRECALC_BUILD=precalc_build)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", json.dumps(spec)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def compute(sizes, workers) -> dict:
    """The multiply microbenchmark plus the grid ladder at each size on a
    serial and a shm process machine (no sizes: microbenchmark only)."""
    micro = _microbench()
    runs, speedup = [], {}
    for n in sizes:
        for machine in ("serial", "processes"):
            wall = {}
            for config, scalar, precalc_build in LADDER:
                spec = {"n": n, "machine": machine, "workers": workers,
                        "scalar_multiply": scalar}
                rec = {"n": n, "machine": machine, "config": config,
                       **_in_subprocess(spec, precalc_build)}
                runs.append(rec)
                wall[config] = rec["wall_s"]
            speedup.setdefault(str(n), {})[machine] = round(
                wall["baseline"] / wall["+vectorize"], 2
            )
    return {
        "workers": workers,
        "microbench": micro,
        "runs": runs,
        "speedup_x": speedup,
        "verified": micro["verified"] and all(r["verified"] for r in runs),
    }


def _strings(n: int):
    return tuple("".join("ACGT"[i] for i in codes) for codes in _codes(n))


def _query_size(n: int, repeats: int) -> dict:
    """Cold build vs every cached op, append vs recomb, and a store hit."""
    from repro.baselines.lcs_dp import lcs_score_dp
    from repro.checkpoint import KernelStore
    from repro.query import QueryEngine

    a, b = _strings(n)
    window = max(16, n // 16)
    # every repetition builds on its own fresh engine, so each is cold
    build_s = _best(lambda: QueryEngine().lcs(a, b), repeats)

    warm = QueryEngine()
    verified = warm.lcs(a, b) == lcs_score_dp(a, b) if n <= 4096 else True
    ops = {
        "lcs": (lambda: warm.lcs(a, b), 1),
        "windowed_lcs": (lambda: warm.windowed_lcs(a, b, window), n - window + 1),
        "all_prefix_scores": (lambda: warm.all_prefix_scores(a, b), n + 1),
        "all_suffix_scores": (lambda: warm.all_suffix_scores(a, b), n + 1),
        "substring_threshold_matches": (
            lambda: warm.substring_threshold_matches(a, b, 0.5, window=window),
            n - window + 1,
        ),
    }
    cached = {}
    for name, (fn, counts) in ops.items():
        op_s = _best(fn, repeats)
        cached[name] = {
            "op_s": round(op_s, 6),
            "per_count_us": round(op_s / counts * 1e6, 3),
            "speedup_vs_build_x": round(build_s / op_s, 1),
        }

    # The base kernel is installed outside the timed region: the query
    # tier's premise is that it is already cached.
    suffix = a[: max(8, n // 64)]
    base_perm = warm.kernel(a, b).kernel
    append_s = recomb_s = float("inf")
    for _ in range(repeats):
        eng = QueryEngine()
        eng.install_kernel(a, b, base_perm)
        append_s = min(append_s, _timed(lambda: eng.append(a, suffix, b))[0])
        recomb_s = min(recomb_s, _timed(lambda: QueryEngine().kernel(a + suffix, b))[0])

    with tempfile.TemporaryDirectory() as root:
        QueryEngine(store=KernelStore(root)).lcs(a, b)
        store_hit_s = _best(lambda: QueryEngine(store=KernelStore(root)).lcs(a, b), repeats)

    return {
        "n": n,
        "window": window,
        "suffix_len": len(suffix),
        "verified": bool(verified),
        "build_s": round(build_s, 6),
        "cached": cached,
        "append_s": round(append_s, 6),
        "recomb_s": round(recomb_s, 6),
        "append_speedup_x": round(recomb_s / append_s, 2),
        "store_hit_s": round(store_hit_s, 6),
        "store_hit_speedup_x": round(build_s / store_hit_s, 1),
    }


def _query_probes(n: int, repeats: int) -> dict:
    """The ``all_prefix_scores`` probe set (``i = m``, ``j = 0..n``): one
    batched ``WaveletCounter.count_many`` descent vs a Python loop of
    scalar merge-sort-tree counts, outputs checked against the DP table."""
    from repro.baselines.lcs_dp import lcs_table
    from repro.core.dominance import DominanceCounter, WaveletCounter
    from repro.query import QueryEngine

    a, b = _strings(n)
    kern = QueryEngine().kernel(a, b)
    m = kern.m
    tree = DominanceCounter(kern.kernel)
    wavelet = WaveletCounter(kern.kernel)
    js = np.arange(n + 1, dtype=np.int64)
    is_ = np.full_like(js, m)

    def scalar_loop():
        return [tree.count(m, int(j)) for j in js]

    def batched():
        return wavelet.count_many(is_, js)

    counts = np.asarray(batched())
    verified = np.array_equal((js + m - is_) - counts, lcs_table(a, b)[-1, :]) and (
        np.array_equal(counts, np.asarray(scalar_loop()))
    )
    scalar_s = _best(scalar_loop, repeats)
    batched_s = _best(batched, repeats)
    tree_batched_s = _best(lambda: tree.count_many(is_, js), repeats)
    return {
        "n": n,
        "probes": int(js.size),
        "verified": bool(verified),
        "scalar_tree_loop_s": round(scalar_s, 6),
        "wavelet_count_many_s": round(batched_s, 6),
        "tree_count_many_s": round(tree_batched_s, 6),
        "wavelet_batched_speedup_x": round(scalar_s / batched_s, 1),
        "tree_batched_speedup_x": round(scalar_s / tree_batched_s, 1),
    }


def query(sizes, repeats, probe_n) -> dict:
    """The query tier at each size plus the batched-probe section."""
    runs = {str(n): _query_size(n, repeats) for n in sizes}
    probes = _query_probes(probe_n, repeats)
    return {
        "runs": runs,
        "probes": probes,
        "verified": probes["verified"] and all(r["verified"] for r in runs.values()),
    }


#: section -> (measure function, full-run kwargs, quick-run kwargs);
#: the quick sizes are the CI smoke run
SECTIONS = {
    "transport": (transport, {"sizes": [2048, 8192], "workers": 4},
                  {"sizes": [1024, 4096], "workers": 4}),
    "batch": (batch, {"pairs": 64, "n": 1024, "workers": 4},
              {"pairs": 32, "n": 256, "workers": 2}),
    "compute": (compute, {"sizes": [2048, 8192], "workers": 4},
                {"sizes": [], "workers": 4}),
    "query": (query, {"sizes": [1024, 4096], "repeats": 3, "probe_n": 8192},
              {"sizes": [4096], "repeats": 2, "probe_n": 8192}),
}


# -- render ---------------------------------------------------------------


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def build_report(sections: dict, quick: bool) -> dict:
    """The versioned ``BENCH.json`` document: one key per section."""
    return {"schema": SCHEMA, "commit": _commit(), "quick": quick, **sections}


def render_summary(report: dict, quick: bool) -> str:
    """One line per active gate: status, measured value(s) and bound."""
    failed = set(check(report, quick))
    lines = [f"{report['schema']} at {report['commit']} ({'quick' if quick else 'full'})"]
    for gate, section, path, cmp, bound in _rows(quick):
        got = ", ".join(map(str, _values(report.get(section, {}), path))) or "missing"
        lines.append(f"{'FAIL' if gate in failed else 'ok':4}  {gate:34} {got} {cmp} {bound}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="the CI smoke sizes of every section")
    parser.add_argument("--out", default="BENCH.json", help="report path (default: BENCH.json)")
    parser.add_argument("--one", help=argparse.SUPPRESS)  # one cold ladder point
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(_ladder_point(json.loads(args.one))))
        return 0

    sections = {}
    for name, (measure, full, quick) in SECTIONS.items():
        start = time.perf_counter()
        sections[name] = measure(**(quick if args.quick else full))
        print(f"{name}: measured in {time.perf_counter() - start:.1f}s", flush=True)
    report = build_report(sections, args.quick)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(render_summary(report, args.quick))
    print(f"wrote {args.out}")
    return 1 if check(report, args.quick) else 0


if __name__ == "__main__":
    raise SystemExit(main())
