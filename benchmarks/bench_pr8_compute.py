"""Compute-gap benchmark: the multiply ladder on single-pair grids.

Measures :func:`repro.core.combing.parallel.parallel_hybrid_combing_grid`
wall time for one pair at each size, on a serial machine and on a
4-worker shared-memory :class:`~repro.parallel.processes.ProcessMachine`,
stepping through the optimization ladder::

    baseline    multiply=steady_ant_combined, scalar precalc build
    +vectorize  the library multiply (level-vectorized steady ant, and
                the vectorized table build it warms) — the shipped default

The grid has one schedule (the pipelined dataflow of the Listing 7
plan), so the ladder varies only the multiply.

Every measurement runs in a *fresh subprocess* so each config pays its
honest cold start — the baseline reproduces PR 7 semantics exactly
(``REPRO_PRECALC_BUILD=scalar`` per-worker table builds included), which
is where most of the single-pair wall time lived. Every kernel is
verified against the sequential oracle before its time counts.

Also emits a steady-ant microbenchmark (vectorized vs scalar multiply of
one large permutation pair, warm) — the CI ``compute-perf-smoke`` job
gates on it with ``--check-micro`` (>= 1.5x).

Usage::

    PYTHONPATH=src python benchmarks/bench_pr8_compute.py \
        --sizes 2048 8192 --workers 4 --out BENCH_compute.json --check

``--check`` exits non-zero unless the default is >= 3x the baseline
at the largest size on the process machine; ``--check-micro`` gates only
the microbenchmark (cheap enough for CI smoke).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import add_quick_flag, apply_quick, commit_hash  # noqa: E402

# (config, scalar multiply?, precalc build); the baseline passes the
# scalar combined recursion explicitly, +vectorize the library default
LADDER = [
    ("baseline", True, "scalar"),
    ("+vectorize", False, "vectorized"),
]


def _measure_one(spec: dict) -> dict:
    """Run one (config, size, machine) measurement; returns the record.

    Executed inside a fresh subprocess (``--one``): imports, precalc
    builds and worker pools are all cold, exactly like a CLI run.
    """
    import numpy as np

    from repro.core.combing.iterative import iterative_combing_antidiag_simd
    from repro.core.combing.parallel import parallel_hybrid_combing_grid
    from repro.core.steady_ant import steady_ant_combined
    from repro.parallel import ProcessMachine, SerialMachine

    n = spec["n"]
    rng = np.random.default_rng(2021)
    a, b = rng.integers(0, 4, n), rng.integers(0, 4, n)
    oracle = iterative_combing_antidiag_simd(a, b)
    toggles = {"multiply": steady_ant_combined} if spec["scalar_multiply"] else {}
    if spec["machine"] == "serial":
        machine = SerialMachine()
        start = time.perf_counter()
        kernel = parallel_hybrid_combing_grid(a, b, machine, **toggles)
        wall = time.perf_counter() - start
    else:
        with ProcessMachine(workers=spec["workers"], transport="shm") as machine:
            start = time.perf_counter()
            kernel = parallel_hybrid_combing_grid(a, b, machine, **toggles)
            wall = time.perf_counter() - start
    return {
        "n": n,
        "machine": spec["machine"],
        "config": spec["config"],
        "wall_s": round(wall, 4),
        "verified": bool(np.array_equal(np.asarray(kernel, dtype=np.int64), oracle)),
    }


def run_subprocess(spec: dict, precalc_build: str) -> dict:
    env = dict(os.environ)
    env["REPRO_PRECALC_BUILD"] = precalc_build
    env.setdefault("PYTHONPATH", "src")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", json.dumps(spec)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def microbench(n: int = 4096, repeats: int = 3) -> dict:
    """Warm vectorized-vs-scalar steady-ant multiply of one large pair."""
    import numpy as np

    from repro.core.steady_ant import (
        steady_ant_combined,
        steady_ant_vectorized,
        warm_compute_kernels,
    )

    rng = np.random.default_rng(7)
    p, q = rng.permutation(n), rng.permutation(n)
    warm_compute_kernels(2 * n)
    steady_ant_vectorized(p, q)  # warm both paths before timing
    want = steady_ant_combined(p, q)

    def best(fn):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            got = fn(p, q)
            times.append(time.perf_counter() - start)
            assert np.array_equal(got, want)
        return min(times)

    scalar = best(steady_ant_combined)
    vectorized = best(steady_ant_vectorized)
    return {
        "n": n,
        "scalar_s": round(scalar, 4),
        "vectorized_s": round(vectorized, 4),
        "speedup_x": round(scalar / vectorized, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2048, 8192])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default="BENCH_compute.json")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the default is >= 3x baseline "
                             "at the largest size on the process machine")
    parser.add_argument("--check-micro", action="store_true",
                        help="fail unless the vectorized multiply microbench "
                             "is >= 1.5x scalar")
    parser.add_argument("--micro-only", action="store_true",
                        help="skip the grid ladder (CI smoke)")
    parser.add_argument("--one", help=argparse.SUPPRESS)
    add_quick_flag(parser, sizes=[1024], workers=2)
    args = parser.parse_args(argv)
    apply_quick(args)

    if args.one:
        print(json.dumps(_measure_one(json.loads(args.one))))
        return 0

    micro = microbench()
    print(f"microbench n={micro['n']}: scalar {micro['scalar_s']}s, "
          f"vectorized {micro['vectorized_s']}s ({micro['speedup_x']}x)")

    runs = []
    if not args.micro_only:
        for n in args.sizes:
            for machine in ("serial", "processes"):
                for config, scalar, precalc in LADDER:
                    spec = {"n": n, "machine": machine, "config": config,
                            "workers": args.workers, "scalar_multiply": scalar}
                    rec = run_subprocess(spec, precalc)
                    runs.append(rec)
                    print(f"n={n:6d} {machine:9s} {config:11s} "
                          f"{rec['wall_s']:8.3f}s verified={rec['verified']}")

    speedups: dict[str, dict[str, float]] = {}
    for n in args.sizes:
        for machine in ("serial", "processes"):
            sel = {r["config"]: r for r in runs
                   if r["n"] == n and r["machine"] == machine}
            if "baseline" in sel and "+vectorize" in sel:
                speedups.setdefault(str(n), {})[machine] = round(
                    sel["baseline"]["wall_s"] / sel["+vectorize"]["wall_s"], 2)

    doc = {
        "schema": "repro-bench-compute/1",
        "commit": commit_hash(),
        "workers": args.workers,
        "microbench": micro,
        "runs": runs,
        "speedup_x": speedups,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    failed = False
    if args.check_micro or args.check:
        if micro["speedup_x"] < 1.5:
            print(f"CHECK FAILED: microbench {micro['speedup_x']}x < 1.5x")
            failed = True
    if args.check and not args.micro_only:
        if any(not r["verified"] for r in runs):
            print("CHECK FAILED: unverified kernel")
            failed = True
        top = str(max(args.sizes))
        got = speedups.get(top, {}).get("processes", 0.0)
        if got < 3.0:
            print(f"CHECK FAILED: n={top} processes default {got}x < 3x")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
