"""Query-tier benchmark: cold kernel build vs cached-query latency.

Measures, at each size (random 4-symbol strings):

- ``build_s`` — the cold path: one fresh :class:`repro.query.QueryEngine`
  combing the pair's semi-local kernel from scratch (what every query
  would cost without memoization);
- the cached per-op latency of every catalog query on the warm engine
  (``lcs``, ``windowed_lcs``, ``all_prefix_scores``,
  ``all_suffix_scores``, ``substring_threshold_matches``), plus the
  amortized per-dominance-count cost for the array-valued ops;
- ``append_s`` vs ``recomb_s`` — extending the pair by a short suffix by
  continuing the cached kernel's comb against recombing ``a + suffix``
  whole;
- ``store_hit_s`` — a second engine fetching the kernel from an on-disk
  :class:`~repro.checkpoint.store.KernelStore` instead of combing;
- the ``probes`` section — the batched-probe claim: the
  ``all_prefix_scores`` probe set (n + 1 dominance counts on one kernel)
  answered by one vectorized ``WaveletCounter.count_many`` descent vs a
  Python loop of scalar merge-sort-tree ``count`` calls, outputs
  verified against the brute-force DP table.

Usage::

    PYTHONPATH=src python benchmarks/bench_pr9_query.py \
        --sizes 1024 4096 --out BENCH_query.json --check

``--check`` exits non-zero unless, at the largest size, a cached ``lcs``
query is >= 20x faster than the cold kernel build (the one-kernel /
many-queries claim), the continued-comb append beats the full recomb, and
the batched wavelet probe beats the scalar merge-tree loop by >= 10x
with DP-verified outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import add_quick_flag, apply_quick, commit_hash  # noqa: E402

GATE_X = 20.0  # cached lcs query must beat the cold build by this factor
PROBE_GATE_X = 10.0  # batched wavelet probe vs scalar merge-tree loop
PROBE_N = 8192  # string length of the batched-probe measurement


def _strings(n: int, seed: int = 2021):
    import numpy as np

    rng = np.random.default_rng(seed)
    return (
        "".join("ACGT"[i] for i in rng.integers(0, 4, n)),
        "".join("ACGT"[i] for i in rng.integers(0, 4, n)),
    )


def _best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def measure_size(n: int, repeats: int) -> dict:
    from repro.baselines.lcs_dp import lcs_score_dp
    from repro.checkpoint import KernelStore
    from repro.query import QueryEngine

    a, b = _strings(n)
    window = max(16, n // 16)

    # cold build: a fresh engine combs the kernel (measured once per
    # repeat on its own engine so every repetition is honestly cold)
    def cold():
        QueryEngine().lcs(a, b)

    build_s = _best(cold, repeats)

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

    # Continued-comb append vs recombing the extended pair from scratch.
    # The base kernel is installed *outside* the timed region — the
    # query tier's whole premise is that it is already cached.
    suffix = a[: max(8, n // 64)]
    base_perm = warm.kernel(a, b).kernel
    append_times, recomb_times = [], []
    for _ in range(repeats):
        eng = QueryEngine()
        eng.install_kernel(a, b, base_perm)
        start = time.perf_counter()
        eng.append(a, suffix, b)
        append_times.append(time.perf_counter() - start)
        fresh = QueryEngine()
        start = time.perf_counter()
        fresh.kernel(a + suffix, b)
        recomb_times.append(time.perf_counter() - start)
    append_s = min(append_times)
    recomb_s = min(recomb_times)

    # disk-backed fetch: a second process-equivalent engine hits the store
    with tempfile.TemporaryDirectory() as root:
        seeded = QueryEngine(store=KernelStore(root))
        seeded.lcs(a, b)

        def store_hit():
            QueryEngine(store=KernelStore(root)).lcs(a, b)

        store_hit_s = _best(store_hit, repeats)

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


def measure_probes(n: int, repeats: int) -> dict:
    """Batched vs scalar dominance probing on the ``all_prefix_scores``
    probe set: ``i = m`` fixed, ``j = 0..n`` — one ``count_many`` descent
    carrying all n + 1 queries against a Python loop of scalar
    merge-sort-tree descents, outputs checked against the DP table."""
    import numpy as np

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

    # all three probe paths must turn into the same DP-verified scores
    prefix_scores = (js + m - is_) - np.asarray(batched())
    dp_scores = lcs_table(a, b)[-1, :]
    verified = (
        np.array_equal(prefix_scores, dp_scores)
        and np.array_equal(np.asarray(batched()), np.asarray(scalar_loop()))
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1024, 4096])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_query.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail unless cached lcs >= {GATE_X:.0f}x the cold build at the "
             "largest size, append beats the recomb, and the batched wavelet "
             f"probe beats the scalar merge-tree loop by >= {PROBE_GATE_X:.0f}x",
    )
    parser.add_argument(
        "--probe-n", type=int, default=PROBE_N,
        help=f"string length of the batched-probe section (default: {PROBE_N})",
    )
    add_quick_flag(parser, sizes=[1024], repeats=2, probe_n=2048)
    args = parser.parse_args(argv)
    apply_quick(args)

    runs = [measure_size(n, args.repeats) for n in args.sizes]
    probes = measure_probes(args.probe_n, args.repeats)
    for rec in runs:
        print(
            f"n={rec['n']:6d} build {rec['build_s'] * 1000:8.2f} ms | "
            f"cached lcs {rec['cached']['lcs']['op_s'] * 1e6:8.1f} us "
            f"({rec['cached']['lcs']['speedup_vs_build_x']}x) | "
            f"append {rec['append_speedup_x']}x recomb | "
            f"store hit {rec['store_hit_speedup_x']}x build"
        )
    print(
        f"probes n={probes['n']:6d} ({probes['probes']} counts): scalar tree loop "
        f"{probes['scalar_tree_loop_s'] * 1000:.2f} ms | wavelet count_many "
        f"{probes['wavelet_count_many_s'] * 1000:.2f} ms "
        f"({probes['wavelet_batched_speedup_x']}x) | tree count_many "
        f"{probes['tree_count_many_s'] * 1000:.2f} ms "
        f"({probes['tree_batched_speedup_x']}x)"
    )

    doc = {
        "schema": "repro-bench-query/1",
        "commit": commit_hash(),
        "gate_x": GATE_X,
        "probe_gate_x": PROBE_GATE_X,
        "probes": probes,
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        top = max(runs, key=lambda r: r["n"])
        failed = False
        if not all(r["verified"] for r in runs):
            print("CHECK FAILED: query result disagreed with the DP oracle")
            failed = True
        got = top["cached"]["lcs"]["speedup_vs_build_x"]
        if got < GATE_X:
            print(
                f"CHECK FAILED: n={top['n']} cached lcs {got}x < {GATE_X}x build"
            )
            failed = True
        if top["append_speedup_x"] < 1.0:
            print(
                f"CHECK FAILED: n={top['n']} append "
                f"{top['append_speedup_x']}x slower than recomb"
            )
            failed = True
        if not probes["verified"]:
            print("CHECK FAILED: batched probe outputs disagreed with the DP table")
            failed = True
        if probes["wavelet_batched_speedup_x"] < PROBE_GATE_X:
            print(
                f"CHECK FAILED: n={probes['n']} batched wavelet probe "
                f"{probes['wavelet_batched_speedup_x']}x < {PROBE_GATE_X}x "
                "scalar merge-tree loop"
            )
            failed = True
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
