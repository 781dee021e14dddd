"""One entry point per figure of the paper's evaluation (§5).

Every function measures the same series the paper plots and returns a
:class:`repro.bench.harness.BenchTable`. Absolute times differ from the
paper (CPython + NumPy vs C++/OpenMP/AVX; sizes scaled down accordingly)
— the claims under reproduction are the *shapes*: orderings, speedup
factors, crossover and saturation points. EXPERIMENTS.md records
paper-vs-measured for each figure.

Thread-scaling figures run on the deterministic
:class:`repro.parallel.simulator.SimulatedMachine` by default (see
DESIGN.md on the GIL substitution); pass ``machine_factory`` to use real
processes where the task grain permits.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..baselines.prefix_lcs import prefix_lcs_antidiag_simd, prefix_lcs_rowmajor
from ..core.bitparallel.bitlcs import bit_lcs
from ..core.bitparallel.parallel import bit_lcs_parallel
from ..core.combing.hybrid import hybrid_combing, hybrid_combing_grid
from ..core.combing.iterative import (
    iterative_combing_antidiag,
    iterative_combing_antidiag_simd,
    iterative_combing_load_balanced,
    iterative_combing_rowmajor,
)
from ..core.combing.parallel import (
    parallel_hybrid_combing_grid,
    parallel_iterative_combing,
    parallel_load_balanced_combing,
)
from ..core.steady_ant import (
    steady_ant_combined,
    steady_ant_memory,
    steady_ant_precalc,
    steady_ant_sequential,
)
from ..core.steady_ant.parallel import steady_ant_parallel
from ..datasets.genomes import virus_pair
from ..datasets.synthetic import binary_pair, synthetic_pair
from ..parallel.simulator import SimulatedMachine
from .harness import BenchTable, scaled, time_call, with_phase_notes

DEFAULT_THREADS = (1, 2, 3, 4, 5, 6, 7, 8)


def _sim_factory(workers: int) -> SimulatedMachine:
    return SimulatedMachine(workers=workers)


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------


@with_phase_notes
def fig4a_braid_mult_optimizations(
    sizes: Sequence[int] | None = None, *, repeats: int = 3, seed: int = 0
) -> BenchTable:
    """Fig. 4a: speedup of the precalc / memory / combined optimizations
    of sequential braid multiplication over the base algorithm."""
    if sizes is None:
        sizes = [scaled(s) for s in (2_000, 8_000, 32_000, 128_000)]
    rng = np.random.default_rng(seed)
    table = BenchTable(
        "Fig 4a: braid multiplication optimizations (speedup vs base)",
        ["n", "base_s", "precalc_x", "memory_x", "combined_x"],
    )
    for n in sizes:
        p, q = rng.permutation(n), rng.permutation(n)
        t_base = time_call(lambda: steady_ant_sequential(p, q), repeats=repeats)
        t_pre = time_call(lambda: steady_ant_precalc(p, q), repeats=repeats)
        t_mem = time_call(lambda: steady_ant_memory(p, q), repeats=repeats)
        t_comb = time_call(lambda: steady_ant_combined(p, q), repeats=repeats)
        table.add(n, t_base, t_base / t_pre, t_base / t_mem, t_base / t_comb)
    table.note("paper: speedups decrease with n, combined ~1.75x at the largest size")
    return table


@with_phase_notes
def fig4b_parallel_braid_mult(
    n: int | None = None,
    thresholds: Sequence[int] = (0, 1, 2, 3, 4, 5, 6),
    *,
    workers: int = 8,
    machine_factory: Callable[[int], object] = _sim_factory,
    seed: int = 0,
) -> BenchTable:
    """Fig. 4b: parallel steady-ant speedup vs task-spawn threshold."""
    n = scaled(100_000) if n is None else n
    rng = np.random.default_rng(seed)
    p, q = rng.permutation(n), rng.permutation(n)
    base = time_call(lambda: steady_ant_combined(p, q), repeats=2)
    table = BenchTable(
        f"Fig 4b: parallel braid multiplication, n={n}, {workers} workers",
        ["threshold_depth", "simulated_s", "speedup_vs_sequential"],
    )
    for depth in thresholds:
        machine = machine_factory(workers)
        steady_ant_parallel(p, q, machine=machine, depth=depth)
        table.add(depth, machine.elapsed, base / machine.elapsed if machine.elapsed else float("nan"))
    table.note("paper: optimum at threshold 4, speedup ~3.7x")
    return table


@with_phase_notes
def fig4c_load_balanced_overhead(
    sizes: Sequence[int] | None = None, *, repeats: int = 3, sigma: float = 1.0, seed: int = 0
) -> BenchTable:
    """Fig. 4c: sequential iterative vs load-balanced combing, plus the
    share of braid multiplication inside the latter."""
    if sizes is None:
        sizes = [scaled(s) for s in (2_000, 4_000, 8_000, 16_000)]
    table = BenchTable(
        "Fig 4c: basic vs load-balanced iterative combing (sequential)",
        ["n", "iterative_s", "load_balanced_s", "braid_mult_share"],
    )
    for n in sizes:
        a, b = synthetic_pair(n, n, sigma, seed=seed)
        t_iter = time_call(lambda: iterative_combing_antidiag_simd(a, b), repeats=repeats)

        import time as _time

        mult_time = [0.0]

        def timed_multiply(p, q):
            start = _time.perf_counter()
            r = steady_ant_combined(p, q)
            mult_time[0] += _time.perf_counter() - start
            return r

        iterative_combing_load_balanced(a, b, multiply=timed_multiply)  # warmup
        mult_time[0] = 0.0
        start = _time.perf_counter()
        iterative_combing_load_balanced(a, b, multiply=timed_multiply)
        t_lb = _time.perf_counter() - start
        share = mult_time[0] / t_lb if t_lb else 0.0
        table.add(n, t_iter, t_lb, min(1.0, share))
    table.note("paper: the two variants are close; braid mult is a small fraction")
    return table


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------


@with_phase_notes
def fig5_semilocal_vs_prefix(
    lengths: Sequence[int] | None = None,
    *,
    sigma: float = 1.0,
    repeats: int = 2,
    include_scalar: bool = False,
    seed: int = 0,
) -> BenchTable:
    """Fig. 5 (synthetic): running times of the prefix-LCS baselines and
    the semi-local iterative-combing family.

    ``include_scalar`` adds the pure-Python scalar variants
    (``semi_rowmajor``, ``semi_antidiag``); they are orders of magnitude
    slower in CPython, so keep lengths small when enabling them.
    """
    if lengths is None:
        lengths = [scaled(s) for s in (1_000, 2_000, 4_000, 8_000)]
    cols = ["n", "prefix_rowmajor_s", "prefix_antidiag_simd_s", "semi_antidiag_simd_s", "semi_load_balanced_s"]
    if include_scalar:
        cols += ["semi_rowmajor_s", "semi_antidiag_s"]
    table = BenchTable(f"Fig 5: semi-local vs prefix LCS (synthetic, sigma={sigma})", cols)
    for n in lengths:
        a, b = synthetic_pair(n, n, sigma, seed=seed)
        row = [
            n,
            time_call(lambda: prefix_lcs_rowmajor(a, b), repeats=repeats),
            time_call(lambda: prefix_lcs_antidiag_simd(a, b), repeats=repeats),
            time_call(lambda: iterative_combing_antidiag_simd(a, b), repeats=repeats),
            time_call(lambda: iterative_combing_load_balanced(a, b), repeats=repeats),
        ]
        if include_scalar:
            row.append(time_call(lambda: iterative_combing_rowmajor(a, b), repeats=1))
            row.append(time_call(lambda: iterative_combing_antidiag(a, b), repeats=1))
        table.add(*row)
    table.note("paper: semi-local combing is comparable to prefix LCS; SIMD wins")
    return table


@with_phase_notes
def fig5_real_genomes(
    presets: Sequence[str] = ("phage-ms2", "hiv"), *, repeats: int = 2, seed: int = 0
) -> BenchTable:
    """Fig. 5 (real-life): same comparison on simulated virus genomes."""
    table = BenchTable(
        "Fig 5: semi-local vs prefix LCS (virus genomes)",
        ["preset", "m", "n", "prefix_rowmajor_s", "prefix_antidiag_simd_s", "semi_antidiag_simd_s"],
    )
    for preset in presets:
        a, b = virus_pair(preset, seed=seed)
        table.add(
            preset,
            len(a),
            len(b),
            time_call(lambda: prefix_lcs_rowmajor(a, b), repeats=repeats),
            time_call(lambda: prefix_lcs_antidiag_simd(a, b), repeats=repeats),
            time_call(lambda: iterative_combing_antidiag_simd(a, b), repeats=repeats),
        )
    return table


@with_phase_notes
def fig5_blend_ablation(
    n: int | None = None, *, sigmas: Sequence[float] = (0.5, 1.0, 4.0), repeats: int = 2, seed: int = 0
) -> BenchTable:
    """§4.1 ablation: branch-elimination idioms of the SIMD inner loop
    (masked stores vs full-write select vs the in-place arithmetic swap
    vs bitwise blend)."""
    n = scaled(4_000) if n is None else n
    table = BenchTable(
        f"Fig 5 ablation: inner-loop blend idioms, n={n}",
        ["sigma", "masked_s", "where_s", "arith_s", "bitwise_s", "where_16bit_s"],
    )
    # the four idiom columns comb int64 strands; the last one is the
    # where idiom again with 16-bit strands
    rungs = [
        {"blend": "masked", "dtype": np.int64},
        {"blend": "where", "dtype": np.int64},
        {"blend": "arith", "dtype": np.int64},
        {"blend": "bitwise", "dtype": np.int64},
        {"blend": "where", "use_16bit_when_possible": True},
    ]
    for sigma in sigmas:
        a, b = synthetic_pair(n, n, sigma, seed=seed)
        table.add(
            sigma,
            *(
                time_call(lambda kw=kw: iterative_combing_antidiag_simd(a, b, **kw), repeats=repeats)
                for kw in rungs
            ),
        )
    table.note("paper: branchless SIMD gives 5.5-6x over branching; masked ~ branching")
    return table


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------


@with_phase_notes
def fig6_hybrid_threshold(
    lengths: Sequence[int] | None = None,
    depths: Sequence[int] = (0, 1, 2, 3, 4, 5),
    *,
    sigma: float = 1.0,
    repeats: int = 2,
    seed: int = 0,
) -> BenchTable:
    """Fig. 6: sequential cost of hybrid combing vs recursion depth."""
    if lengths is None:
        # floor each length: below it, composition overhead noise hides
        # the depth/length trend the figure is about
        lengths = [max(scaled(s), f) for s, f in ((1_000, 500), (4_000, 2_000), (16_000, 8_000))]
    table = BenchTable(
        "Fig 6: hybrid combing threshold-depth tradeoff (sequential)",
        ["n", "depth", "time_s", "slowdown_vs_depth0"],
    )
    for n in lengths:
        a, b = synthetic_pair(n, n, sigma, seed=seed)
        base = None
        for depth in depths:
            t = time_call(lambda: hybrid_combing(a, b, depth), repeats=repeats)
            if base is None:
                base = t
            table.add(n, depth, t, t / base)
    table.note("paper: deeper thresholds cost sequential time; optimum depth grows with n")
    return table


# ---------------------------------------------------------------------------
# Figures 7 and 8
# ---------------------------------------------------------------------------

_PARALLEL_SEMILOCAL = {
    "semi_antidiag_simd": lambda a, b, mach: parallel_iterative_combing(a, b, mach),
    "semi_load_balanced": lambda a, b, mach: parallel_load_balanced_combing(a, b, mach),
    "semi_hybrid_iterative": lambda a, b, mach: parallel_hybrid_combing_grid(a, b, mach),
}


@with_phase_notes
def fig7_threads(
    n: int | None = None,
    threads: Sequence[int] = DEFAULT_THREADS,
    *,
    sigma: float = 1.0,
    machine_factory: Callable[[int], object] = _sim_factory,
    seed: int = 0,
) -> BenchTable:
    """Fig. 7: running time vs thread count for three semi-local
    implementations (simulated machine by default)."""
    n = scaled(20_000) if n is None else n
    a, b = synthetic_pair(n, n, sigma, seed=seed)
    table = BenchTable(
        f"Fig 7: running time vs threads, synthetic n={n}",
        ["threads"] + [f"{name}_s" for name in _PARALLEL_SEMILOCAL],
    )
    for t in threads:
        row = [t]
        for fn in _PARALLEL_SEMILOCAL.values():
            machine = machine_factory(t)
            fn(a, b, machine)
            row.append(machine.elapsed)
        table.add(*row)
    table.note("paper: hybrid beats iterative; load-balancing overhead visible")
    return table


@with_phase_notes
def fig8_scalability(
    n: int | None = None,
    threads: Sequence[int] = DEFAULT_THREADS,
    *,
    dataset: str = "synthetic",
    sigma: float = 1.0,
    machine_factory: Callable[[int], object] = _sim_factory,
    seed: int = 0,
) -> BenchTable:
    """Fig. 8: parallel speedup (t1 / tp) of the semi-local algorithms on
    synthetic strings or genome pairs."""
    if dataset == "synthetic":
        n = scaled(20_000) if n is None else n
        a, b = synthetic_pair(n, n, sigma, seed=seed)
        title = f"Fig 8: speedup, synthetic n={n}"
    else:
        a, b = virus_pair(dataset, seed=seed)
        title = f"Fig 8: speedup, genomes ({dataset}: {len(a)} x {len(b)})"
    table = BenchTable(title, ["threads"] + [f"{name}_x" for name in _PARALLEL_SEMILOCAL])
    base: dict[str, float] = {}
    for t in threads:
        row = [t]
        for name, fn in _PARALLEL_SEMILOCAL.items():
            machine = machine_factory(t)
            fn(a, b, machine)
            if t == threads[0]:
                base[name] = machine.elapsed * t  # normalize to 1-thread cost
            row.append(base[name] / machine.elapsed if machine.elapsed else float("nan"))
        table.add(*row)
    table.note("paper: up to ~4-5x on 7 threads; hybrid erratic under bad partitions")
    return table


# ---------------------------------------------------------------------------
# Figure 9
# ---------------------------------------------------------------------------


@with_phase_notes
def fig9a_bit_memory_optimization(
    n: int | None = None,
    threads: Sequence[int] = (1, 2, 4, 8, 16),
    *,
    machine_factory: Callable[[int], object] = _sim_factory,
    seed: int = 0,
) -> BenchTable:
    """Fig. 9a: bit_old vs bit_new_1 across thread counts.

    The per-step gather/scatter penalty of ``bit_old`` only rises above
    NumPy noise for n >~ 1.5e4, so the default size is floored there.
    (The paper's 4.5x at 16 threads is dominated by hardware false
    sharing, which a simulated machine cannot exhibit; we reproduce the
    direction and the single-thread memory-traffic penalty, ~1.2-1.3x.)
    """
    n = max(scaled(30_000), 16_000) if n is None else n
    a, b = binary_pair(n, n, seed=seed)
    table = BenchTable(
        f"Fig 9a: bit-parallel memory-access optimization, binary n={n}",
        ["threads", "bit_old_s", "bit_new_1_s", "speedup_x"],
    )
    for t in threads:
        m_old = machine_factory(t)
        bit_lcs_parallel(a, b, m_old, variant="old")
        m_new = machine_factory(t)
        bit_lcs_parallel(a, b, m_new, variant="new1")
        table.add(t, m_old.elapsed, m_new.elapsed, m_old.elapsed / m_new.elapsed)
    table.note("paper: up to 4.5x at 16 threads (false-sharing elimination)")
    return table


@with_phase_notes
def fig9b_bit_formula_optimization(
    n: int | None = None, *, repeats: int = 3, seed: int = 0
) -> BenchTable:
    """Fig. 9b: original vs optimized Boolean formula (paper: ~1.48x)."""
    n = scaled(30_000) if n is None else n
    a, b = binary_pair(n, n, seed=seed)
    t1 = time_call(lambda: bit_lcs(a, b, variant="new1"), repeats=repeats)
    t2 = time_call(lambda: bit_lcs(a, b, variant="new2"), repeats=repeats)
    table = BenchTable(
        f"Fig 9b: optimized Boolean formula, binary n={n}",
        ["variant", "time_s", "speedup_vs_new1"],
    )
    table.add("bit_new_1", t1, 1.0)
    table.add("bit_new_2", t2, t1 / t2)
    table.note("paper: formula optimization gives ~1.48x")
    return table


@with_phase_notes
def fig9cd_binary_scalability(
    n: int | None = None,
    threads: Sequence[int] = (1, 2, 4, 8),
    *,
    machine_factory: Callable[[int], object] = _sim_factory,
    seed: int = 0,
) -> BenchTable:
    """Fig. 9c/9d: simulated speedup on long binary strings of bit_new_2,
    wavefront iterative combing, and the hybrid semi-local algorithm.

    The paper reports near-linear speedup (hybrid: 7.95x on 8 cores at
    n = 10^6). At Python-reachable sizes the hybrid is bound by its
    sequential braid multiplications (whose share shrinks as O(1/n) —
    see Fig. 4c), so its curve is flat here; the bit-parallel and
    wavefront curves reproduce the paper's shape.
    """
    n = scaled(30_000) if n is None else n
    a, b = binary_pair(n, n, seed=seed)
    table = BenchTable(
        f"Fig 9c/9d: scalability on binary strings, n={n}",
        ["threads", "bit_new2_x", "semi_iterative_x", "semi_hybrid_x"],
    )
    base_bit = base_it = base_hyb = None
    for t in threads:
        mb = machine_factory(t)
        bit_lcs_parallel(a, b, mb, variant="new2")
        mi = machine_factory(t)
        parallel_iterative_combing(a, b, mi)
        mh = machine_factory(t)
        parallel_hybrid_combing_grid(a, b, mh)
        if base_bit is None:
            base_bit, base_it, base_hyb = mb.elapsed, mi.elapsed, mh.elapsed
        table.add(t, base_bit / mb.elapsed, base_it / mi.elapsed, base_hyb / mh.elapsed)
    table.note("paper: near-linear, ~7.95x on 8 cores at 10^6")
    return table


@with_phase_notes
def fig9e_bit_vs_semilocal(
    n: int | None = None, *, repeats: int = 2, seed: int = 0
) -> BenchTable:
    """Fig. 9e: bit-parallel vs hybrid vs iterative combing on binary
    strings (paper: bit is ~16x and ~29x faster respectively).

    In Python the bit-parallel/integer-combing crossover sits near
    n ~ 4e3 (NumPy call overhead dominates below it), so the default size
    is floored to stay in the regime the paper's claim addresses.
    """
    n = max(scaled(12_000), 8_000) if n is None else n
    a, b = binary_pair(n, n, seed=seed)
    t_bit = time_call(lambda: bit_lcs(a, b, variant="new2"), repeats=repeats)
    t_hyb = time_call(lambda: hybrid_combing_grid(a, b, 8), repeats=repeats)
    t_it = time_call(lambda: iterative_combing_antidiag_simd(a, b), repeats=repeats)
    table = BenchTable(
        f"Fig 9e: bit-parallel vs semi-local on binary strings, n={n}",
        ["algorithm", "time_s", "slowdown_vs_bit"],
    )
    table.add("bit_new_2", t_bit, 1.0)
    table.add("semi_hybrid_iterative", t_hyb, t_hyb / t_bit)
    table.add("semi_antidiag_simd (iterative)", t_it, t_it / t_bit)
    table.note("paper: hybrid ~16x, iterative ~29x slower than bit-parallel")
    return table


#: Registry used by the CLI and the pytest benchmark suite.
FIGURES: dict[str, Callable[..., BenchTable]] = {
    "fig4a": fig4a_braid_mult_optimizations,
    "fig4b": fig4b_parallel_braid_mult,
    "fig4c": fig4c_load_balanced_overhead,
    "fig5": fig5_semilocal_vs_prefix,
    "fig5-genomes": fig5_real_genomes,
    "fig5-blends": fig5_blend_ablation,
    "fig6": fig6_hybrid_threshold,
    "fig7": fig7_threads,
    "fig8": fig8_scalability,
    "fig9a": fig9a_bit_memory_optimization,
    "fig9b": fig9b_bit_formula_optimization,
    "fig9cd": fig9cd_binary_scalability,
    "fig9e": fig9e_bit_vs_semilocal,
}
