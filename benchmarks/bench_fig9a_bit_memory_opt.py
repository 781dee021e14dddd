"""Fig. 9a: bit_old vs bit_new_1 (memory-access optimization).

Paper result: loading words once per w x w block instead of once per
cell anti-diagonal improves multithreaded running time by up to 4.5x at
16 threads (false-sharing elimination); single-threaded it also helps.
"""

import numpy as np
import pytest

from repro.bench.figures import fig9a_bit_memory_optimization
from repro.bench.harness import scaled
from repro.core.bitparallel import bit_lcs
from repro.core.bitparallel.parallel import bit_lcs_parallel
from repro.datasets.synthetic import binary_pair
from repro.parallel import SimulatedMachine


@pytest.fixture(scope="module")
def pair():
    n = scaled(40_000)
    return binary_pair(n, n, seed=17)


@pytest.mark.parametrize("variant", ["old", "new1"])
def test_bit_variant(benchmark, variant, pair):
    a, b = pair
    benchmark.group = "fig9a bit-parallel memory optimization"
    benchmark.pedantic(bit_lcs, args=(a, b), kwargs={"variant": variant}, rounds=2, iterations=1)


def test_fig9a_table(benchmark, print_table):
    table = benchmark.pedantic(
        lambda: fig9a_bit_memory_optimization(threads=(1, 4, 8)), rounds=1, iterations=1
    )
    print_table(table)
    # new1 must beat old on average (paper's effect is larger on real
    # hardware via false-sharing, which the simulator cannot exhibit)
    speedups = [row[3] for row in table.rows]
    assert sum(speedups) / len(speedups) > 1.05, table.rows


def test_old_variant_not_faster():
    """Sanity bound on the Fig. 9a effect at a small size: the extra
    gather/scatter traffic of bit_old must never make it *significantly
    faster* than new1. At this size the expected ~1.2x penalty is within
    timing noise, hence the loose 0.8x bound; the table above carries
    the quantitative old-vs-new claim. A wall-clock ratio, so it lives
    here rather than in the deterministic unit suite."""
    rng = np.random.default_rng(0xC0FFEE)
    a = rng.integers(0, 2, size=16384).astype(np.int8)
    b = rng.integers(0, 2, size=16384).astype(np.int8)

    def run(variant):
        machine = SimulatedMachine(workers=1)
        bit_lcs_parallel(a, b, machine, variant=variant)
        return machine.elapsed

    run("old")  # warmup both code paths
    run("new1")
    t_new = min(run("new1") for _ in range(2))
    t_old = min(run("old") for _ in range(2))
    assert t_old > 0.8 * t_new
