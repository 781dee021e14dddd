"""Property tests for the compute toggles.

Every optimization is a pure scheduling/batching change, so each knob —
the grid's multiply, blend and strand dtype, the multi-diagonal bit
comber — must be *bit-identical* to its off position across random
inputs, and the library's vectorized steady ant must match the scalar
recursion it replaced.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitparallel import bit_lcs
from repro.core.combing.hybrid import hybrid_combing_grid
from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.core.steady_ant import (
    steady_ant_combined,
    steady_ant_sequential,
    steady_ant_vectorized,
)
from repro.parallel import SerialMachine

strings = st.text(alphabet="abcd", min_size=1, max_size=40)
perm_pairs = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.integers(1, 80).map(
        lambda n: (
            np.random.default_rng(seed).permutation(n),
            np.random.default_rng(seed + 1).permutation(n),
        )
    )
)


@given(perm_pairs)
@settings(max_examples=80, deadline=None)
def test_vectorized_equals_scalar(pq):
    p, q = pq
    assert np.array_equal(steady_ant_vectorized(p, q), steady_ant_sequential(p, q))


@given(strings, strings, st.sampled_from(["where", "masked", "arith", "bitwise", "minmax"]),
       st.booleans())
@settings(max_examples=30, deadline=None)
def test_all_toggle_combinations_agree(a, b, blend, use_16bit):
    machine = SerialMachine()
    want = hybrid_combing_grid(a, b, 3)
    for multiply in (steady_ant_combined, None):
        got = parallel_hybrid_combing_grid(
            a, b, machine, n_tasks=4, blend=blend, use_16bit=use_16bit,
            multiply=multiply,
        )
        assert np.array_equal(np.asarray(got, dtype=np.int64), want), multiply


bits = st.lists(st.integers(0, 1), min_size=1, max_size=200)


@given(bits, bits, st.sampled_from([1, 3, 8, 17, 32, 64]))
@settings(max_examples=60, deadline=None)
def test_multi_diag_equals_new2(xs, ys, w):
    a = np.array(xs, dtype=np.int64)
    b = np.array(ys, dtype=np.int64)
    assert bit_lcs(a, b, w=w, multi_diag=True) == bit_lcs(a, b, variant="new2", w=w)
