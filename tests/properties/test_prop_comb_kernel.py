"""Properties of the one comb kernel (``comb_cells``).

The in-place arithmetic swap is the default inner loop of every
combing path, so each path must stay bit-identical to the scalar
Listing 1 oracle (``iterative_combing_rowmajor``) — including the
``m > n`` flip path, empty sides and ``1 x k`` grids, over small and
large alphabets — and the same kernel driven over a padded
``(positions, lanes)`` stack must reproduce every lane's own kernel.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import semilocal_lcs
from repro.batch.lockstep import pack_lanes
from repro.core.combing.hybrid import hybrid_combing, hybrid_combing_grid
from repro.core.combing.iterative import (
    _antidiag_ranges,
    _extract_kernel,
    comb_cells,
    iterative_combing_antidiag_simd,
    iterative_combing_load_balanced,
    iterative_combing_rowmajor,
)
from repro.core.combing.parallel import (
    parallel_hybrid_combing_grid,
    parallel_iterative_combing,
    parallel_load_balanced_combing,
)
from repro.core.incremental import KernelBuilder
from repro.parallel import SerialMachine
from repro.query import QueryEngine


def _codes(sigma, size):
    return st.lists(st.integers(0, sigma - 1), min_size=0, max_size=size).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )


# alphabets of size 2 and 4+, sides 0..24 in both orders (m > n flips)
pairs = st.sampled_from([2, 4, 7]).flatmap(lambda s: st.tuples(_codes(s, 24), _codes(s, 24)))
# 1 x k and k x 1 grids
thin_pairs = st.tuples(_codes(3, 1), _codes(3, 30)).flatmap(
    lambda ab: st.sampled_from([ab, ab[::-1]])
)


def _default_paths(a, b):
    """Every combing path whose inner loop defaults to the comb kernel."""
    machine = SerialMachine()
    builder = KernelBuilder(b)
    for k in range(0, a.size, 5):
        builder.append(a[k : k + 5])
    yield "antidiag_simd", iterative_combing_antidiag_simd(a, b)
    yield "load_balanced", iterative_combing_load_balanced(a, b)
    yield "hybrid", hybrid_combing(a, b, 2)
    yield "hybrid_grid", hybrid_combing_grid(a, b, 4)
    yield "parallel_iterative", parallel_iterative_combing(a, b, machine)
    yield "parallel_load_balanced", parallel_load_balanced_combing(a, b, machine)
    yield "parallel_grid", parallel_hybrid_combing_grid(a, b, machine, n_tasks=4)
    yield "semilocal_lcs", semilocal_lcs(a, b).kernel
    yield "kernel_builder", builder.raw_kernel()
    yield "query_engine", QueryEngine().kernel(a, b).kernel


@given(st.one_of(pairs, thin_pairs))
@settings(max_examples=60, deadline=None)
def test_every_default_path_equals_rowmajor(ab):
    a, b = ab
    want = iterative_combing_rowmajor(a, b)
    for name, got in _default_paths(a, b):
        assert np.array_equal(np.asarray(got, dtype=np.int64), want), name


# ragged lanes, each with both sides nonempty and m <= n (pack_lanes'
# orientation contract)
lanes = st.lists(
    st.tuples(_codes(4, 12), _codes(4, 12))
    .filter(lambda ab: ab[0].size and ab[1].size)
    .map(lambda ab: ab if ab[0].size <= ab[1].size else ab[::-1]),
    min_size=1,
    max_size=6,
)


@given(lanes, st.sampled_from([np.uint16, np.int64]))
@settings(max_examples=60, deadline=None)
def test_lane_stack_equals_per_pair(pairs_, dtype):
    M = max(ca.size for ca, _ in pairs_)
    N = max(max(cb.size for _, cb in pairs_), M)
    a_rev, b_codes, h_valid, b_valid, lane_m, _ = pack_lanes(pairs_, M, N)
    B = len(pairs_)
    h = np.repeat(np.arange(M, dtype=dtype)[:, None], B, axis=1)
    v = np.repeat(np.arange(M, M + N, dtype=dtype)[:, None], B, axis=1)
    comb_cells(a_rev, b_codes, h, v, _antidiag_ranges(M, N), h_valid, b_valid)
    for k, (ca, cb) in enumerate(pairs_):
        shift = M - int(lane_m[k])
        h_fin = h[shift:, k].astype(np.int64) - shift
        v_fin = v[: cb.size, k].astype(np.int64) - shift
        got = _extract_kernel(h_fin, v_fin)
        assert np.array_equal(got, iterative_combing_rowmajor(ca, cb)), k
