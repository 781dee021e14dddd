"""Property-based tests for sticky braid multiplication."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compose import dsum_identity_first, dsum_identity_last
from repro.core.dist_matrix import distribution_matrix, sticky_multiply_dense
from repro.core.steady_ant import (
    steady_ant_combined,
    steady_ant_memory,
    steady_ant_multiply,
    steady_ant_precalc,
    steady_ant_sequential,
    steady_ant_vectorized,
)

permutations = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.integers(1, 48).map(
        lambda n: np.random.default_rng(seed).permutation(n)
    )
)


def pairs(max_n=48):
    return st.integers(0, 2**32 - 1).flatmap(
        lambda seed: st.integers(1, max_n).map(
            lambda n: (
                np.random.default_rng(seed).permutation(n),
                np.random.default_rng(seed + 1).permutation(n),
            )
        )
    )


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_steady_ant_matches_dense(pq):
    p, q = pq
    want = sticky_multiply_dense(p, q)
    assert np.array_equal(steady_ant_sequential(p, q), want)
    assert np.array_equal(steady_ant_combined(p, q), want)


@given(pairs(max_n=32))
@settings(max_examples=60, deadline=None)
def test_all_variants_agree(pq):
    p, q = pq
    results = [
        steady_ant_sequential(p, q),
        steady_ant_precalc(p, q),
        steady_ant_memory(p, q),
        steady_ant_combined(p, q),
    ]
    for r in results[1:]:
        assert np.array_equal(results[0], r)


@given(pairs(max_n=32))
@settings(max_examples=60, deadline=None)
def test_result_is_permutation(pq):
    p, q = pq
    r = steady_ant_combined(p, q)
    assert sorted(r.tolist()) == list(range(p.size))


@given(pairs(max_n=24))
@settings(max_examples=50, deadline=None)
def test_minplus_identity_holds_pointwise(pq):
    """R_sigma(i,k) = min_j P_sigma(i,j) + Q_sigma(j,k) at every point."""
    p, q = pq
    r = steady_ant_combined(p, q)
    dp, dq, dr = distribution_matrix(p), distribution_matrix(q), distribution_matrix(r)
    n = p.size
    for i in range(0, n + 1, max(1, n // 5)):
        for k in range(0, n + 1, max(1, n // 5)):
            assert dr[i, k] == (dp[i, :] + dq[:, k]).min()


@given(permutations)
@settings(max_examples=60, deadline=None)
def test_identity_is_neutral(p):
    ident = np.arange(p.size)
    assert np.array_equal(steady_ant_combined(ident, p), p)
    assert np.array_equal(steady_ant_combined(p, ident), p)


@given(permutations)
@settings(max_examples=40, deadline=None)
def test_reverse_is_absorbing(p):
    """w0 (the reverse permutation) absorbs everything: p ⊙ w0 = w0."""
    rev = np.arange(p.size)[::-1].copy()
    assert np.array_equal(steady_ant_combined(p, rev), rev)
    assert np.array_equal(steady_ant_combined(rev, p), rev)


# -- the library multiply (level-vectorized, identity-lane pruning) ---------

def _perm(seed, n):
    return np.random.default_rng(seed).permutation(n)


compose_shapes = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(0, 40),  # k: identity block before P
    st.integers(0, 48),  # shared middle block (the common string's length)
    st.integers(0, 40),  # l: identity block after Q
).filter(lambda t: sum(t[1:]) > 0)


@given(compose_shapes, st.sampled_from([1, 2, 4, 16]))
@settings(max_examples=80, deadline=None)
def test_library_multiply_matches_dense_on_compose_shapes(shape, base_order):
    """``(id_k ⊕ P) ⊙ (Q ⊕ id_l)`` — the Theorem 3.4 composition shape,
    padding blocks of either width, zero included."""
    seed, k, mid, l = shape
    p = dsum_identity_first(k, _perm(seed, mid + l))
    q = dsum_identity_last(_perm(seed + 1, k + mid), l)
    want = sticky_multiply_dense(p, q)
    assert np.array_equal(steady_ant_multiply(p, q), want)
    assert np.array_equal(steady_ant_vectorized(p, q, base_order=base_order), want)
    assert np.array_equal(steady_ant_combined(p, q), want)


@given(permutations.filter(lambda p: p.size > 0), st.sampled_from([1, 2, 16]))
@settings(max_examples=60, deadline=None)
def test_library_multiply_identity_factor_on_either_side(p, base_order):
    ident = np.arange(p.size)
    for got in (steady_ant_multiply(ident, p), steady_ant_multiply(p, ident),
                steady_ant_vectorized(ident, p, base_order=base_order),
                steady_ant_vectorized(p, ident, base_order=base_order)):
        assert np.array_equal(got, p)
    assert np.array_equal(steady_ant_multiply(ident, ident), ident)


@given(pairs(max_n=96), st.sampled_from([1, 2, 16]))
@settings(max_examples=60, deadline=None)
def test_library_multiply_matches_dense_on_random_pairs(pq, base_order):
    p, q = pq
    want = sticky_multiply_dense(p, q)
    assert np.array_equal(steady_ant_multiply(p, q), want)
    assert np.array_equal(steady_ant_vectorized(p, q, base_order=base_order), want)
