"""Property-based tests for combing algorithms and kernel queries."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lcs_dp import lcs_score_dp, lcs_score_scalar
from repro.core.combing.hybrid import hybrid_combing, hybrid_combing_grid
from repro.core.combing.iterative import (
    iterative_combing_antidiag_simd,
    iterative_combing_load_balanced,
    iterative_combing_rowmajor,
    lcs_score_from_kernel,
)
from repro.core.combing.recursive import recursive_combing
from repro.core.kernel import SemiLocalKernel

string_pairs = st.tuples(
    st.lists(st.integers(0, 3), min_size=1, max_size=16),
    st.lists(st.integers(0, 3), min_size=1, max_size=16),
)


@given(string_pairs)
@settings(max_examples=120, deadline=None)
def test_all_combing_algorithms_agree(pair):
    a, b = pair
    want = iterative_combing_rowmajor(a, b)
    assert np.array_equal(iterative_combing_antidiag_simd(a, b), want)
    assert np.array_equal(iterative_combing_load_balanced(a, b), want)
    assert np.array_equal(recursive_combing(a, b), want)
    assert np.array_equal(hybrid_combing(a, b, 2), want)
    assert np.array_equal(hybrid_combing_grid(a, b, 4), want)


@given(string_pairs)
@settings(max_examples=100, deadline=None)
def test_kernel_is_permutation(pair):
    a, b = pair
    k = iterative_combing_antidiag_simd(a, b)
    assert sorted(k.tolist()) == list(range(len(a) + len(b)))


@given(string_pairs)
@settings(max_examples=80, deadline=None)
def test_lcs_score_consistency(pair):
    a, b = pair
    k = SemiLocalKernel(iterative_combing_antidiag_simd(a, b), len(a), len(b))
    assert k.lcs_whole() == lcs_score_scalar(a, b)


@given(string_pairs, st.data())
@settings(max_examples=80, deadline=None)
def test_random_quadrant_query(pair, data):
    a, b = pair
    k = SemiLocalKernel(iterative_combing_rowmajor(a, b), len(a), len(b))
    l = data.draw(st.integers(0, len(b)))
    r = data.draw(st.integers(l, len(b)))
    assert k.string_substring(l, r) == lcs_score_scalar(a, b[l:r])
    la = data.draw(st.integers(0, len(a)))
    rb = data.draw(st.integers(0, len(b)))
    assert k.suffix_prefix(la, rb) == lcs_score_scalar(a[la:], b[:rb])
    assert k.prefix_suffix(la, rb) == lcs_score_scalar(a[:la], b[rb:])


@given(string_pairs)
@settings(max_examples=60, deadline=None)
def test_h_matrix_monotone_structure(pair):
    """H is nondecreasing in j, nonincreasing in i, with unit steps."""
    a, b = pair
    k = SemiLocalKernel(iterative_combing_rowmajor(a, b), len(a), len(b))
    h = k.h_matrix()
    dj = np.diff(h, axis=1)
    di = np.diff(h, axis=0)
    assert ((dj == 0) | (dj == 1)).all()
    assert ((di == 0) | (di == -1)).all()


@given(string_pairs)
@settings(max_examples=60, deadline=None)
def test_flip_symmetry(pair):
    a, b = pair
    kab = iterative_combing_rowmajor(a, b)
    kba = iterative_combing_rowmajor(b, a)
    size = len(a) + len(b)
    assert np.array_equal(kab, (size - 1 - kba)[::-1])


@given(st.lists(st.integers(0, 2), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_self_comparison_perfect_score(a):
    k = SemiLocalKernel(iterative_combing_antidiag_simd(a, a), len(a), len(a))
    assert k.lcs_whole() == len(a)
    # every prefix of a vs a scores its own length
    for l in range(len(a) + 1):
        assert k.prefix_suffix(l, 0) == l


@given(
    st.lists(st.integers(0, 3), max_size=16),
    st.lists(st.integers(0, 3), max_size=16),
)
@settings(max_examples=150, deadline=None)
def test_lcs_score_from_kernel_closed_form(a, b):
    """``n - #{top-edge strands ending on the bottom edge}`` is the DP
    score, empty strings included."""
    kernel = iterative_combing_rowmajor(a, b)
    assert lcs_score_from_kernel(kernel, len(a), len(b)) == lcs_score_dp(a, b)
