"""Tests for iterative combing and all its variants (Listings 1 and 4)."""

import numpy as np
import pytest

from repro.baselines.lcs_dp import lcs_score_scalar
from repro.core.combing.iterative import (
    _antidiag_ranges,
    cut_positions,
    iterative_combing_antidiag,
    iterative_combing_antidiag_simd,
    iterative_combing_load_balanced,
    iterative_combing_rowmajor,
)
from repro.core.dist_matrix import sticky_multiply_dense
from repro.core.kernel import SemiLocalKernel

from ...conftest import random_codes, random_pair

ALL_VARIANTS = [
    iterative_combing_rowmajor,
    iterative_combing_antidiag,
    iterative_combing_antidiag_simd,
    iterative_combing_load_balanced,
]


class TestAgreement:
    @pytest.mark.parametrize("variant", ALL_VARIANTS[1:], ids=lambda f: f.__name__)
    def test_variants_match_rowmajor(self, variant, rng):
        for _ in range(30):
            a, b = random_pair(rng, max_len=12)
            want = iterative_combing_rowmajor(a, b)
            assert np.array_equal(variant(a, b), want), (a.tolist(), b.tolist())

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda f: f.__name__)
    def test_kernel_is_permutation(self, variant, rng):
        a, b = random_pair(rng, max_len=10)
        k = variant(a, b)
        assert sorted(k.tolist()) == list(range(len(a) + len(b)))

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda f: f.__name__)
    def test_wide_and_tall_grids(self, variant, rng):
        """m > n exercises the flip path of the anti-diagonal variants."""
        a = random_codes(rng, 9)
        b = random_codes(rng, 3)
        assert np.array_equal(variant(a, b), iterative_combing_rowmajor(a, b))
        assert np.array_equal(variant(b, a), iterative_combing_rowmajor(b, a))

    @pytest.mark.parametrize("variant", ALL_VARIANTS[1:], ids=lambda f: f.__name__)
    def test_single_character_cases(self, variant):
        assert variant([1], [1]).tolist() == [0, 1]  # match: identity kernel
        assert variant([1], [2]).tolist() == [1, 0]  # mismatch: zero kernel

    @pytest.mark.parametrize("variant", ALL_VARIANTS[1:], ids=lambda f: f.__name__)
    def test_empty_inputs(self, variant):
        assert variant([], [1, 2]).tolist() == [0, 1]
        assert variant([1, 2], []).tolist() == [0, 1]
        assert variant([], []).tolist() == []


class TestScores:
    def test_lcs_matches_dp(self, rng):
        for _ in range(15):
            a, b = random_pair(rng, max_len=15, alphabet=4)
            k = SemiLocalKernel(iterative_combing_antidiag_simd(a, b), len(a), len(b))
            assert k.lcs_whole() == lcs_score_scalar(a, b)

    def test_identical_strings(self):
        a = list(range(10))
        k = SemiLocalKernel(iterative_combing_antidiag_simd(a, a), 10, 10)
        assert k.lcs_whole() == 10

    def test_disjoint_alphabets(self):
        k = SemiLocalKernel(iterative_combing_antidiag_simd([1] * 5, [2] * 7), 5, 7)
        assert k.lcs_whole() == 0


class TestBlends:
    @pytest.mark.parametrize("blend", ["where", "masked", "arith", "bitwise", "minmax"])
    def test_blend_equivalence(self, blend, rng):
        for _ in range(15):
            a, b = random_pair(rng, max_len=12)
            got = iterative_combing_antidiag_simd(a, b, blend=blend)
            assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_16bit_optimization(self, rng):
        a, b = random_pair(rng, max_len=12)
        got = iterative_combing_antidiag_simd(a, b, use_16bit_when_possible=True)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_explicit_uint16_dtype(self, rng):
        a, b = random_pair(rng, max_len=12)
        got = iterative_combing_antidiag_simd(a, b, dtype=np.uint16)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_dtype_too_small_rejected(self):
        a = list(range(200))
        with pytest.raises(ValueError):
            iterative_combing_antidiag_simd(a, a, dtype=np.uint8)

    def test_minmax_blend_is_match_mask_only(self, rng):
        """The AVX-512-style min/max path must agree with rowmajor (it
        never evaluates the h > v 'crossed before' comparison)."""
        for _ in range(20):
            a, b = random_pair(rng, max_len=14)
            got = iterative_combing_antidiag_simd(a, b, blend="minmax")
            assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    @pytest.mark.parametrize("blend", ["where", "arith", "bitwise", "minmax"])
    def test_blend_with_uint16(self, blend, rng):
        """Unsigned wraparound in the bitwise blend must still be exact."""
        a, b = random_pair(rng, max_len=12)
        got = iterative_combing_antidiag_simd(a, b, blend=blend, dtype=np.uint16)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))


class TestAntidiagRanges:
    def test_every_shape_and_window_matches_the_cell_definition(self):
        """Anti-diagonal ``d`` holds rows ``max(0, d-n+1)..min(m-1, d)``,
        for tall grids (``m > n``) and any ``[d_lo, d_hi)`` window too."""
        for m in range(9):
            for n in range(9):
                last = max(m + n - 1, 0)
                for d_lo in range(last + 1):
                    for d_hi in range(d_lo, last + 1):
                        want = []
                        for d in range(d_lo, d_hi):
                            i_hi = min(m - 1, d)
                            length = i_hi - max(0, d - n + 1) + 1
                            if length > 0:
                                want.append((length, m - 1 - i_hi, d - i_hi))
                        assert list(_antidiag_ranges(m, n, d_lo, d_hi)) == want
                if m and n:
                    assert list(_antidiag_ranges(m, n)) == list(
                        _antidiag_ranges(m, n, 0, last)
                    )


class TestCutPositions:
    def test_entry_and_exit_boundaries(self):
        m, n = 4, 6
        h0, v0 = cut_positions(0, m, n)
        assert h0.tolist() == list(range(m))
        assert v0.tolist() == [m + j for j in range(n)]
        hf, vf = cut_positions(m + n - 1, m, n)
        assert hf.tolist() == [n + l for l in range(m)]
        assert vf.tolist() == list(range(n))

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 5), (5, 3), (4, 4), (2, 9)])
    def test_every_cut_is_a_bijection(self, m, n):
        for d in range(m + n):
            h, v = cut_positions(d, m, n)
            assert sorted(np.concatenate([h, v]).tolist()) == list(range(m + n)), d

    def test_monotone_along_tracks(self):
        """A track's crossing position never decreases as the cut advances."""
        m, n = 3, 4
        prev_h, prev_v = cut_positions(0, m, n)
        for d in range(1, m + n):
            h, v = cut_positions(d, m, n)
            assert (h >= prev_h).all() and (v <= prev_v).all()
            prev_h, prev_v = h, v


class TestLoadBalanced:
    def test_custom_multiply_injection(self, rng):
        calls = []

        def spy_multiply(p, q):
            calls.append(len(p))
            return sticky_multiply_dense(p, q)

        a, b = random_codes(rng, 6), random_codes(rng, 9)
        got = iterative_combing_load_balanced(a, b, multiply=spy_multiply)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
        assert len(calls) == 2  # three phase braids -> two multiplications

    def test_degenerate_single_row(self, rng):
        a = random_codes(rng, 1)
        b = random_codes(rng, 7)
        got = iterative_combing_load_balanced(a, b)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
