"""Tests for the streaming KernelBuilder and ``extend_kernel``."""

import numpy as np
import pytest

from repro.alphabet import concat
from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.core.incremental import KernelBuilder, extend_kernel

from ..conftest import random_codes


class TestKernelBuilder:
    def test_matches_batch_combing(self, rng):
        for _ in range(15):
            b = random_codes(rng, int(rng.integers(1, 10)))
            blocks = [random_codes(rng, int(rng.integers(1, 6))) for _ in range(4)]
            builder = KernelBuilder(b).extend(blocks)
            want = iterative_combing_rowmajor(concat(blocks), b)
            assert np.array_equal(builder.raw_kernel(), want)

    def test_char_by_char(self, rng):
        b = random_codes(rng, 8)
        a = random_codes(rng, 10)
        builder = KernelBuilder(b)
        for ch in a:
            builder.append([int(ch)])
        assert np.array_equal(builder.raw_kernel(), iterative_combing_rowmajor(a, b))

    def test_docstring_example(self):
        builder = KernelBuilder("semilocal")
        for block in ("semi", "-", "local"):
            builder.append(block)
        assert builder.kernel().lcs_whole() == 9
        assert builder.m == 10

    def test_empty_append_noop(self, rng):
        b = random_codes(rng, 5)
        builder = KernelBuilder(b).append(random_codes(rng, 3))
        before = builder.raw_kernel()
        builder.append([])
        assert np.array_equal(builder.raw_kernel(), before)

    def test_initial_state_is_identity(self, rng):
        b = random_codes(rng, 6)
        builder = KernelBuilder(b)
        assert builder.m == 0
        assert builder.raw_kernel().tolist() == list(range(6))
        assert builder.lcs() == 0

    def test_accumulated_a(self, rng):
        b = random_codes(rng, 4)
        blocks = [random_codes(rng, 3), random_codes(rng, 2)]
        builder = KernelBuilder(b).extend(blocks)
        assert np.array_equal(builder.a(), concat(blocks))

    def test_queries_along_the_way(self, rng):
        """Scores must be consistent at every growth step."""
        from repro.baselines.lcs_dp import lcs_score_scalar

        b = random_codes(rng, 9)
        builder = KernelBuilder(b)
        acc = []
        for _ in range(5):
            block = random_codes(rng, 3)
            acc.extend(block.tolist())
            builder.append(block)
            assert builder.lcs() == lcs_score_scalar(acc, b.tolist())

    def test_raw_kernel_is_copy(self, rng):
        builder = KernelBuilder(random_codes(rng, 5)).append(random_codes(rng, 4))
        k = builder.raw_kernel()
        k[0] = -99
        assert builder.raw_kernel()[0] != -99

    def test_repr(self, rng):
        builder = KernelBuilder(random_codes(rng, 3)).append([1])
        assert "blocks=1" in repr(builder)


class TestExtendKernel:
    def test_empty_block_shifts_nothing(self, rng):
        a, b = random_codes(rng, 5), random_codes(rng, 7)
        perm = iterative_combing_rowmajor(a, b)
        for top in (False, True):
            assert np.array_equal(extend_kernel(perm, 5, 7, [], b, top=top), perm)

    def test_rejects_a_kernel_of_another_shape(self, rng):
        a, b = random_codes(rng, 5), random_codes(rng, 7)
        perm = iterative_combing_rowmajor(a, b)
        with pytest.raises(ValueError, match="does not fit m = 4, n = 7"):
            extend_kernel(perm, 4, 7, [1], b)
        with pytest.raises(ValueError):
            extend_kernel(perm, 5, 7, [1], b[:6])
