"""Unit tests for the level-vectorized steady ant, the library multiply.

The vectorized engine must be *bit-identical* to the scalar recursion
(it reuses the scalar combine walk), its batched dense base product must
match the per-pair dense reference lane by lane, and its warm-up must
actually cover the cold path it claims to cover.
"""

import numpy as np
import pytest

from repro.core.dist_matrix import sticky_multiply_dense
from repro.core.steady_ant import (
    steady_ant_combined,
    steady_ant_sequential,
    steady_ant_vectorized,
    warm_compute_kernels,
)
from repro.core.steady_ant.precalc import PrecalcTable
from repro.core.steady_ant.vectorized import (
    DEFAULT_WARM_ORDER,
    batch_sticky_multiply,
    build_precalc_products,
)
from repro.obs import get_metrics


def _pairs(rng, n, count):
    return [(rng.permutation(n), rng.permutation(n)) for _ in range(count)]


class TestBatchedBaseProduct:
    def test_matches_dense_lane_by_lane(self, rng):
        for n in (1, 2, 3, 5, 8, 13, 16, 21):
            pairs = _pairs(rng, n, 7)
            got = batch_sticky_multiply(
                np.stack([p for p, _ in pairs]), np.stack([q for _, q in pairs])
            )
            for lane, (p, q) in enumerate(pairs):
                assert np.array_equal(got[lane], sticky_multiply_dense(p, q)), (n, lane)

    def test_empty_order(self):
        got = batch_sticky_multiply(
            np.empty((3, 0), dtype=np.int64), np.empty((3, 0), dtype=np.int64)
        )
        assert got.shape == (3, 0)

    def test_shape_mismatch_raises(self, rng):
        from repro.errors import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            batch_sticky_multiply(
                np.stack([rng.permutation(4)]), np.stack([rng.permutation(5)])
            )


class TestVectorizedEngine:
    def test_matches_scalar_across_sizes(self, rng):
        for n in (1, 2, 7, 16, 17, 33, 64, 100, 257):
            p, q = rng.permutation(n), rng.permutation(n)
            assert np.array_equal(
                steady_ant_vectorized(p, q), steady_ant_sequential(p, q)
            ), n

    def test_base_order_is_a_real_knob(self, rng):
        p, q = rng.permutation(90), rng.permutation(90)
        want = steady_ant_sequential(p, q)
        for base_order in (2, 5, 16, 128):
            assert np.array_equal(
                steady_ant_vectorized(p, q, base_order=base_order), want
            ), base_order


class TestWarmup:
    def test_warm_covers_the_cold_path(self, rng):
        from repro.core.steady_ant import vectorized as V

        V._iota_buf = np.empty(0, dtype=np.int64)  # cold process
        warm_compute_kernels(512)
        counter = get_metrics().counter("steady_ant.vectorized_plan_builds")
        before = counter.value
        p, q = rng.permutation(400), rng.permutation(400)
        steady_ant_vectorized(p, q)
        assert counter.value == before  # no growth during the multiply

    def test_warm_is_idempotent_and_reports_coverage(self):
        covered = warm_compute_kernels()
        assert covered >= DEFAULT_WARM_ORDER
        assert warm_compute_kernels() == covered  # second call: no-op


class TestPrecalcBuilds:
    def test_vectorized_table_equals_scalar_table(self):
        vec = PrecalcTable(4, build="vectorized")
        sca = PrecalcTable(4, build="scalar")
        assert len(vec) == len(sca)
        assert vec._tables == sca._tables

    def test_build_products_match_dense(self):
        from itertools import permutations as iperm

        from repro.core.steady_ant.precalc import pack

        for n, packed_p, packed_q, packed_r in build_precalc_products(3):
            perms = {pack(np.asarray(p, dtype=np.int64)): np.asarray(p) for p in iperm(range(n))}
            for pp, qp, rp in zip(packed_p.tolist(), packed_q.tolist(), packed_r.tolist()):
                want = sticky_multiply_dense(perms[pp], perms[qp])
                assert rp == pack(want)


class TestIdentityLanes:
    """A sub-product with an identity factor is the other factor; the
    engine answers such lanes without recursing and counts them."""

    @staticmethod
    def _pruned(p, q):
        counter = get_metrics().counter("steady_ant.vectorized_identity_lanes")
        before = counter.value
        got = steady_ant_vectorized(p, q)
        return got, counter.value - before

    def test_no_identity_lanes_on_a_random_pair(self):
        rng = np.random.default_rng(1024)
        p, q = rng.permutation(1024), rng.permutation(1024)
        got, pruned = self._pruned(p, q)
        assert pruned == 0
        assert np.array_equal(got, steady_ant_combined(p, q))

    def test_append_shaped_compose_prunes(self):
        from repro.core.compose import dsum_identity_first, dsum_identity_last

        rng = np.random.default_rng(4144)
        # kernel of a 1024x1024 pair composed with a 48-row appended block
        p = dsum_identity_first(48, rng.permutation(2048))
        q = dsum_identity_last(rng.permutation(48 + 1024), 1024)
        got, pruned = self._pruned(p, q)
        assert pruned > 0
        assert np.array_equal(got, steady_ant_combined(p, q))

    def test_identity_factor_at_the_root(self, rng):
        p = rng.permutation(300)
        ident = np.arange(300)
        for a, b in ((ident, p), (p, ident)):
            got, pruned = self._pruned(a, b)
            assert pruned == 1
            assert np.array_equal(got, p)
            assert not np.shares_memory(got, p)
