"""QueryEngine: one cached kernel, many queries, two memoization levels."""

import struct

import numpy as np
import pytest

from repro import semilocal_lcs
from repro.baselines.lcs_dp import lcs_score_dp, lcs_table
from repro.checkpoint import KernelStore
from repro.errors import QueryError
from repro.query import QUERY_ALGORITHM, QueryEngine

A, B = "dynamicprogramming", "programmingdynamics"


class TestQueryCorrectness:
    def test_lcs_matches_dp(self):
        eng = QueryEngine()
        assert eng.lcs(A, B) == lcs_score_dp(A, B)

    def test_windowed_lcs_matches_dp(self):
        eng = QueryEngine()
        w = 5
        out = eng.windowed_lcs(A, B, w)
        assert len(out) == len(B) - w + 1
        for l, score in enumerate(out):
            assert score == lcs_score_dp(A, B[l : l + w])

    def test_all_prefix_scores_match_dp(self):
        eng = QueryEngine()
        out = eng.all_prefix_scores(A, B)
        assert [int(s) for s in out] == [
            lcs_score_dp(A, B[:r]) for r in range(len(B) + 1)
        ]

    def test_all_suffix_scores_match_dp(self):
        eng = QueryEngine()
        out = eng.all_suffix_scores(A, B)
        assert [int(s) for s in out] == [
            lcs_score_dp(A, B[l:]) for l in range(len(B) + 1)
        ]

    def test_threshold_matches_against_find_matches(self):
        from repro.apps.approximate_matching import find_matches

        eng = QueryEngine()
        got = eng.substring_threshold_matches("abcab", "zzabcabzzabcab", 0.8)
        want = [
            (m.start, m.end, m.score)
            for m in find_matches("abcab", "zzabcabzzabcab", 4, window=5)
        ]
        assert got == want and got

    def test_window_validation(self):
        eng = QueryEngine()
        with pytest.raises(QueryError):
            eng.windowed_lcs(A, B, 0)
        with pytest.raises(QueryError):
            eng.windowed_lcs(A, B, len(B) + 1)
        with pytest.raises(QueryError):
            eng.substring_threshold_matches(A, B, 1.5)

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError, match="unknown query op"):
            QueryEngine().answer("frobnicate", "a", "b")


class TestMemoization:
    def test_one_kernel_serves_many_ops(self):
        """The acceptance-criterion shape: >= 4 query types, one build."""
        eng = QueryEngine()
        eng.lcs(A, B)
        eng.windowed_lcs(A, B, 4)
        eng.all_prefix_scores(A, B)
        eng.all_suffix_scores(A, B)
        eng.substring_threshold_matches(A, B, 0.5, window=6)
        assert eng.kernel_builds == 1
        assert eng.kernel_misses == 1
        assert eng.kernel_hits == 4
        assert eng.hit_rate == pytest.approx(0.8)

    def test_memory_lru_caps_live_kernels(self):
        eng = QueryEngine(max_kernels=2)
        for i in range(5):
            eng.lcs("ab" * (i + 1), B)
        assert len(eng._mem) == 2
        # most recent pair is still a hit
        hits = eng.kernel_hits
        eng.lcs("ab" * 5, B)
        assert eng.kernel_hits == hits + 1

    def test_store_shared_across_engines(self, tmp_path):
        store = KernelStore(tmp_path / "cache")
        eng1 = QueryEngine(store=store)
        eng1.lcs(A, B)
        eng2 = QueryEngine(store=KernelStore(tmp_path / "cache"))
        assert eng2.cached(A, B)
        assert eng2.lcs(A, B) == lcs_score_dp(A, B)
        assert eng2.kernel_builds == 0
        assert eng2.kernel_hits == 1

    def test_corrupt_store_entry_is_rebuilt(self, tmp_path):
        store = KernelStore(tmp_path / "cache")
        eng = QueryEngine(store=store)
        eng.lcs(A, B)
        key = eng.key_of(A, B)
        # flip bytes in the payload behind the store's back
        payload = store._payload_path(key)
        payload.write_bytes(b"garbage" * 10)
        fresh = QueryEngine(store=KernelStore(tmp_path / "cache"))
        assert fresh.lcs(A, B) == lcs_score_dp(A, B)
        assert fresh.kernel_builds == 1

    def test_install_kernel_adopts_external_build(self):
        eng = QueryEngine()
        perm = semilocal_lcs(A, B).kernel
        eng.install_kernel(A, B, perm)
        assert eng.cached(A, B)
        assert eng.lcs(A, B) == lcs_score_dp(A, B)
        assert eng.kernel_builds == 0

    def test_max_kernels_validation(self):
        with pytest.raises(QueryError):
            QueryEngine(max_kernels=0)


class TestAppend:
    def test_append_equals_from_scratch(self):
        eng = QueryEngine()
        composite = eng.append(A, "XYZing", B)
        scratch = semilocal_lcs(A + "XYZing", B)
        np.testing.assert_array_equal(composite.kernel, scratch.kernel)
        assert eng.appends == 1

    def test_append_caches_extended_pair(self):
        eng = QueryEngine()
        eng.append(A, "XYZ", B)
        assert eng.cached(A + "XYZ", B)
        builds = eng.kernel_builds
        assert eng.lcs(A + "XYZ", B) == lcs_score_dp(A + "XYZ", B)
        assert eng.kernel_builds == builds  # plain hit, no recomb

    def test_empty_suffix_is_base_kernel(self):
        eng = QueryEngine()
        assert eng.append(A, "", B).lcs_whole() == lcs_score_dp(A, B)
        assert eng.appends == 0

    def test_answer_append_returns_score(self):
        eng = QueryEngine()
        got = eng.answer("append", A, B, suffix="XYZ")
        assert got == lcs_score_dp(A + "XYZ", B)

    def test_repeated_append_is_a_store_hit(self, tmp_path):
        """A second engine on the same store (a second ``repro-lcs query
        --op append`` run) answers the extension from the store: no
        continued comb, no recomb, no second put."""
        QueryEngine(store=KernelStore(tmp_path / "c")).append(A, "XYZ", B)
        store = KernelStore(tmp_path / "c")
        fresh = QueryEngine(store=store)
        assert fresh.answer("append", A, B, suffix="XYZ") == lcs_score_dp(A + "XYZ", B)
        assert fresh.appends == 0
        assert fresh.kernel_builds == 0
        assert fresh.kernel_hits == 1
        assert store.writes == 0

    def test_extension_runs_no_braid_multiply(self):
        """Append and prepend continue the cached comb: one leaf comb of
        the block each, and no steady-ant multiply."""
        from repro.obs.metrics import get_metrics

        eng = QueryEngine()
        eng.kernel(A, B)
        metrics = get_metrics()
        names = ("steady_ant.multiplies", "steady_ant.vectorized_multiplies",
                 "combing.leaf_calls", "combing.leaf_cells")
        before = {name: metrics.counter(name).value for name in names}
        eng.append(A, "XYZ", B)
        eng.prepend("head", A + "XYZ", B)
        delta = {name: metrics.counter(name).value - before[name] for name in names}
        assert delta == {
            "steady_ant.multiplies": 0,
            "steady_ant.vectorized_multiplies": 0,
            "combing.leaf_calls": 2,
            "combing.leaf_cells": (3 + 4) * len(B),
        }


class TestPrepend:
    def test_prepend_equals_from_scratch(self):
        eng = QueryEngine()
        composite = eng.prepend("XYZing", A, B)
        scratch = semilocal_lcs("XYZing" + A, B)
        np.testing.assert_array_equal(composite.kernel, scratch.kernel)
        assert eng.prepends == 1

    def test_prepend_caches_extended_pair(self):
        eng = QueryEngine()
        eng.prepend("XYZ", A, B)
        assert eng.cached("XYZ" + A, B)
        builds = eng.kernel_builds
        assert eng.lcs("XYZ" + A, B) == lcs_score_dp("XYZ" + A, B)
        assert eng.kernel_builds == builds  # plain hit, no recomb

    def test_empty_prefix_is_base_kernel(self):
        eng = QueryEngine()
        assert eng.prepend("", A, B).lcs_whole() == lcs_score_dp(A, B)
        assert eng.prepends == 0

    def test_answer_prepend_returns_score(self):
        eng = QueryEngine()
        got = eng.answer("prepend", A, B, prefix="XYZ")
        assert got == lcs_score_dp("XYZ" + A, B)

    def test_repeated_prepend_is_a_store_hit(self, tmp_path):
        QueryEngine(store=KernelStore(tmp_path / "c")).prepend("XYZ", A, B)
        fresh = QueryEngine(store=KernelStore(tmp_path / "c"))
        assert fresh.answer("prepend", A, B, prefix="XYZ") == lcs_score_dp("XYZ" + A, B)
        assert fresh.prepends == 0
        assert fresh.kernel_builds == 0

    def test_prepend_then_append_compose(self):
        eng = QueryEngine()
        eng.append(A, "tail", B)
        eng.prepend("head", A + "tail", B)
        assert eng.cached("head" + A + "tail", B)
        assert eng.lcs("head" + A + "tail", B) == lcs_score_dp("head" + A + "tail", B)


class TestCounterPersistence:
    """The tentpole regression: a KernelStore disk hit must answer
    array-valued queries without re-running the O(n log n) counter
    build (``kernel.counter_builds`` pinned at zero on the second
    engine)."""

    def test_store_hit_skips_counter_build(self, tmp_path):
        from repro.obs.metrics import get_metrics

        first = QueryEngine(store=KernelStore(tmp_path / "c"))
        baseline = [int(s) for s in first.all_prefix_scores(A, B)]

        builds = get_metrics().counter("kernel.counter_builds")
        before = builds.value
        second = QueryEngine(store=KernelStore(tmp_path / "c"))
        out = [int(s) for s in second.all_prefix_scores(A, B)]
        assert out == baseline
        assert out == [lcs_score_dp(A, B[:r]) for r in range(len(B) + 1)]
        assert builds.value == before  # deserialized sidecar, no rebuild
        assert second.kernel_builds == 0  # and no recomb either

    def test_pre_sidecar_artifact_still_loads(self, tmp_path):
        """Artifacts written before counter sidecars existed (no
        ``counter_sha256`` in the manifest) keep answering queries —
        the counter is simply rebuilt."""
        store = KernelStore(tmp_path / "c")
        eng = QueryEngine(store=store)
        key = eng.key_of(A, B)
        perm = eng.kernel(A, B).kernel
        store.put(key, perm, algorithm=QUERY_ALGORITHM, m=len(A), n=len(B))
        assert not store._counter_path(key).exists()

        fresh = QueryEngine(store=KernelStore(tmp_path / "c"))
        out = [int(s) for s in fresh.all_prefix_scores(A, B)]
        assert out == [lcs_score_dp(A, B[:r]) for r in range(len(B) + 1)]
        assert fresh.kernel_builds == 0  # permutation still a disk hit

    def test_corrupt_sidecar_never_poisons_answers(self, tmp_path):
        store = KernelStore(tmp_path / "c")
        QueryEngine(store=store).lcs(A, B)
        key = QueryEngine().key_of(A, B)
        sidecar = store._counter_path(key)
        assert sidecar.exists()
        sidecar.write_bytes(b"garbage")

        fresh = QueryEngine(store=KernelStore(tmp_path / "c"))
        assert fresh.lcs(A, B) == lcs_score_dp(A, B)

    def test_store_written_before_single_counter_loads(self, tmp_path):
        """A store written when small kernels had an unpersisted dense
        table and the merge-sort tree was selectable: a kernel with a
        kind-1 (merge-sort-tree) sidecar and a small kernel with no
        sidecar both load, rebuild their wavelet matrix exactly once,
        and answer every array op like the DP."""
        from repro.core.dominance import COUNTER_FORMAT, DominanceCounter
        from repro.obs.metrics import get_metrics

        def tree_sidecar(perm):  # the kind-1 payload older stores wrote
            levels = DominanceCounter(perm)._levels
            head = struct.pack("<4sIIq", b"RPCT", COUNTER_FORMAT, 1, perm.size)
            return head + struct.pack("<I", len(levels)) + b"".join(
                np.asarray(lvl, dtype="<i8").tobytes() for lvl in levels
            )

        rng = np.random.default_rng(3)
        big_a = "".join(rng.choice(list("acgt"), 24))
        big_b = "".join(rng.choice(list("acgt"), 2040))
        root = tmp_path / "old"
        builder = QueryEngine()
        store = KernelStore(root)
        for a, b, sidecar in ((big_a, big_b, tree_sidecar), (A, B, None)):
            perm = builder.kernel(a, b).kernel
            assert (perm.size > 2048) == (sidecar is not None)
            store.put(builder.key_of(a, b), perm, algorithm=QUERY_ALGORITHM,
                      m=len(a), n=len(b), counter=sidecar and sidecar(perm))

        builds = get_metrics().counter("kernel.counter_builds")
        for a, b in ((big_a, big_b), (A, B)):
            eng = QueryEngine(store=KernelStore(root))
            before = builds.value
            w = len(a)
            prefix = lcs_table(a, b)[-1]
            suffix = lcs_table(a[::-1], b[::-1])[-1][::-1]
            assert eng.all_prefix_scores(a, b).tolist() == prefix.tolist()
            assert eng.all_suffix_scores(a, b).tolist() == suffix.tolist()
            assert eng.windowed_lcs(a, b, w).tolist() == [
                lcs_score_dp(a, b[l : l + w]) for l in range(len(b) - w + 1)
            ]
            for start, end, score in eng.substring_threshold_matches(a, b, 0.5):
                assert score == lcs_score_dp(a, b[start:end]) >= w / 2
            assert eng.lcs(a, b) == prefix[-1]
            assert builds.value - before == 1
            assert eng.kernel_builds == 0


class TestStats:
    def test_stats_document(self, tmp_path):
        eng = QueryEngine(store=KernelStore(tmp_path / "c"))
        eng.lcs(A, B)
        eng.lcs(A, B)
        doc = eng.stats()
        assert doc["requests"] == 2
        assert doc["kernel_builds"] == 1
        assert doc["memory_kernels"] == 1
        assert 0.0 <= doc["hit_rate"] <= 1.0
        assert "store" in doc and doc["store"]["writes"] == 1

    def test_store_label_is_canonical(self, tmp_path):
        store = KernelStore(tmp_path / "c")
        eng = QueryEngine(store=store)
        eng.lcs(A, B)
        (manifest,) = list(store.entries())
        assert manifest["algorithm"] == QUERY_ALGORITHM
