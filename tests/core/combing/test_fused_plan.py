"""Unit tests for the explicit grid-reduction plan (Listing 7).

The plan is pure scheduling data that both the serial and the parallel
grid execute; these tests pin down its invariants — id layout, span
coverage, dependency order — under every reduction heuristic.
"""

import pytest

from repro.core.combing.hybrid import REDUCTIONS, _split_lengths, plan_grid_reduction


def _plan(m, n, m_outer, n_outer, reduction="longest-side"):
    a_lens = _split_lengths(m, m_outer)
    b_lens = _split_lengths(n, n_outer)
    return plan_grid_reduction(m, n, a_lens, b_lens, reduction)


SHAPES = [(64, 64, 4, 4), (100, 40, 5, 2), (17, 90, 1, 6), (33, 7, 3, 1), (8, 8, 1, 1)]


class TestPlan:
    def test_root_spans_full_grid(self):
        for m, n, mo, no in SHAPES:
            levels, spans, root = _plan(m, n, mo, no)
            assert spans[root] == (0, m, 0, n), (m, n, mo, no)

    def test_leaf_count_and_ids(self):
        levels, spans, root = _plan(64, 64, 4, 4)
        # leaf ids are row-major 0..15; compose ids follow sequentially
        for i in range(4):
            for j in range(4):
                a_lo, a_hi, b_lo, b_hi = spans[i * 4 + j]
                assert (a_hi - a_lo) == 16 and (b_hi - b_lo) == 16
        assert min(op.out for ops in levels for op in ops) == 16

    def test_each_level_halves_one_axis(self):
        levels, spans, root = _plan(64, 64, 4, 4)
        # 4x4 grid: 16 -> 8 -> 4 -> 2 -> 1 nodes, four levels
        assert [len(ops) for ops in levels] == [8, 4, 2, 1]

    def test_ops_consume_existing_nodes_in_dependency_order(self):
        for m, n, mo, no in SHAPES:
            levels, spans, root = _plan(m, n, mo, no)
            known = {i * no + j for i in range(mo) for j in range(no)}
            for ops in levels:
                outs = set()
                for op in ops:
                    assert op.left in known and op.right in known
                    outs.add(op.out)
                known |= outs

    def test_compose_spans_union_their_children(self):
        for m, n, mo, no in SHAPES:
            levels, spans, root = _plan(m, n, mo, no)
            for ops in levels:
                for op in ops:
                    la = spans[op.left]
                    ra = spans[op.right]
                    out = spans[op.out]
                    if op.kind == "h":  # same rows, adjacent columns
                        assert la[:2] == ra[:2] == out[:2]
                        assert (la[2], ra[3]) == (out[2], out[3])
                        assert la[3] == ra[2]
                    else:  # same columns, adjacent rows
                        assert la[2:] == ra[2:] == out[2:]
                        assert (la[0], ra[1]) == (out[0], out[1])
                        assert la[1] == ra[0]

    def test_single_block_grid_has_no_levels(self):
        levels, spans, root = _plan(8, 8, 1, 1)
        assert levels == [] and root == 0


class TestReductionHeuristics:
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_every_heuristic_plans_a_full_tree(self, reduction):
        for m, n, mo, no in SHAPES:
            levels, spans, root = _plan(m, n, mo, no, reduction)
            assert spans[root] == (0, m, 0, n)
            assert sum(map(len, levels)) == mo * no - 1  # a binary tree

    def test_rows_first_exhausts_horizontal_merges(self):
        levels, _, _ = _plan(64, 64, 4, 4, "rows-first")
        assert [{op.kind for op in ops} for ops in levels] == [{"h"}, {"h"}, {"v"}, {"v"}]

    def test_cols_first_exhausts_vertical_merges(self):
        levels, _, _ = _plan(64, 64, 4, 4, "cols-first")
        assert [{op.kind for op in ops} for ops in levels] == [{"v"}, {"v"}, {"h"}, {"h"}]

    def test_longest_side_alternates_on_a_square_grid(self):
        levels, _, _ = _plan(64, 64, 4, 4)
        assert [{op.kind for op in ops} for ops in levels] == [{"h"}, {"v"}, {"h"}, {"v"}]

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            _plan(8, 8, 2, 2, "diagonal-first")
