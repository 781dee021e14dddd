"""Properties of ``extend_kernel``: continuing a kernel's comb over
appended or prepended blocks gives the from-scratch kernel.

Any sequence of appends and prepends on ``a`` — through the primitive
itself, through :class:`~repro.query.QueryEngine` and through
:class:`~repro.core.incremental.KernelBuilder` — must equal the Listing 1
oracle (``iterative_combing_rowmajor``) of the final pair, over binary,
DNA-sized and larger alphabets, blocks taller than ``b`` is long
(``s > n``), an empty ``a`` (the identity base) and an empty ``b``, with
16-bit and 64-bit strand labels.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import incremental
from repro.core.combing.iterative import _strands_dtype, iterative_combing_rowmajor
from repro.core.incremental import KernelBuilder, extend_kernel
from repro.query import QueryEngine


def _codes(sigma, max_size):
    return st.lists(st.integers(0, sigma - 1), min_size=0, max_size=max_size).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )


def _scenario(sigma):
    """``(a, b, edits)``: a base pair and a list of ``(top, block)`` edits.
    Blocks reach 16 symbols against a ``b`` of at most 12, so tall
    blocks (``s > n``) are drawn; ``a`` and ``b`` may be empty."""
    edits = st.lists(st.tuples(st.booleans(), _codes(sigma, 16)), min_size=1, max_size=5)
    return st.tuples(_codes(sigma, 12), _codes(sigma, 12), edits)


scenarios = st.sampled_from([2, 4, 7]).flatmap(_scenario)


def _final(a, edits):
    for top, block in edits:
        a = np.concatenate([block, a] if top else [a, block])
    return a


def _int64_labels():
    """Force 64-bit strand labels on grids that would get 16-bit ones."""
    return mock.patch.object(
        incremental, "_strands_dtype", lambda m, n, use_16bit: np.dtype(np.int64)
    )


@pytest.mark.parametrize("labels", ["uint16", "int64"])
@given(scenarios)
@settings(max_examples=60, deadline=None)
def test_edit_sequence_equals_rowmajor(labels, scenario):
    a, b, edits = scenario
    m, n = a.size, b.size
    with _int64_labels() if labels == "int64" else nullcontext():
        perm = iterative_combing_rowmajor(a, b)
        for top, block in edits:
            perm = extend_kernel(perm, m, n, block, b, top=top)
            m += block.size
    want = iterative_combing_rowmajor(_final(a, edits), b)
    assert perm.dtype == np.int64
    np.testing.assert_array_equal(perm, want)


@given(scenarios)
@settings(max_examples=40, deadline=None)
def test_engine_edit_sequence_equals_rowmajor(scenario):
    """The engine path: each edit extends the kernel the previous edit
    cached, and every extended pair is then a plain cache hit."""
    a, b, edits = scenario
    eng = QueryEngine()
    cur = a
    for top, block in edits:
        kern = eng.prepend(block, cur, b) if top else eng.append(cur, block, b)
        cur = _final(cur, [(top, block)])
        np.testing.assert_array_equal(kern.kernel, iterative_combing_rowmajor(cur, b))
    builds = eng.kernel_builds
    eng.lcs(cur, b)
    assert eng.kernel_builds == builds


@given(st.sampled_from([2, 4, 7]).flatmap(
    lambda s: st.tuples(_codes(s, 12), st.lists(_codes(s, 16), max_size=5))
))
@settings(max_examples=40, deadline=None)
def test_builder_equals_rowmajor(case):
    b, blocks = case
    builder = KernelBuilder(b).extend(blocks)
    a = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
    np.testing.assert_array_equal(builder.raw_kernel(), iterative_combing_rowmajor(a, b))


@pytest.mark.parametrize("m, n", [(8, 65_520), (65_520, 8)])
@pytest.mark.parametrize("top", [False, True])
def test_extension_crossing_16_bit_labels(m, n, top):
    """The base grid's ids fit 16 bits, the extended grid's do not: the
    continued comb must switch to 64-bit labels and stay exact."""
    s = 16
    assert _strands_dtype(m, n, True) == np.uint16
    assert _strands_dtype(m + s, n, True) == np.int64
    rng = np.random.default_rng(65_535)
    a, block, b = (rng.integers(0, 4, size) for size in (m, s, n))
    seen = []

    def spy(a_rev, cb, h, v, ranges):
        seen.append(h.dtype)
        return comb(a_rev, cb, h, v, ranges)

    comb = incremental.comb_cells
    with mock.patch.object(incremental, "comb_cells", spy):
        perm = extend_kernel(iterative_combing_rowmajor(a, b), m, n, block, b, top=top)
    assert seen == [np.dtype(np.int64)]
    final = np.concatenate([block, a] if top else [a, block])
    np.testing.assert_array_equal(perm, iterative_combing_rowmajor(final, b))
