"""Incremental (streaming) semi-local kernels: extend a kernel by
continuing its comb.

The comb is a transposition network, and its state after the ``m`` rows
of ``a`` *is* ``P_{a,b}`` (Krusche & Tiskin, arXiv:0903.3579): the
strand leaving the grid on bottom track ``j`` is ``P^{-1}[j]``, and the
strands that left through the right edge are done. Appending rows to
``a`` therefore only means running the comparators of the new rows on
that state — no freshly combed block kernel and no Theorem 3.4 braid
multiply (seaweed combing, Tiskin arXiv:0707.3619).
:func:`extend_kernel` does exactly that in ``O(s·n + m + n)`` for an
``s``-symbol block, and prepends through the Theorem 3.5 reversal
identity ``P_{rev a, rev b} = inv(rot180(P_{a,b}))``.

:class:`KernelBuilder` maintains ``P_{a,b}`` while ``a`` grows over the
same primitive; :class:`~repro.query.engine.QueryEngine` extends cached
kernels with it. Typical uses: scoring a growing query against a fixed
reference, or combing a huge ``a`` in bounded-memory blocks.

>>> from repro.core.incremental import KernelBuilder
>>> builder = KernelBuilder("semilocal")
>>> for block in ("semi", "-", "local"):
...     builder.append(block)
>>> builder.kernel().lcs_whole()
9
"""

from __future__ import annotations

import numpy as np

from ..alphabet import concat, encode
from ..types import CodeArray, PermArray, Sequenceish
from .combing.iterative import _antidiag_ranges, _strands_dtype, comb_cells, leaf_span
from .kernel import SemiLocalKernel

__all__ = ["KernelBuilder", "extend_kernel"]


def _mirror(kernel: PermArray) -> PermArray:
    """``inv(rot180(P))``: the kernel of the reversed pair (an involution)."""
    size = kernel.size
    out = np.empty(size, dtype=np.int64)
    out[size - 1 - kernel] = np.arange(size - 1, -1, -1, dtype=np.int64)
    return out


def extend_kernel(
    kernel: PermArray,
    m: int,
    n: int,
    block: Sequenceish,
    b: Sequenceish,
    *,
    top: bool = False,
) -> PermArray:
    """``P_{a + block, b}`` (or ``P_{block + a, b}`` with ``top=True``)
    from the ``m x n`` kernel ``P_{a,b}``, by continuing its comb.

    The old strands keep their order, shifted by ``s = len(block)`` to
    make room for the new rows' ids ``0..s-1``; the strand on bottom
    track ``j`` becomes the vertical strand entering the block, the
    ``s x n`` block is combed in place with
    :func:`~repro.core.combing.iterative.comb_cells`, and the strands
    that already left through the right edge keep their exits
    (``P + s``). A prepend runs the same continuation on the reversed
    pair. Strand labels are 16-bit whenever the *extended* grid allows
    (:func:`~repro.core.combing.iterative._strands_dtype`).
    """
    kernel = np.asarray(kernel, dtype=np.int64)
    cx, cb = encode(block), encode(b)
    if kernel.size != m + n or cb.size != n:
        raise ValueError(
            f"kernel of order {kernel.size} with |b| = {cb.size} does not fit m = {m}, n = {n}"
        )
    if top:
        extended = extend_kernel(_mirror(kernel), m, n, cx[::-1], cb[::-1])
        return _mirror(extended)
    s = cx.size
    out = np.empty(m + s + n, dtype=np.int64)
    out[s:] = kernel + s
    if s == 0:
        return out
    dt = _strands_dtype(m + s, n, True)
    with leaf_span(s, n):
        h = np.arange(s, dtype=dt)
        v = np.empty(n, dtype=dt)
        exits = np.flatnonzero(kernel < n)
        v[kernel[exits]] = exits + s
        comb_cells(np.ascontiguousarray(cx[::-1]), cb, h, v, _antidiag_ranges(s, n))
        out[h] = n + np.arange(s)
        out[v] = np.arange(n)
    return out


class KernelBuilder:
    """Maintains ``P_{a,b}`` for a fixed ``b`` while ``a`` is appended to.

    Each :meth:`append` continues the comb over the new block
    (:func:`extend_kernel`), starting from the identity kernel of the
    empty ``a``.
    """

    def __init__(self, b: Sequenceish):
        self._cb: CodeArray = encode(b)
        self._a_parts: list[CodeArray] = []
        self._m = 0
        self._kernel: PermArray = np.arange(self._cb.size, dtype=np.int64)

    # -- growing ---------------------------------------------------------

    def append(self, block: Sequenceish) -> "KernelBuilder":
        """Append *block* to the end of ``a`` and update the kernel."""
        cblock = encode(block)
        if cblock.size == 0:
            return self
        self._kernel = extend_kernel(self._kernel, self._m, self.n, cblock, self._cb)
        self._a_parts.append(cblock)
        self._m += cblock.size
        return self

    def extend(self, blocks) -> "KernelBuilder":
        """Append every block of an iterable."""
        for block in blocks:
            self.append(block)
        return self

    # -- reading -----------------------------------------------------------

    @property
    def m(self) -> int:
        """Current length of ``a``."""
        return self._m

    @property
    def n(self) -> int:
        """Length of the fixed ``b``."""
        return int(self._cb.size)

    def a(self) -> CodeArray:
        """The accumulated first string."""
        return concat(self._a_parts)

    def raw_kernel(self) -> PermArray:
        """The current kernel permutation (a copy)."""
        return self._kernel.copy()

    def kernel(self) -> SemiLocalKernel:
        """The current kernel wrapped for score queries."""
        return SemiLocalKernel(self._kernel, self._m, self.n, validate=False)

    def lcs(self) -> int:
        """Current ``LCS(a, b)`` without materializing a query structure
        beyond the one the kernel wrapper builds."""
        return self.kernel().lcs_whole()

    def __repr__(self) -> str:
        return f"KernelBuilder(m={self._m}, n={self.n}, blocks={len(self._a_parts)})"
