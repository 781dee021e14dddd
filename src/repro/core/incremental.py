"""Incremental (streaming) semi-local kernels.

Theorem 3.4 makes the semi-local kernel *compositional*: the kernel of
``a · a'`` against ``b`` is the sticky product of the kernels of ``a``
and ``a'`` (suitably padded). :class:`KernelBuilder` exploits this to
maintain ``P_{a,b}`` while ``a`` grows — append characters or whole
blocks, and pay one combing of the new block plus one O(N log N) braid
multiplication per append, instead of recombing everything.

Typical uses: scoring a growing query against a fixed reference, or
combing a huge ``a`` in bounded-memory blocks.

>>> import numpy as np
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
from .combing.iterative import iterative_combing_antidiag_simd
from .compose import compose_vertical
from .kernel import SemiLocalKernel


class KernelBuilder:
    """Maintains ``P_{a,b}`` for a fixed ``b`` while ``a`` is appended to.

    Parameters
    ----------
    b:
        The fixed second string.
    comb:
        Combing algorithm for new blocks (default: vectorized
        anti-diagonal iterative combing).
    multiply:
        Braid multiplication for compositions (default: the library's
        level-vectorized steady ant,
        :data:`~repro.core.steady_ant.steady_ant_multiply`).
    """

    def __init__(self, b: Sequenceish, *, comb=None, multiply=None):
        self._cb: CodeArray = encode(b)
        if comb is None:
            comb = iterative_combing_antidiag_simd
        self._comb = comb
        if multiply is None:
            from .steady_ant import steady_ant_multiply as multiply
        self._multiply = multiply
        self._a_parts: list[CodeArray] = []
        self._m = 0
        # kernel of the empty a against b: the identity of order n
        self._kernel: PermArray = np.arange(self._cb.size, dtype=np.int64)

    # -- growing ---------------------------------------------------------

    def append(self, block: Sequenceish) -> "KernelBuilder":
        """Append *block* to the end of ``a`` and update the kernel."""
        cblock = encode(block)
        if cblock.size == 0:
            return self
        block_kernel = self._comb(cblock, self._cb)
        if self._m == 0:
            self._kernel = np.asarray(block_kernel, dtype=np.int64)
        else:
            self._kernel = compose_vertical(
                self._kernel,
                block_kernel,
                self._m,
                cblock.size,
                self._cb.size,
                self._multiply,
            )
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
