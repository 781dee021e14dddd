"""The plain sequential steady-ant algorithm (paper Listing 2, "base").

Divide-and-conquer down to order 1, fresh arrays at every level — no
precalc, no arena. O(n log n) time.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeMismatchError
from ...types import PermArray
from ._core import combine, split_p, split_q


def _multiply(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = p.size
    if n <= 1:
        return p.copy()
    h = n // 2
    p_lo, rows_lo, p_hi, rows_hi = split_p(p, h)
    q_lo, cols_lo, q_hi, cols_hi = split_q(q, h)
    r_lo_small = _multiply(p_lo, q_lo)
    r_hi_small = _multiply(p_hi, q_hi)
    return combine(rows_lo, cols_lo[r_lo_small], rows_hi, cols_hi[r_hi_small], n)


def steady_ant_sequential(p: PermArray, q: PermArray) -> PermArray:
    """Sticky product ``p ⊙ q`` via the unoptimized steady ant."""
    p = np.ascontiguousarray(p, dtype=np.int64)
    q = np.ascontiguousarray(q, dtype=np.int64)
    if p.size != q.size:
        raise ShapeMismatchError(f"orders differ: {p.size} vs {q.size}")
    return _multiply(p, q)
