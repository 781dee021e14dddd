"""Shared building blocks of the steady-ant algorithm.

Terminology follows Listing 2 of the paper. For permutations ``P`` and
``Q`` of order ``n`` (row form), the product ``R = P ⊙ Q`` is defined by
the (min,+) product of distribution matrices

    R_sigma(i, k) = min_j  P_sigma(i, j) + Q_sigma(j, k),

where ``X_sigma(i, j) = #{(r, c) in X : r >= i, c < j}``.

Divide step: ``P`` is split by *columns* into its low half ``P_lo``
(columns ``< h``) and high half; ``Q`` by *rows*. The split-off halves are
compacted to order-``h`` permutations, multiplied recursively, and the
results re-expanded into ``n x n`` sub-permutations ``R_lo``/``R_hi``
whose rows and columns partition ``[0, n)``.

Conquer step ("ant passage"): writing

    delta(i, k) = #{R_lo : row >= i, col >= k} - #{R_hi : row < i, col < k}

one shows ``R_sigma = min(d_lo, d_hi)`` with the lo-term winning exactly
where ``delta >= 0``. ``delta`` is nonincreasing when moving right and
nondecreasing when moving up, so the region boundary is a monotone
staircase from the bottom-left corner ``(n, 0)`` to the top-right corner
``(0, n)`` of the distribution grid. The *ant* traces it in O(n): in its
wake, ``R_lo`` nonzeros strictly inside the lo region and ``R_hi``
nonzeros strictly inside the hi region survive ("good nonzeros"), and the
O(n) boundary cells are resolved by explicit mixed-difference formulas —
this is where "fresh" nonzeros appear and "bad" ones are deleted.

The mixed-difference case analysis (cell ``(r, c)``, staircase height
``t(k) = max{i : delta(i, k) >= 0}``):

======================  ==========================================
corner configuration     R(r, c)
======================  ==========================================
all four lo              R_lo(r, c)
all four hi              R_hi(r, c)
r = t(c) = t(c+1)        [col c: lo with row >= r, or hi with row <= r]
r = t(c) > t(c+1)        [col c: hi at row r]
t(c+1) = r < t(c)        [col c: lo at row r] or [row r steps up at c+1]
t(c+1) < r < t(c)        [row r: hi with col <= c]
======================  ==========================================

The two middle rows are ``R_hi(r, c) + delta(r, c)`` and
``R_lo(r, c) - delta(r+1, c+1)`` with the staircase invariant
``delta(t(k), k) = 0`` substituted: the walk starts at
``delta(n, 0) = 0``, a right-step lowers delta by at most 1, and the
climb raises it by at most 1 per step, only until it is ``>= 0`` again
— so it stops at exactly 0. ``delta(r+1, c+1)`` one row below the staircase is
then ``-1`` when row ``r``'s step up was counted and 0 otherwise.

Each is verified against the dense (min,+) reference in
``tests/core/test_steady_ant.py`` over thousands of random permutations.
"""

from __future__ import annotations

import numpy as np

from ...types import PermArray


def split_p(p: np.ndarray, h: int):
    """Split P by columns at *h*; return compacted halves + row mappings."""
    mask_lo = p < h
    rows_lo = np.nonzero(mask_lo)[0]
    rows_hi = np.nonzero(~mask_lo)[0]
    p_lo = p[rows_lo]  # already a permutation of [0, h)
    p_hi = p[rows_hi] - h
    return p_lo, rows_lo, p_hi, rows_hi


def split_q(q: np.ndarray, h: int):
    """Split Q by rows at *h*; return compacted halves + column mappings."""
    cols_lo = np.sort(q[:h])
    cols_hi = np.sort(q[h:])
    q_lo = np.searchsorted(cols_lo, q[:h])
    q_hi = np.searchsorted(cols_hi, q[h:])
    return q_lo, cols_lo, q_hi, cols_hi


def combine(
    rows_lo: np.ndarray,
    lo_cols_full: np.ndarray,
    rows_hi: np.ndarray,
    hi_cols_full: np.ndarray,
    n: int,
) -> PermArray:
    """Ant passage + filtering: merge ``R_lo`` and ``R_hi`` into ``R``.

    ``R_lo`` nonzeros are ``(rows_lo[t], lo_cols_full[t])`` and ``R_hi``
    nonzeros ``(rows_hi[t], hi_cols_full[t])``; rows and columns of the
    two sub-permutations partition ``[0, n)``. Runs in O(n) Python-level
    work (the walk is inherently sequential).
    """
    if n < 64:
        # NumPy setup costs dominate tiny nodes; use plain lists throughout
        rc = [0] * n
        rl = [False] * n
        cr = [0] * n
        cl = [False] * n
        for r, c in zip(rows_lo.tolist(), lo_cols_full.tolist()):
            rc[r] = c
            rl[r] = True
            cr[c] = r
            cl[c] = True
        for r, c in zip(rows_hi.tolist(), hi_cols_full.tolist()):
            rc[r] = c
            cr[c] = r
        return _combine_small(rows_lo, lo_cols_full, rows_hi, hi_cols_full, n, rc, rl, cr, cl)

    row_col = np.empty(n, dtype=np.int64)
    row_is_lo = np.zeros(n, dtype=bool)
    col_row = np.empty(n, dtype=np.int64)
    col_is_lo = np.zeros(n, dtype=bool)
    row_col[rows_lo] = lo_cols_full
    row_is_lo[rows_lo] = True
    row_col[rows_hi] = hi_cols_full
    col_row[lo_cols_full] = rows_lo
    col_is_lo[lo_cols_full] = True
    col_row[hi_cols_full] = rows_hi

    # plain Python lists: the walk does O(n) scalar accesses and NumPy
    # scalar indexing would dominate the running time
    rc = row_col.tolist()
    rl = row_is_lo.tolist()
    cr = col_row.tolist()
    cl = col_is_lo.tolist()

    # --- the ant walk: staircase t[k] -----------------------------------
    t = [0] * (n + 1)
    t[0] = n
    i = n
    delta = 0
    for k in range(n):
        # step right: (i, k) -> (i, k+1)
        crow = cr[k]
        if (crow >= i) if cl[k] else (crow < i):
            delta -= 1
        # climb while the lo term has lost the minimum
        if delta < 0:
            k1 = k + 1
            while delta < 0:
                r = i - 1
                if (rc[r] >= k1) if rl[r] else (rc[r] < k1):
                    delta += 1
                i = r
        t[k + 1] = i

    t_arr = np.asarray(t, dtype=np.int64)
    out = np.full(n, -1, dtype=np.int64)

    # --- good nonzeros (vectorized survival filters) ---------------------
    lo_keep = (rows_lo + 1) <= t_arr[lo_cols_full + 1]  # all corners lo
    out[rows_lo[lo_keep]] = lo_cols_full[lo_keep]
    hi_keep = rows_hi > t_arr[hi_cols_full]  # all corners hi
    out[rows_hi[hi_keep]] = hi_cols_full[hi_keep]

    # --- boundary cells: mixed-difference case analysis ------------------
    mixed_rows: list[int] = []
    mixed_cols: list[int] = []
    last_row = n - 1
    for c in range(n):
        tc = t[c]
        tc1 = t[c + 1]
        r_hi = tc if tc <= last_row else last_row
        r = tc1 if tc1 > 0 else 0
        while r <= r_hi:
            if r == tc:
                if r == tc1:
                    # top corners lo, bottom corners hi
                    if (cr[c] >= r) if cl[c] else (cr[c] <= r):
                        mixed_rows.append(r)
                        mixed_cols.append(c)
                else:
                    # only the top-left corner is lo: R_hi(r, c) + delta(r, c)
                    # with delta(r, c) = 0 on the staircase
                    if (not cl[c]) and cr[c] == r:
                        mixed_rows.append(r)
                        mixed_cols.append(c)
            elif r == tc1:
                # all corners lo except bottom-right: R_lo(r, c) minus
                # delta(r+1, c+1) = 0 - (up-step at row r), both terms >= 0
                if (cl[c] and cr[c] == r) or (
                    (rc[r] >= c + 1) if rl[r] else (rc[r] < c + 1)
                ):
                    mixed_rows.append(r)
                    mixed_cols.append(c)
            else:
                # left corners lo, right corners hi
                if (not rl[r]) and rc[r] <= c:
                    mixed_rows.append(r)
                    mixed_cols.append(c)
            r += 1
    if mixed_rows:
        out[np.asarray(mixed_rows)] = np.asarray(mixed_cols)

    return out


def _combine_small(rows_lo, lo_cols_full, rows_hi, hi_cols_full, n, rc, rl, cr, cl):
    """Pure-Python combine for small orders (same logic as :func:`combine`)."""
    t = [0] * (n + 1)
    t[0] = n
    i = n
    delta = 0
    for k in range(n):
        crow = cr[k]
        if (crow >= i) if cl[k] else (crow < i):
            delta -= 1
        if delta < 0:
            k1 = k + 1
            while delta < 0:
                r = i - 1
                if (rc[r] >= k1) if rl[r] else (rc[r] < k1):
                    delta += 1
                i = r
        t[k + 1] = i

    out = [-1] * n
    for r, c in zip(rows_lo.tolist(), lo_cols_full.tolist()):
        if r + 1 <= t[c + 1]:
            out[r] = c
    for r, c in zip(rows_hi.tolist(), hi_cols_full.tolist()):
        if r > t[c]:
            out[r] = c

    last_row = n - 1
    for c in range(n):
        tc = t[c]
        tc1 = t[c + 1]
        r_hi = tc if tc <= last_row else last_row
        r = tc1 if tc1 > 0 else 0
        while r <= r_hi:
            if r == tc:
                if r == tc1:
                    if (cr[c] >= r) if cl[c] else (cr[c] <= r):
                        out[r] = c
                else:
                    if (not cl[c]) and cr[c] == r:
                        out[r] = c
            elif r == tc1:
                if (cl[c] and cr[c] == r) or (
                    (rc[r] >= c + 1) if rl[r] else (rc[r] < c + 1)
                ):
                    out[r] = c
            else:
                if (not rl[r]) and rc[r] <= c:
                    out[r] = c
            r += 1

    return np.asarray(out, dtype=np.int64)
