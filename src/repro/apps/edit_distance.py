"""Indel (LCS) edit distance and semi-local distance queries.

With insertions and deletions only (no substitutions), edit distance and
LCS are two views of one quantity::

    d_indel(x, y) = |x| + |y| - 2 * LCS(x, y)

so every semi-local LCS query doubles as a semi-local *distance* query —
e.g. the distance from a pattern to every window of a text comes from
one combing. (Levenshtein distance with substitutions is bounded by
``d_indel / 2 <= d_lev <= d_indel``.)
"""

from __future__ import annotations

import numpy as np

from ..alphabet import encode
from ..baselines.prefix_lcs import prefix_lcs_rowmajor
from ..core.kernel import SemiLocalKernel
from ..types import Sequenceish
from .approximate_matching import sliding_window_scores


def indel_distance(x: Sequenceish, y: Sequenceish) -> int:
    """Edit distance under insertions/deletions only."""
    cx, cy = encode(x), encode(y)
    return cx.size + cy.size - 2 * prefix_lcs_rowmajor(cx, cy)


def window_distances(
    pattern: Sequenceish, text: Sequenceish, window: int | None = None
) -> np.ndarray:
    """``out[l] = d_indel(pattern, text[l : l + window))`` for all offsets
    from one semi-local combing (:func:`sliding_window_scores`)."""
    cp = encode(pattern)
    window = cp.size if window is None else window
    scores = sliding_window_scores(cp, text, window)
    return cp.size + window - 2 * scores


def best_indel_window(pattern: Sequenceish, text: Sequenceish) -> tuple[int, int, int]:
    """The window ``[l, r)`` of *text* minimizing the indel distance to
    *pattern* (over all substrings). Returns ``(l, r, distance)``.

    Uses the full string-substring quadrant: O(n^2) queries on one
    kernel.
    """
    cp, ct = encode(pattern), encode(text)
    kernel = SemiLocalKernel.from_strings(cp, ct)
    best = (0, 0, cp.size)
    for l in range(ct.size + 1):
        for r in range(l, ct.size + 1):
            dist = cp.size + (r - l) - 2 * kernel.string_substring(l, r)
            if dist < best[2]:
                best = (l, r, dist)
    return best
