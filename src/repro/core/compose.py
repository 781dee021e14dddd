"""Kernel composition (Theorem 3.4) and the flip identity (Theorem 3.5).

Let ``a = a' a''`` (``a'`` of length ``m1`` on top of ``a''`` of length
``m2`` in the LCS grid) and let ``P1 = P_{a',b}``, ``P2 = P_{a'',b}``.
Walking the staircase cut between the two sub-grids shows that, in global
boundary coordinates,

- the upper sub-braid is ``id_{m2} (+) P1`` (the ``m2`` lower horizontal
  strands pass by untouched),
- the lower sub-braid is ``P2 (+) id_{m1}`` (the ``m1`` strands that
  already exited on the right edge of the upper grid stay put),

and the combined kernel is their *sticky* product::

    P_{a'a'', b} = (id_{m2} (+) P1)  ⊙  (P2 (+) id_{m1})

(⊙ = braid multiplication; verified against direct combing in
``tests/core/test_compose.py``). Splits of ``b`` reduce to splits of ``a``
through the flip identity ``P_{a,b} = rot180(P_{b,a})``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError
from ..obs import get_metrics, get_tracer
from ..types import PermArray


def flip_kernel(kernel: PermArray) -> PermArray:
    """Theorem 3.5: ``P_{a,b}`` from ``P_{b,a}`` (180° matrix rotation)."""
    k = np.asarray(kernel, dtype=np.int64)
    return (k.size - 1 - k)[::-1].copy()


def dsum_identity_first(k: int, p: PermArray) -> PermArray:
    """Direct sum ``id_k (+) p``: identity block in the low indices."""
    p = np.asarray(p, dtype=np.int64)
    return np.concatenate([np.arange(k, dtype=np.int64), k + p])


def dsum_identity_last(p: PermArray, k: int) -> PermArray:
    """Direct sum ``p (+) id_k``: identity block in the high indices."""
    p = np.asarray(p, dtype=np.int64)
    return np.concatenate([p, p.size + np.arange(k, dtype=np.int64)])


def compose_vertical(
    p_top: PermArray, p_bottom: PermArray, m_top: int, m_bottom: int, n: int, multiply=None
) -> PermArray:
    """Theorem 3.4: kernel of ``a = a_top a_bottom`` against ``b``.

    *multiply* is the braid-multiplication routine (default: the
    library's level-vectorized steady ant,
    :data:`~repro.core.steady_ant.steady_ant_multiply`, which answers
    the identity padding blocks of this product without recursing into
    them); injected by the hybrid algorithm's benchmarks.

    Observability: every composition — vertical, and horizontal via its
    reduction to this function — counts in ``combing.grid_composes``,
    records its order ``m_top + m_bottom + n`` in the
    ``combing.compose_order`` histogram, and opens a ``combing.compose``
    span when tracing is enabled.
    """
    p_top = np.asarray(p_top)
    p_bottom = np.asarray(p_bottom)
    if p_top.size != m_top + n or p_bottom.size != m_bottom + n:
        raise ShapeMismatchError(
            f"kernel orders ({p_top.size}, {p_bottom.size}) inconsistent with "
            f"m_top={m_top}, m_bottom={m_bottom}, n={n}"
        )
    if multiply is None:
        from .steady_ant import steady_ant_multiply as multiply
    order = m_top + m_bottom + n
    metrics = get_metrics()
    metrics.inc("combing.grid_composes", 1)
    metrics.get("combing.compose_order").observe(order)
    with get_tracer().span("combing.compose", args={"order": order}):
        return multiply(
            dsum_identity_first(m_bottom, p_top), dsum_identity_last(p_bottom, m_top)
        )


def compose_horizontal(
    p_left: PermArray, p_right: PermArray, m: int, n_left: int, n_right: int, multiply=None
) -> PermArray:
    """Kernel of ``a`` against ``b = b_left b_right``.

    Reduced to a vertical composition of the flipped kernels:
    ``P_{a, b'b''} = rot180( compose_vertical(P_{b', a}, P_{b'', a}) )``
    where ``P_{b,a} = rot180(P_{a,b})``.
    """
    return flip_kernel(
        compose_vertical(
            flip_kernel(p_left), flip_kernel(p_right), n_left, n_right, m, multiply
        )
    )
