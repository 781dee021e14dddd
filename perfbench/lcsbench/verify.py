"""The verifier: every answer is checked against the LCS dynamic program.

The DP is the textbook recurrence, evaluated one row of ``b`` at a time
over all of ``a`` at once in bit-vector form (Allison and Dix; Hyyroe):
bit ``i`` of ``V`` records whether row ``j`` of the DP table steps at
``a[i]``, so ``LCS(a, b[:j])`` is the number of zero bits after ``j``
rows. One row costs a few big-integer operations, which makes it cheap
enough to check large answers outside the timed window; the self-tests
compare it with :func:`repro.baselines.lcs_dp.lcs_score_dp`.

The verifier shares no code with the algorithms under test.
"""

from __future__ import annotations

import numpy as np


def _masks(a: str) -> tuple[dict[str, int], int]:
    """Per-letter position bitmasks of *a* and the all-ones mask."""
    codes = np.frombuffer(a.encode("ascii"), dtype=np.uint8)
    masks = {}
    for ch in set(a):
        bits = np.packbits(codes == ord(ch), bitorder="little")
        masks[ch] = int.from_bytes(bits.tobytes(), "little")
    return masks, (1 << len(a)) - 1


def prefix_scores(a: str, b: str) -> list[int]:
    """``[LCS(a, b[:j]) for j in 0..len(b)]``."""
    masks, full = _masks(a)
    m = len(a)
    v = full
    out = [0]
    for ch in b:
        u = v & masks.get(ch, 0)
        v = ((v + u) | (v - u)) & full
        out.append(m - v.bit_count())
    return out


def lcs(a: str, b: str) -> int:
    """``LCS(a, b)``."""
    masks, full = _masks(a)
    v = full
    for ch in b:
        u = v & masks.get(ch, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def suffix_scores(a: str, b: str) -> list[int]:
    """``[LCS(a, b[l:]) for l in 0..len(b)]``."""
    return prefix_scores(a[::-1], b[::-1])[::-1]


def sample(answer: list, rng: np.random.Generator, k: int) -> tuple[int, list]:
    """``(len(answer), [(i, answer[i]), ...])`` for *k* seeded indices:
    what the verifier keeps of an array answer, so a run does not hold
    every answer in memory."""
    if not answer:
        return len(answer), []
    return len(answer), [(int(i), answer[i]) for i in rng.integers(len(answer), size=k)]


class Verifier:
    """Counts checked and wrong answers; keeps the first few mismatches."""

    def __init__(self) -> None:
        self.checked = 0
        self.wrong = 0
        self.examples: list[str] = []

    def expect(self, what: str, got, want) -> bool:
        """Record one answer; *got* must equal the DP value *want*."""
        self.checked += 1
        if got == want:
            return True
        self.wrong += 1
        if len(self.examples) < 5:
            self.examples.append(f"{what}: got {got!r}, DP says {want!r}")
        return False

    def answer(self, what: str, checks) -> bool:
        """One answer made of several ``(got, want)`` entry checks; it is
        wrong when any entry is."""
        bad = [(g, w) for g, w in checks if g != w]
        self.checked += 1
        if not bad:
            return True
        self.wrong += 1
        if len(self.examples) < 5:
            g, w = bad[0]
            self.examples.append(f"{what}: entry got {g!r}, DP says {w!r}")
        return False
