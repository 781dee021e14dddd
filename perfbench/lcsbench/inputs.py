"""Seeded inputs: DNA-like strings over the paper's generator.

Characters come from :func:`repro.datasets.synthetic.synthetic_string`
(normal distribution, rounded towards zero, paper section 5) and are
folded onto ``ACGT`` by residue mod 4. With the generator's
low-match sigma the four letters are close to uniform, as in DNA. The
program only ever receives the generated strings; the seed stays here.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.synthetic import SIGMA_LOW_MATCH, synthetic_string

_LETTERS = np.frombuffer(b"ACGT", dtype=np.uint8)


def dna(rng: np.random.Generator, length: int) -> str:
    """One DNA-like string of *length* symbols drawn from *rng*."""
    codes = synthetic_string(int(length), SIGMA_LOW_MATCH, rng=rng)
    return _LETTERS[np.mod(codes, 4)].tobytes().decode("ascii")


def dna_pair(rng: np.random.Generator, m: int, n: int | None = None) -> tuple[str, str]:
    return dna(rng, m), dna(rng, m if n is None else n)
