"""The repository's end-to-end benchmark (see ``perfbench/README.md``).

Modules:

- :mod:`.metrics` — the metric names, units and per-workload meaning;
- :mod:`.stats` — percentile rule, medians, quartile spreads;
- :mod:`.inputs` — seeded DNA-like inputs over the paper's generator;
- :mod:`.verify` — the DP verifier every answer is checked against;
- :mod:`.tracing` — wrappers around the program's public functions,
  span self time and the per-layer report;
- :mod:`.serve_mixed`, :mod:`.pair_large`, :mod:`.edit_stream` — the
  three workloads;
- :mod:`.launcher` — starts the ``serve`` daemon with tracing on.
"""
