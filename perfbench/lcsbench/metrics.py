"""Metric names and units; ``BENCHMARK.json`` lists the same set.

An untraced run prints exactly :data:`END_TO_END`, a traced run exactly
:data:`PER_LAYER`. A layer that does no work on a workload reports 0 for
its counts and times there.

``write_p50_ms`` is listed with the per-layer metrics because it does not
repeat between runs: on a host whose speed shifts between regimes for
seconds at a time, a run's writes fall into two clusters and their median
jumps between them. A traced run reports it from its untraced half;
``write_p90_ms`` stays end-to-end.
"""

from __future__ import annotations

#: name -> unit, for the untraced run.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "cells_per_s": "cells/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "write_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: name -> unit, for the traced run.
PER_LAYER = {
    "failed_ratio": "ratio",
    "write_p50_ms": "ms",
    "alphabet.encode_s": "s",
    "core.combing.calls": "count",
    "core.combing.cells": "cells",
    "core.combing.self_s": "s",
    "core.combing.cells_per_s": "cells/s",
    "core.steady_ant.calls": "count",
    "core.steady_ant.order_mean": "strands",
    "core.steady_ant.self_s": "s",
    "core.steady_ant.combine_s": "s",
    "core.steady_ant.combine_share": "ratio",
    "core.steady_ant.precalc_build_s": "s",
    "core.compose.calls": "count",
    "core.compose.self_s": "s",
    "core.dominance.counter_builds": "count",
    "core.dominance.build_s": "s",
    "core.dominance.probe_batches": "count",
    "core.dominance.probes": "count",
    "core.dominance.probe_s": "s",
    "core.dominance.ns_per_probe": "ns",
    "query.requests": "count",
    "query.kernel_hit_ratio": "ratio",
    "query.kernel_builds": "count",
    "query.self_s": "s",
    "query.append_s": "s",
    "query.prepend_s": "s",
    "checkpoint.store.gets": "count",
    "checkpoint.store.hit_ratio": "ratio",
    "checkpoint.store.get_s": "s",
    "checkpoint.store.put_s": "s",
    "checkpoint.store.bytes_written": "bytes",
    "checkpoint.store.evictions": "count",
    "batch.run_s": "s",
    "batch.megabatches": "count",
    "batch.lanes_mean": "lanes",
    "batch.useful_cell_ratio": "ratio",
    "batch.cells_per_s": "cells/s",
    "parallel.rounds": "count",
    "parallel.tasks": "count",
    "parallel.round_s": "s",
    "parallel.worker_busy_ratio": "ratio",
    "parallel.retries": "count",
    "parallel.speedup_vs_serial": "ratio",
    "parallel.transport.bytes_shipped": "bytes",
    "parallel.transport.bytes_returned": "bytes",
    "serve.flushes": "count",
    "serve.requests_per_flush": "count",
    "serve.flush_s": "s",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.inline_hits": "count",
    "serve.shed": "count",
    "serve.protocol_s": "s",
    "serve.lcs_p50_ms": "ms",
    "serve.lcs_p99_ms": "ms",
    "serve.batch_p50_ms": "ms",
    "serve.batch_p99_ms": "ms",
    "serve.query_p50_ms": "ms",
    "serve.query_p99_ms": "ms",
    "obs.trace_overhead_ratio": "ratio",
}

WORKLOADS = ("serve_mixed", "pair_large", "edit_stream")
