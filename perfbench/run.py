#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one workload per invocation.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` measures and prints every
end-to-end metric; ``--trace 1`` prints the per-layer breakdown and
writes a Chrome trace to ``perfbench/out/``. Every answer is checked
against the LCS dynamic program; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, and the
exit code is non-zero when any answer was wrong or any operation failed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from lcsbench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from lcsbench.runner import out_dir, stop_children

    try:
        workload = importlib.import_module(f"lcsbench.{args.workload}")
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    units = PER_LAYER if args.trace else END_TO_END
    if set(outcome.metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(outcome.metrics) ^ set(units))}")
    for note in outcome.notes:
        print(f"# {note}")
    ratio = outcome.failed / outcome.attempted
    print(f"{args.workload} seed={args.seed} attempted={outcome.attempted} "
          f"failed={outcome.failed} failed_ratio={ratio:.6g}")
    for name, unit in units.items():
        print(f"  {name:36s} {outcome.metrics[name]:>16.6g} {unit}")
    if args.trace:
        from repro.obs import write_chrome_trace

        path = out_dir() / f"trace-{args.workload}-{args.seed}.json"
        write_chrome_trace(str(path), outcome.trace_events)
        print(f"# chrome trace: {os.path.relpath(path)}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
