"""What every workload shares: the outcome record, process memory and
shared-memory probes, and the output directory."""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import END_TO_END

#: Traces, daemon reports and temporary stores (ignored by git).
OUT_DIR = Path(__file__).resolve().parents[1] / "out"


@dataclass
class Outcome:
    """One run's result. ``failed`` counts wrong answers, errors, shed or
    refused requests and hygiene shortfalls; ``metrics`` maps metric
    name to value; a traced run also carries its spans."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)
    trace_events: list[dict] = field(default_factory=list)


def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


def peak_rss_mib(pid: int | None = None) -> float:
    """High-water resident set size (``VmHWM``) of *pid* (default: this
    process), in MiB."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def child_pids() -> list[int]:
    """Process ids whose parent is this process (zombies included)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(entry))
    return pids


def _reap(pid: int, timeout: float) -> bool:
    """Wait up to *timeout* seconds for child *pid* to end; True once it
    is reaped (or was never ours to reap)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def stop_children(timeout: float = 10.0) -> None:
    """Stop and reap every child process before the benchmark exits.

    Creating a shared-memory segment starts multiprocessing's resource
    tracker, which otherwise outlives this process until it notices the
    closed pipe; closing that pipe here makes it exit now, and it is
    waited for. Any other child left running gets SIGTERM, then SIGKILL.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        tracker._pid = None
    for pid in child_pids():
        if _reap(pid, timeout):
            continue
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                break
            if _reap(pid, timeout):
                break


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments now in /dev/shm."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro")}
    except FileNotFoundError:
        return set()


def end_to_end(summary: dict) -> dict[str, float]:
    """The untraced run's metrics out of a workload's summary."""
    return {name: summary[name] for name in END_TO_END}


def halves(plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics that compare a traced run's untraced and traced
    halves (both workload summaries)."""
    return {
        "write_p50_ms": plain["write_p50_ms"],
        "obs.trace_overhead_ratio": traced["ops_per_s"] / plain["ops_per_s"],
    }
