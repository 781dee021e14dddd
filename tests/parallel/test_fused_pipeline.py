"""The pipelined grid dataflow on real and faulty machines.

The dataflow executor submits the grid plan's tasks with two rounds in
flight; these tests pin down that the pipelining is real (the metric
fires on a process machine and never on a synchronous one), that results
stay bit-identical to the serial reference, and that the resilience
ladder — including a worker dying in the middle of a round — still
recovers to the exact kernel.
"""

import warnings

import numpy as np
import pytest

from repro.core.combing.hybrid import hybrid_combing_grid
from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.errors import DegradedExecutionWarning
from repro.obs import get_metrics
from repro.parallel import (
    ChaosMachine,
    ChaosProcessDeath,
    FaultPolicy,
    ProcessMachine,
    ResilientMachine,
    SerialMachine,
    ThreadMachine,
)

NO_SLEEP = dict(sleep=lambda s: None)
FAST = FaultPolicy(max_retries=4, backoff_base=0.0, jitter=0.0)

A = "abacabadabacabaeabacabadabacaba" * 3
B = "bacabadabacabaeabacabadabacabaf" * 3


def reference(a=A, b=B):
    return np.asarray(hybrid_combing_grid(a, b, 3), dtype=np.int64)


def grid(machine, a=A, b=B, **kw):
    got = parallel_hybrid_combing_grid(a, b, machine, n_tasks=4, **kw)
    return np.asarray(got, dtype=np.int64)


class TestProcessMachine:
    def test_pipelined_fused_grid_matches_reference(self):
        with ProcessMachine(workers=2) as machine:
            assert np.array_equal(grid(machine), reference())

    def test_pipelining_actually_overlaps_rounds(self):
        counter = get_metrics().counter("compute.pipelined_rounds")
        with ProcessMachine(workers=2) as machine:
            before = counter.value
            # with n_tasks=4 and 2 workers the executor must overlap
            # submissions
            got = grid(machine)
        assert np.array_equal(got, reference())
        assert counter.value > before

    def test_sync_mode_never_overlaps(self):
        # an in-process machine completes each round at submission, so
        # there is never a round in flight to overlap
        counter = get_metrics().counter("compute.pipelined_rounds")
        with ThreadMachine(workers=2) as machine:
            before = counter.value
            got = grid(machine)
        assert np.array_equal(got, reference())
        assert counter.value == before

    def test_shm_transport_round_trip(self):
        with ProcessMachine(workers=2, transport="shm") as machine:
            assert np.array_equal(grid(machine), reference())


class TestFusedRoundsUnderFaults:
    def _resilient(self, inner, **chaos):
        chaos.setdefault("seed", 3)
        return ResilientMachine(ChaosMachine(inner, **chaos), FAST, **NO_SLEEP)

    def test_transient_failures_mid_fused_round(self):
        machine = self._resilient(SerialMachine(), fail_rate=0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            got = grid(machine)
        assert np.array_equal(got, reference())
        assert machine.health()["retries"] + machine.health()["degraded_rounds"] > 0

    def test_worker_death_mid_fused_round(self):
        # ChaosProcessDeath kills the hosting worker process itself; the
        # ladder rebuilds the pool and re-runs the round
        inner = ProcessMachine(workers=2)
        machine = self._resilient(inner, crash_rate=0.15)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecutionWarning)
                got = grid(machine)
        finally:
            inner.close()
        assert np.array_equal(got, reference())

    def test_pipelined_rounds_preserve_retry_ladder(self):
        inner = ThreadMachine(workers=2)
        machine = self._resilient(inner, fail_rate=0.3, seed=11)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecutionWarning)
                got = grid(machine)
        finally:
            inner.close()
        assert np.array_equal(got, reference())
