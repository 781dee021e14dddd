"""Checkpoint/resume across the serial and the parallel grid.

Both grids execute the same reduction plan and journal the same
``(level, index)`` coordinates, and checkpoint keys are content-addressed
by the covered slices — so a run may crash on one path and resume on the
other, always bit-identical and reusing the crashed run's work.
"""

import numpy as np
import pytest

from repro.checkpoint import GridCheckpointer, KernelStore
from repro.core.combing.hybrid import hybrid_combing_grid
from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.parallel import (
    ChaosMachine,
    ChaosProcessDeath,
    FaultPolicy,
    ResilientMachine,
    SerialMachine,
)

from ..conftest import random_codes


class Interrupted(BaseException):
    """Stand-in for a crash: escapes the library like a real SIGKILL."""


def checkpointer(tmp_path):
    store = KernelStore(tmp_path / "store")
    return store, GridCheckpointer(store, compose_min_order=0)


def crashing_machine(abort_after, seed=1):
    return ResilientMachine(
        ChaosMachine(SerialMachine(), abort_after=abort_after, seed=seed),
        FaultPolicy(max_retries=2),
        sleep=lambda s: None,
    )


def resume(tmp_path, a, b):
    store, ckpt = checkpointer(tmp_path)
    got = parallel_hybrid_combing_grid(a, b, SerialMachine(), n_tasks=6, checkpoint=ckpt)
    return store, got


class TestFusedCheckpointing:
    def test_fused_checkpointed_equals_reference(self, tmp_path, rng):
        a, b = random_codes(rng, 26), random_codes(rng, 22)
        _, got = resume(tmp_path, a, b)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))

    def test_completed_fused_run_resumes_as_one_hit(self, tmp_path, rng):
        a, b = random_codes(rng, 26), random_codes(rng, 22)
        _, first = resume(tmp_path, a, b)
        store2, got = resume(tmp_path, a, b)
        assert np.array_equal(got, first)
        assert store2.stats() == {"hits": 1, "misses": 0, "corrupt": 0, "writes": 0, "evictions": 0}


class TestCrossPathResume:
    def test_crash_parallel_resume_serial(self, tmp_path, rng):
        a, b = random_codes(rng, 30), random_codes(rng, 26)
        # crash after every leaf completed: the dying task is a compose
        store, ckpt = checkpointer(tmp_path)
        with pytest.raises(ChaosProcessDeath):
            parallel_hybrid_combing_grid(
                a, b, crashing_machine(abort_after=7), n_tasks=6, checkpoint=ckpt
            )
        ckpt.flush()
        writes = store.stats()["writes"]
        assert writes >= 6
        store2, ckpt2 = checkpointer(tmp_path)
        got = hybrid_combing_grid(a, b, 6, checkpoint=ckpt2)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
        assert store2.stats()["hits"] >= writes  # every crashed-run node reused

    def test_crash_serial_resume_parallel(self, tmp_path, rng):
        a, b = random_codes(rng, 28), random_codes(rng, 28)
        store, ckpt = checkpointer(tmp_path)
        composes = []

        def crash_on_second_compose(order):
            composes.append(order)
            if len(composes) == 2:
                raise Interrupted("crash mid-reduction")

        with pytest.raises(Interrupted):
            hybrid_combing_grid(a, b, 6, checkpoint=ckpt, on_compose=crash_on_second_compose)
        ckpt.flush()
        writes = store.stats()["writes"]
        store2, got = resume(tmp_path, a, b)
        assert np.array_equal(got, iterative_combing_rowmajor(a, b))
        assert store2.stats()["hits"] >= writes

    def test_completed_parallel_run_is_one_hit_on_the_serial_path(self, tmp_path, rng):
        a, b = random_codes(rng, 26), random_codes(rng, 22)
        _, first = resume(tmp_path, a, b)
        store2, ckpt2 = checkpointer(tmp_path)
        got = hybrid_combing_grid(a, b, 6, checkpoint=ckpt2)
        assert np.array_equal(got, first)
        assert store2.stats()["hits"] == 1 and store2.stats()["writes"] == 0
