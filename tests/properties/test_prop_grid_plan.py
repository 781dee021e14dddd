"""Property tests for the one Listing 7 schedule.

The serial grid executes :func:`~repro.core.combing.hybrid.plan_grid_reduction`
directly and the parallel grid runs the same plan as a dataflow. Every
heuristic must give the plain combing kernel, and the two paths must
journal identical ``(level, index, key)`` records, so that a checkpointed
run started on one path resumes on the other.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import GridCheckpointer, KernelStore
from repro.core.combing.hybrid import REDUCTIONS, hybrid_combing_grid
from repro.core.combing.iterative import iterative_combing_rowmajor
from repro.core.combing.parallel import parallel_hybrid_combing_grid
from repro.parallel import SerialMachine

codes = st.lists(st.integers(0, 3), min_size=0, max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int64)
)
nonempty = st.lists(st.integers(0, 3), min_size=1, max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


@given(codes, codes, st.integers(1, 16), st.sampled_from(REDUCTIONS))
@settings(max_examples=80, deadline=None)
def test_serial_grid_equals_plain_combing(a, b, n_tasks, reduction):
    got = hybrid_combing_grid(a, b, n_tasks, reduction=reduction)
    assert np.array_equal(got, iterative_combing_rowmajor(a, b))


def _journal(tmp_path, run):
    ckpt = GridCheckpointer(KernelStore(tmp_path / "store"), compose_min_order=0)
    kernel = run(ckpt)
    lines = ckpt.journal.path.read_text(encoding="ascii").splitlines()
    records = [json.loads(line) for line in lines]
    return kernel, [r for r in records if r["type"] in ("leaf", "compose")]


@given(nonempty, nonempty, st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_serial_and_parallel_grids_journal_the_same_nodes(tmp_path_factory, a, b, n_tasks):
    serial, serial_log = _journal(
        tmp_path_factory.mktemp("serial"),
        lambda ckpt: hybrid_combing_grid(a, b, n_tasks, checkpoint=ckpt),
    )
    parallel, parallel_log = _journal(
        tmp_path_factory.mktemp("parallel"),
        lambda ckpt: parallel_hybrid_combing_grid(
            a, b, SerialMachine(), n_tasks=n_tasks, checkpoint=ckpt
        ),
    )
    assert np.array_equal(serial, parallel)
    assert serial_log == parallel_log
    assert sum(r["type"] == "compose" for r in serial_log) == (
        sum(r["type"] == "leaf" for r in serial_log) - 1
    )
