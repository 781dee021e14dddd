"""The gate table of ``benchmarks/gates.py``: deterministic, no timing.

Synthetic reports put every metric exactly at its bound, then push one
row past it; the committed ``BENCH.json`` must pass the full table.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("gates", ROOT / "benchmarks" / "gates.py")
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

ACTIVE = [
    (gate, quick)
    for gate, _, _, _, full, quick_bound in gates.GATES
    for quick, bound in ((False, full), (True, quick_bound))
    if bound is not None
]


def _at(cmp, bound):
    """The value closest to *bound* that still passes."""
    return math.nextafter(bound, math.inf) if cmp == ">" else bound


def _past(cmp, bound):
    """The value closest to *bound* that fails."""
    if cmp == "==":
        return not bound
    return bound if cmp == ">" else math.nextafter(bound, -math.inf)


def _set(node, path, big, small):
    """Write *big* at *path*; a ``*``/``max`` step writes it under the
    larger of two sizes and *small* under the smaller one."""
    head, _, rest = path.partition(".")
    steps = [("4096", big), ("1024", small)] if head in ("*", "max") else [(head, big)]
    for key, value in steps:
        if rest:
            _set(node.setdefault(key, {}), rest, value, value)
        else:
            node[key] = value


def _report(quick, past=None):
    """Every active metric at its bound, except gate *past* pushed past
    it (at the larger size only). ``max`` rows get a failing value at
    the smaller size, which the table must ignore."""
    report = {}
    for gate, section, path, cmp, full, quick_bound in gates.GATES:
        bound = quick_bound if quick else full
        if bound is None:
            continue
        at, past_value = _at(cmp, bound), _past(cmp, bound)
        node = report.setdefault(section, {})
        if gate == past:
            _set(node, path, past_value, at)
        else:
            _set(node, path, at, at if "*" in path.split(".") else past_value)
    return report


@pytest.mark.parametrize("quick", [False, True])
def test_report_at_every_bound_passes(quick):
    assert gates.check(_report(quick), quick) == []


@pytest.mark.parametrize("gate,quick", ACTIVE)
def test_each_gate_fails_alone_just_past_its_bound(gate, quick):
    assert gates.check(_report(quick, past=gate), quick) == [gate]


@pytest.mark.parametrize("section", list(gates.SECTIONS))
def test_unverified_section_fails(section):
    report = _report(quick=False)
    report[section]["verified"] = False
    assert gates.check(report, quick=False) == [f"{section}.verified"]


def test_missing_metric_fails():
    # a quick report has no grid ladder, which the full table gates
    assert "compute.ladder_processes" in gates.check(_report(quick=True), quick=False)


def test_summary_names_the_failing_gate():
    summary = gates.render_summary(
        {"schema": gates.SCHEMA, "commit": None, **_report(False, past="batch.speedup")},
        quick=False,
    )
    failing = [line for line in summary.splitlines() if line.startswith("FAIL")]
    assert len(failing) == 1 and "batch.speedup" in failing[0]


def test_committed_report_passes_the_full_table():
    report = json.loads((ROOT / "BENCH.json").read_text())
    assert report["schema"] == gates.SCHEMA
    assert report["quick"] is False
    assert gates.check(report, quick=False) == []
