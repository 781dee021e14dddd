"""CLI observability smoke: --trace/--metrics-out/--profile and trace export."""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs import validate_chrome_trace

A = "abcab" * 26
B = "acaba" * 26


def test_semilocal_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert (
        main(["semilocal", A, B, "--trace", str(trace), "--metrics-out", str(metrics)])
        == 0
    )
    capsys.readouterr()

    doc = json.loads(trace.read_text())
    names = validate_chrome_trace(doc)
    assert any(n.startswith("combing.") for n in names)
    assert "steady_ant.vectorized" in names
    assert "phase:combing" in names

    mdoc = json.loads(metrics.read_text())
    assert mdoc["version"] == 1
    assert mdoc["metrics"]["steady_ant.vectorized_multiplies"]["value"] > 0
    assert mdoc["metrics"]["combing.grid_leaves"]["value"] > 0
    assert "combing" in mdoc["phases"]


def test_profile_prints_phase_breakdown(capsys):
    assert main(["semilocal", A, B, "--profile"]) == 0
    err = capsys.readouterr().err
    assert "phase" in err and "combing" in err


def test_trace_export_round_trip(tmp_path, capsys):
    raw = tmp_path / "trace.jsonl"
    out = tmp_path / "exported.json"
    assert main(["semilocal", A, B, "--trace-raw", str(raw)]) == 0
    assert main(["trace", "export", str(raw), "-o", str(out)]) == 0
    capsys.readouterr()
    names = validate_chrome_trace(json.loads(out.read_text()))
    assert any(n.startswith("combing.") for n in names)
