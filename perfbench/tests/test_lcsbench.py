"""Self-tests: the percentile rule, span self time, the verifier and
seeded reproducibility."""

import itertools
import json
import os

import numpy as np
import pytest

from lcsbench import edit_stream, pair_large, serve_mixed, stats, tracing
from lcsbench.metrics import END_TO_END, PER_LAYER, WORKLOADS
from lcsbench.verify import Verifier, lcs, prefix_scores, sample, suffix_scores
from repro.baselines import lcs_score_dp

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")


# -- percentile rule -----------------------------------------------------------


@pytest.mark.parametrize("n, want, expected", [
    (1000, 99, 99.0), (5000, 99, 99.0), (100, 90, 90.0), (1000, 90, 90.0),
    (50, 99, 80.0), (100, 99, 90.0), (19, 99, 50.0), (5, 90, 50.0),
])
def test_admissible_percentile(n, want, expected):
    assert stats.admissible_percentile(n, want) == pytest.approx(expected)


@pytest.mark.parametrize("n", [20, 37, 100, 250, 1000, 1500])
def test_tail_leaves_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    value, p = stats.tail(samples, 99)
    assert sum(1 for x in samples if x > value) >= stats.MIN_BEYOND
    if n >= 1000:
        assert p == 99


def test_tail_falls_back_to_median_for_few_samples():
    samples = [5.0, 1.0, 3.0]
    assert stats.tail(samples, 99) == (3.0, 50.0)


# -- span self time ------------------------------------------------------------


def _span(sid, parent, ts, dur, name="x"):
    return {"id": sid, "parent": parent, "ts": ts, "dur": dur, "name": name, "args": {}}


def test_self_time_subtracts_union_of_overlapping_children():
    events = [
        _span("p", None, 0, 100),
        _span("w1", "p", 10, 30),   # [10, 40)
        _span("w2", "p", 30, 30),   # [30, 60) overlaps w1
        _span("late", "p", 90, 30),  # sticks out past the parent: clipped
        _span("g", "w1", 12, 5),    # grandchild: not the parent's child
    ]
    st = tracing.self_times(events)
    assert st["p"] == pytest.approx(100 - 50 - 10)
    assert st["w1"] == pytest.approx(25)
    assert st["g"] == pytest.approx(5)


def test_layer_report_attributes_self_time_by_layer():
    events = [
        _span("grid", None, 0, 100, "combing.grid"),
        _span("leaf", "grid", 0, 60, "combing.leaf"),
        _span("comp", "grid", 60, 40, "combing.compose"),
        _span("mul", "comp", 62, 36, "steady_ant.vectorized"),
        _span("comb", "mul", 70, 27, "steady_ant.combine"),
    ]
    events[1]["args"] = {"m": 4, "n": 5}
    events[3]["args"] = {"order": 10}
    out = tracing.layer_report(events, {}, window_s=1.0)
    assert set(out) == set(PER_LAYER)
    assert out["core.combing.self_s"] == pytest.approx(60e-6)
    assert out["core.combing.cells"] == 20
    assert out["core.compose.self_s"] == pytest.approx(4e-6)
    assert out["core.steady_ant.self_s"] == pytest.approx(36e-6)
    assert out["core.steady_ant.combine_share"] == pytest.approx(27 / 36)


# -- the verifier --------------------------------------------------------------


def test_dp_rows_agree_with_reference_dp():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = "".join(rng.choice(list("ACGT"), size=int(rng.integers(0, 40))))
        b = "".join(rng.choice(list("ACGT"), size=int(rng.integers(1, 40))))
        assert lcs(a, b) == lcs_score_dp(a, b)
        assert prefix_scores(a, b) == [lcs_score_dp(a, b[:j]) for j in range(len(b) + 1)]
        assert suffix_scores(a, b) == [lcs_score_dp(a, b[l:]) for l in range(len(b) + 1)]


def test_edit_stream_verifier_catches_a_corrupted_answer():
    a, b = "ACGTTGCA" * 8, "TTGACCGA" * 8
    rng = np.random.default_rng(0)
    good = lcs(a, b)
    row = prefix_scores(a, b)
    log = [
        ("lcs", a, b, {}, good, 0.0, None),
        ("all_prefix_scores", a, b, {}, sample(row, rng, 8), 0.0, None),
        ("append", a, b, {"suffix": "ACG"}, lcs(a + "ACG", b), 0.0, None),
    ]
    assert edit_stream.verify(log).wrong == 0
    bad = [("lcs", a, b, {}, good + 1, 0.0, None),
           ("all_prefix_scores", a, b, {}, sample([x + 1 for x in row], rng, 8), 0.0, None),
           ("all_prefix_scores", a, b, {}, sample(row[:-1], rng, 8), 0.0, None),
           ("lcs", a, b, {}, None, 0.0, "RuntimeError('boom')")]
    assert edit_stream.verify(log + bad).wrong == 4


def test_pair_large_verifier_catches_a_corrupted_kernel():
    from repro.core.combing.iterative import iterative_combing_antidiag_simd

    rng = np.random.default_rng(3)
    a, b = ("".join(rng.choice(list("ACGT"), size=64)) for _ in range(2))
    perm = np.asarray(iterative_combing_antidiag_simd(a, b), dtype=np.int64)
    assert pair_large.verify([(a, b, perm)], seed=0).wrong == 0
    broken = np.arange(perm.size)  # the kernel of LCS = 64, which these pairs are not
    assert lcs(a, b) != 64
    assert pair_large.verify([(a, b, broken)], seed=0).wrong == 1


def test_serve_verifier_catches_a_corrupted_answer():
    traffic = serve_mixed.Traffic(5)
    rng = np.random.default_rng(0)
    entries, corrupted = [], []
    for spec in itertools.islice(traffic.stream(), 200):
        a, b = spec.request.get("a"), spec.request.get("b")
        if spec.kind == "lcs":
            resp = {"ok": True, "score": lcs(a, b)}
            bad = {"ok": True, "score": lcs(a, b) + 1}
        elif spec.kind == "batch":
            scores = [lcs(x, y) for x, y in spec.request["pairs"]]
            resp = {"ok": True, "scores": scores}
            bad = {"ok": True, "scores": scores[:-1] + [scores[-1] - 1]}
        elif spec.key[2] == "all_prefix_scores":
            row = prefix_scores(a, b)
            resp = {"ok": True, "result": row}
            bad = {"ok": True, "result": [x + 1 for x in row]}
        else:
            w = spec.key[3]
            result = [lcs(a, b[i:i + w]) for i in range(len(b) - w + 1)]
            resp = {"ok": True, "result": result}
            bad = {"ok": True, "result": result[1:]}
        entries.append((spec, serve_mixed.keep(spec, resp, rng), 0.0))
        corrupted.append((spec, serve_mixed.keep(spec, bad, rng), 0.0))
    assert serve_mixed.verify(entries, traffic).wrong == 0
    assert serve_mixed.verify(corrupted, traffic).wrong == len(corrupted)
    shed = {"ok": False, "error": {"code": "overloaded"}}
    spec = entries[0][0]
    assert serve_mixed.verify([(spec, serve_mixed.keep(spec, shed, rng), 0.0)],
                              traffic).wrong == 1


def test_verifier_records_first_mismatches():
    v = Verifier()
    assert v.expect("x", 1, 1)
    assert not v.expect("y", 2, 3)
    assert (v.checked, v.wrong) == (2, 1) and "y" in v.examples[0]


# -- seeded reproducibility ----------------------------------------------------


def test_seed_reproduces_the_request_sequence():
    def requests(seed):
        return [s.request for s in itertools.islice(serve_mixed.Traffic(seed).stream(), 300)]

    assert requests(11) == requests(11)
    assert requests(11) != requests(12)
    kinds = [r["type"] for r in requests(11)]
    assert {"lcs", "batch", "query"} <= set(kinds)


def test_seed_reproduces_edit_and_pair_streams():
    take = lambda it: list(itertools.islice(it, 200))  # noqa: E731
    assert take(edit_stream.op_stream(4)) == take(edit_stream.op_stream(4))
    assert take(edit_stream.op_stream(4)) != take(edit_stream.op_stream(5))
    assert edit_stream.documents(4) == edit_stream.documents(4)
    first = lambda seed: next(pair_large.pair_stream(seed))  # noqa: E731
    assert first(9) == first(9) and first(9) != first(10)


# -- the daemon's exported counters --------------------------------------------


def test_prometheus_counters_parse_back():
    from repro.obs import get_metrics, to_prometheus

    metrics = get_metrics()
    metrics.inc("serve.requests", 3)
    metrics.get("batch.lanes").observe(4)
    snap = metrics.snapshot()
    parsed = serve_mixed.parse_prometheus(to_prometheus(snap))
    assert parsed["serve.requests"]["value"] == snap["serve.requests"]["value"]
    assert parsed["batch.lanes"]["count"] == snap["batch.lanes"]["count"]
    assert parsed["batch.lanes"]["sum"] == snap["batch.lanes"]["sum"]


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- process hygiene -----------------------------------------------------------


def test_stop_children_reaps_resource_tracker_and_strays():
    import subprocess
    import sys
    from multiprocessing import shared_memory

    from lcsbench.runner import child_pids, stop_children

    seg = shared_memory.SharedMemory(create=True, size=64)
    seg.close()
    seg.unlink()
    stray = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert stray.pid in child_pids()
    stop_children(timeout=0.5)
    assert child_pids() == []
    assert stray.wait() == 0  # already reaped: Popen reads ECHILD as 0
