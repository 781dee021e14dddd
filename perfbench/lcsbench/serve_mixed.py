"""Workload ``serve_mixed``: mixed traffic against a ``serve`` daemon.

A ``repro-lcs serve`` subprocess with default flags (``--port 0`` aside)
and its memory-only query tier. A closed loop of two asyncio
connections with zero think time sends a seeded mix:

- 40% ``lcs`` requests, one pair of lengths 64-512;
- 20% ``batch`` requests, 16 pairs of about 256 symbols;
- 40% ``query`` requests, ``windowed_lcs`` or ``all_prefix_scores`` on
  a hot set of 8 pairs at n=1024 that warm-up builds; one query in 50
  uses a fresh pair instead, so its kernel build joins the batcher's
  megabatch as a miss.

Scoring pairs are drawn from seeded pools; the daemon memoizes no
scores, so a repeated pair costs it the same as a new one.

Why: only this workload goes through the protocol, admission, the
batcher, lockstep batch combing and the inline query-hit path — what
daemon users see. It barely touches ``core.steady_ant`` or ``parallel``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.obs import diff_snapshots
from repro.obs.metrics import METRIC_CATALOG

from . import tracing
from .inputs import dna, dna_pair
from .runner import Outcome, end_to_end, halves, out_dir, peak_rss_mib
from .stats import median, p50_and_tail_ms, tail
from .verify import Verifier, lcs, prefix_scores, sample

CONNECTIONS = 2
LCS_LEN = (64, 512)
BATCH_PAIRS, BATCH_LEN = 16, (224, 288)
HOT, HOT_LEN = 8, 1024
WINDOWS = (64, 256)
#: One block of the request mix.
MIX = ("lcs",) * 4 + ("batch",) * 2 + ("query",) * 4
#: One query in this many uses a fresh pair (a kernel-build miss).
FRESH_EVERY = 50
LCS_POOL, BATCH_POOL = 256, 32
SETUPS = 5
SAMPLE = 8
#: Seconds to wait for the daemon to start or to finish its drain.
DAEMON_TIMEOUT = 60.0

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@dataclass(frozen=True)
class Spec:
    """One request: ``kind`` is lcs/batch/query, ``key`` names the
    answer for the verifier, ``cells`` is the comb work (sum of m*n) of
    a scoring request, ``write`` marks requests that comb a kernel."""

    kind: str
    key: tuple
    request: dict
    cells: int
    write: bool


class Traffic:
    """Pools and the seeded request sequence of one seed.

    The mix is stratified so every seed runs the same workload shape:
    each block of ten requests holds exactly 4 ``lcs``, 2 ``batch`` and 4
    ``query`` requests in seeded order, one query in every 50 uses a
    fresh pair, and pool string lengths are a fixed spread over their
    range in seeded order. Only the strings and the order vary.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 0])

        def lengths(lo, hi, count):
            return rng.permutation(np.linspace(lo, hi, count).round().astype(int))

        self.lcs_pool = [(dna(rng, int(m)), dna(rng, int(n))) for m, n in zip(
            lengths(*LCS_LEN, LCS_POOL), lengths(*LCS_LEN, LCS_POOL))]
        self.batch_pool = [
            [(dna(rng, int(m)), dna(rng, int(n))) for m, n in zip(
                lengths(*BATCH_LEN, BATCH_PAIRS), lengths(*BATCH_LEN, BATCH_PAIRS))]
            for _ in range(BATCH_POOL)
        ]
        self.hot = [dna_pair(rng, HOT_LEN) for _ in range(HOT)]
        self.seed = seed
        self.fresh: dict[int, tuple[str, str]] = {}

    def warmup(self):
        """Requests that build the hot set's kernels."""
        for i, (a, b) in enumerate(self.hot):
            yield Spec("query", ("hot", i, "all_prefix_scores", None),
                       {"type": "query", "op": "all_prefix_scores", "a": a, "b": b}, 0, True)

    def stream(self):
        """The endless seeded request sequence."""
        rng = np.random.default_rng([self.seed, 1])
        n = itertools.count()
        queries = itertools.count()
        fresh_at = 0
        while True:
            for kind in rng.permutation(MIX):
                if kind == "lcs":
                    i = int(rng.integers(LCS_POOL))
                    a, b = self.lcs_pool[i]
                    yield Spec("lcs", ("lcs", i), {"type": "lcs", "a": a, "b": b},
                               len(a) * len(b), True)
                    continue
                if kind == "batch":
                    i = int(rng.integers(BATCH_POOL))
                    pairs = self.batch_pool[i]
                    yield Spec("batch", ("batch", i), {"type": "batch", "pairs": pairs},
                               sum(len(a) * len(b) for a, b in pairs), True)
                    continue
                q = next(queries)
                if q % FRESH_EVERY == 0:
                    fresh_at = q + int(rng.integers(FRESH_EVERY))
                windowed = rng.random() < 0.5
                op = "windowed_lcs" if windowed else "all_prefix_scores"
                if q == fresh_at:
                    k = next(n)
                    a = dna(rng, int(rng.integers(LCS_LEN[0], LCS_LEN[1] + 1)))
                    b = dna(rng, int(rng.integers(LCS_LEN[0], LCS_LEN[1] + 1)))
                    self.fresh[k] = (a, b)
                    window = WINDOWS[0] if windowed else None
                    key, write = ("fresh", k, op, window), True
                else:
                    i = int(rng.integers(HOT))
                    a, b = self.hot[i]
                    window = WINDOWS[int(rng.integers(len(WINDOWS)))] if windowed else None
                    key, write = ("hot", i, op, window), False
                req = {"type": "query", "op": op, "a": a, "b": b}
                if window is not None:
                    req["params"] = {"window": window}
                yield Spec("query", key, req, 0, write)

    def pair_of(self, key):
        return self.hot[key[1]] if key[0] == "hot" else self.fresh[key[1]]


# -- the daemon ---------------------------------------------------------------


def _spawn(traced: bool, report: str | None):
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    serve = ["serve", "--port", "0"]
    cmd = [sys.executable, "-m"] + (
        ["lcsbench.launcher", report] if traced else ["repro.cli"]) + serve
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    if not line.startswith("serving on "):
        proc.kill()
        _out, err = proc.communicate(timeout=DAEMON_TIMEOUT)
        raise RuntimeError(f"daemon did not start: {line!r} {err[-2000:]}")
    port = int(line.rsplit(":", 1)[1])
    return proc, port, took


def _stop(proc) -> tuple[int, int]:
    """SIGTERM the daemon and wait for its drain; returns ``(exit code,
    admitted - completed)`` from its drain summary."""
    proc.send_signal(signal.SIGTERM)
    try:
        _out, err = proc.communicate(timeout=DAEMON_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return -1, 0
    fields = {}
    for line in err.splitlines():
        if line.startswith("drain complete:"):
            for part in line.split(":", 1)[1].split(","):
                k, _, v = part.strip().partition("=")
                fields[k] = int(v)
    return proc.returncode, fields.get("admitted", 0) - fields.get("completed", 0)


# -- the closed loop ------------------------------------------------------------


async def _call(reader, writer, obj: dict) -> dict:
    writer.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def keep(spec: Spec, resp: dict | None, rng) -> tuple[str, object]:
    """What the verifier needs of one response: ``("ok", score(s) or
    sampled entries)`` or ``("error", why)``."""
    if not resp or not resp.get("ok"):
        return "error", (resp or {}).get("error") or "no response"
    if spec.kind == "lcs":
        return "ok", resp.get("score")
    if spec.kind == "batch":
        return "ok", resp.get("scores")
    result = resp.get("result")
    return "ok", sample(result, rng, SAMPLE) if isinstance(result, list) else result


async def _connection(port, specs, deadline, log, seq, seed):
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
    try:
        for spec in specs:
            if deadline is not None and time.monotonic() >= deadline:
                break
            k = next(seq)
            sent = time.monotonic()
            req = dict(spec.request, id=f"{k}@{sent:.6f}")
            writer.write(json.dumps(req, separators=(",", ":")).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            dt = time.monotonic() - sent
            resp = json.loads(line) if line else None
            log.append((spec, keep(spec, resp, np.random.default_rng([seed, 2, k])), dt))
    finally:
        writer.close()
        await writer.wait_closed()


async def _session(port: int, traffic: Traffic, seconds: float) -> dict:
    seq = itertools.count()
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
    try:
        warm: list = []
        await _connection(port, traffic.warmup(), None, warm, seq, traffic.seed)
        snap0 = await _snapshot(reader, writer)
        log: list = []
        specs = traffic.stream()
        t0, wall0 = time.monotonic(), time.time()
        await asyncio.gather(*(
            _connection(port, specs, t0 + seconds, log, seq, traffic.seed)
            for _ in range(CONNECTIONS)))
        t1, wall1 = time.monotonic(), time.time()
        snap1 = await _snapshot(reader, writer)
    finally:
        writer.close()
        await writer.wait_closed()
    return {"warm": warm, "log": log, "elapsed": t1 - t0, "mono": (t0, t1),
            "wall": (wall0, wall1), "snaps": (snap0, snap1)}


async def _snapshot(reader, writer) -> dict:
    """The daemon's health document and its counters (from the
    ``metrics`` request), keyed by the program's metric catalog."""
    health = await _call(reader, writer, {"type": "health"})
    text = (await _call(reader, writer, {"type": "metrics"}))["text"]
    return {"health": health, "counters": parse_prometheus(text)}


def parse_prometheus(text: str) -> dict:
    """Counter values and histogram count/sum from the daemon's
    Prometheus text, as ``{catalog name: snapshot-like dict}``."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    out = {}
    for name, kind, *_rest in METRIC_CATALOG:
        base = "repro_" + name.replace(".", "_").replace("-", "_")
        if kind == "counter":
            out[name] = {"kind": kind, "value": samples.get(base + "_total", 0.0)}
        elif kind == "histogram":
            out[name] = {"kind": kind, "count": samples.get(base + "_count", 0.0),
                         "sum": samples.get(base + "_sum", 0.0)}
    return out


# -- verification -------------------------------------------------------------


def verify(entries, traffic: Traffic) -> Verifier:
    """Every ``lcs``/``batch`` score against the DP; query answers at the
    entries :func:`keep` sampled, and their length."""
    v = Verifier()
    scores: dict = {}
    rows: dict = {}
    windows: dict = {}
    for spec, (status, got), _dt in entries:
        what = f"{spec.kind} {spec.key}"
        if status != "ok":
            v.answer(what, [(got, "ok")])
            continue
        if spec.kind == "lcs":
            if spec.key not in scores:
                scores[spec.key] = lcs(spec.request["a"], spec.request["b"])
            v.expect(what, got, scores[spec.key])
            continue
        if spec.kind == "batch":
            if spec.key not in scores:
                scores[spec.key] = [lcs(a, b) for a, b in spec.request["pairs"]]
            v.expect(what, got, scores[spec.key])
            continue
        a, b = traffic.pair_of(spec.key)
        op, window = spec.key[2], spec.key[3]
        n, entries_kept = got
        if op == "all_prefix_scores":
            if (a, b) not in rows:
                rows[(a, b)] = prefix_scores(a, b)
            want = rows[(a, b)]
            checks = [(n, len(want))] + [(val, want[i]) for i, val in entries_kept]
        else:
            checks = [(n, len(b) - window + 1)]
            for i, val in entries_kept:
                if (a, b, window, i) not in windows:
                    windows[(a, b, window, i)] = lcs(a, b[i:i + window])
                checks.append((val, windows[(a, b, window, i)]))
        v.answer(what, checks)
    return v


# -- measurement --------------------------------------------------------------


def _measure(seed: int, seconds: float, traced: bool, setups: int) -> dict:
    traffic = Traffic(seed)
    report = str(out_dir() / f"daemon-{seed}-{os.getpid()}.json") if traced else None
    took, hygiene = [], 0
    proc = None
    for _ in range(setups):
        if proc is not None:
            code, short = _stop(proc)
            hygiene += short if code == 0 else max(1, short)
        proc, port, t = _spawn(traced, report)
        took.append(t)
    try:
        res = asyncio.run(_session(port, traffic, seconds))
        rss = peak_rss_mib(proc.pid)
    finally:
        code, short = _stop(proc)
    hygiene += short if code == 0 else max(1, short)
    res.update(setups=took, rss=rss, hygiene=hygiene, traffic=traffic)
    if traced:
        with open(report, encoding="utf-8") as fh:
            res["daemon"] = json.load(fh)
        os.unlink(report)
    return res


def _summary(res: dict) -> dict:
    log, elapsed = res["log"], res["elapsed"]
    lat = [dt for _s, _r, dt in log]
    writes = [dt for s, _r, dt in log if s.write]
    cells = sum(s.cells for s, (status, _got), _dt in log if status == "ok")
    return {
        "setup_s": median(res["setups"]),
        "ops_per_s": len(log) / elapsed,
        "cells_per_s": cells / elapsed,
        "latency_p50_ms": median(lat) * 1e3,
        "latency_p99_ms": tail(lat, 99)[0] * 1e3,
        "write_p50_ms": median(writes) * 1e3,
        "write_p90_ms": tail(writes, 90)[0] * 1e3,
        "peak_rss_mb": res["rss"],
    }


def _check(res: dict):
    entries = res["warm"] + res["log"]
    v = verify(entries, res["traffic"])
    notes = list(v.examples)
    if res["hygiene"]:
        notes.append(f"daemon drain fell short by {res['hygiene']} request(s)")
    return len(entries), v.wrong + res["hygiene"], notes


def _serve_layers(res: dict) -> dict:
    """The serve-layer metrics: daemon health deltas, queue waits, and
    the client's per-type round trips."""
    (h0, h1) = (s["health"]["server"] for s in res["snaps"])
    flushes = h1["batches"] - h0["batches"]
    admitted = h1["admitted"] - h0["admitted"]
    t0, t1 = res["mono"]
    waits = [w for t, w in res["daemon"]["waits"] if t0 <= t <= t1]
    out = {
        "serve.flushes": flushes,
        "serve.requests_per_flush": admitted / flushes if flushes else 0.0,
        "serve.inline_hits": h1["query_hits"] - h0["query_hits"],
        "serve.shed": h1["shed"] - h0["shed"],
    }
    out["serve.queue_wait_p50_ms"], out["serve.queue_wait_p99_ms"] = p50_and_tail_ms(waits, 99)
    for kind in ("lcs", "batch", "query"):
        lat = [dt for s, _r, dt in res["log"] if s.kind == kind]
        out[f"serve.{kind}_p50_ms"], out[f"serve.{kind}_p99_ms"] = p50_and_tail_ms(lat, 99)
    return out


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    if not trace:
        res = _measure(seed, seconds, traced=False, setups=SETUPS)
        attempted, failed, notes = _check(res)
        kinds = {k: sum(1 for s, _r, _d in res["log"] if s.kind == k)
                 for k in ("lcs", "batch", "query")}
        notes.insert(0, f"{len(res['log'])} requests {kinds}")
        return Outcome(attempted, failed, end_to_end(_summary(res)), notes)
    plain = _measure(seed, seconds / 2, traced=False, setups=1)
    res = _measure(seed, seconds / 2, traced=True, setups=1)
    att_plain, failed_plain, notes = _check(plain)
    att, failed, notes_traced = _check(res)
    attempted, failed = att_plain + att, failed_plain + failed
    events = res["daemon"]["events"]
    window = tracing.in_window(events, *res["wall"])
    delta = diff_snapshots(res["snaps"][1]["counters"], res["snaps"][0]["counters"])
    extra = _serve_layers(res)
    extra.update(failed_ratio=failed / attempted, **halves(_summary(plain), _summary(res)))
    metrics = tracing.layer_report(window, delta, window_s=res["elapsed"],
                                   setup_events=tracing.in_window(events, 0, res["wall"][0]),
                                   extra=extra)
    return Outcome(attempted, failed, metrics, notes + notes_traced, trace_events=events)
