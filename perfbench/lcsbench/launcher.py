"""Start the ``serve`` daemon with the benchmark's tracing installed.

    python3 -m lcsbench.launcher REPORT.json serve --port 0

Wraps the program's public functions (:func:`lcsbench.tracing.install`
plus the serve-side probes below), enables the tracer, then calls the
normal CLI entry ``repro.cli.main``. When the daemon exits (after its
SIGTERM drain) it writes its spans and queue waits to ``REPORT.json``.

Queue wait is the flush start minus the client's send time, both on the
host's monotonic clock: the client puts its send time into the request
``id`` (``"<seq>@<monotonic seconds>"``), and the flush start is the
entry of ``Engine.run_batch`` / ``Engine.run_query_batch``. A request is
recognised at the flush by the identity of its first ``a`` string, which
the daemon carries unchanged from the decoded request into the flush.
"""

from __future__ import annotations

import json
import sys
import threading
import time

from repro.obs import get_tracer

from . import tracing


class QueueWaits:
    """Send times of admitted requests, and the waits of flushed ones."""

    def __init__(self) -> None:
        self._sent: dict[int, tuple[str, float]] = {}
        self._lock = threading.Lock()
        #: ``(flush monotonic time, wait seconds)`` per flushed request
        self.waits: list[tuple[float, float]] = []

    def sent(self, req) -> None:
        rid = req.get("id") if isinstance(req, dict) else None
        if not isinstance(rid, str) or "@" not in rid:
            return
        if req.get("type") == "batch":
            pairs = req.get("pairs")
            key = pairs[0][0] if isinstance(pairs, list) and pairs and pairs[0] else None
        else:
            key = req.get("a")
        if isinstance(key, str):
            with self._lock:
                self._sent[id(key)] = (key, float(rid.rpartition("@")[2]))

    def _pop(self, key: str) -> float | None:
        entry = self._sent.get(id(key))
        if entry is None or entry[0] is not key:
            return None
        del self._sent[id(key)]
        return entry[1]

    def flushed(self, firsts) -> None:
        now = time.monotonic()
        with self._lock:
            for key in firsts:
                sent = self._pop(key)
                if sent is not None:
                    self.waits.append((now, now - sent))

    def answered_inline(self, a) -> None:
        with self._lock:
            self._pop(a)


def install_serve_probes() -> QueueWaits:
    """Wrap the protocol codec and the engine's flush entries; returns the
    queue-wait record they fill."""
    import repro.serve.engine as engine_mod
    import repro.serve.protocol as protocol

    waits = QueueWaits()
    decode = protocol.decode_line

    def decode_noting(line):
        req = decode(line)
        waits.sent(req)
        return req

    tracing.rebind(protocol, "decode_line",
                   tracing.after_the_fact(decode_noting, "serve.protocol"))
    tracing.rebind(protocol, "encode_line",
                   tracing.after_the_fact(protocol.encode_line, "serve.protocol"))
    engine = engine_mod.Engine
    run_batch, run_query_batch, run_query = (
        engine.run_batch, engine.run_query_batch, engine.run_query)

    def run_batch_noting(self, pairs, *args, **kwargs):
        waits.flushed(p[0] for p in pairs)
        return run_batch(self, pairs, *args, **kwargs)

    def run_query_batch_noting(self, items):
        waits.flushed(item[1] for item in items)
        return run_query_batch(self, items)

    def run_query_noting(self, op, a, b, params):
        waits.answered_inline(a)
        return run_query(self, op, a, b, params)

    engine.run_batch = tracing.spanned(run_batch_noting, "serve.flush")
    engine.run_query_batch = tracing.spanned(run_query_batch_noting, "serve.flush")
    engine.run_query = tracing.spanned(run_query_noting, "serve.inline")
    return waits


def main(argv: list[str]) -> int:
    report, cli_args = argv[0], argv[1:]
    tracing.install()
    waits = install_serve_probes()
    tracer = get_tracer()
    tracer.enabled = True
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.enabled = False
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"events": tracer.events(), "waits": waits.waits}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
