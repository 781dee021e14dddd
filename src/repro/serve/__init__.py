"""repro.serve — the long-lived serving tier.

One-shot CLI runs pay build-run-teardown per invocation; production
traffic needs a persistent process that keeps the expensive artifacts
warm and survives misbehaving clients and faulty workers. This package
provides that tier in three layers:

- :mod:`repro.serve.engine` — :class:`Engine`, the warm build-run-
  teardown lifecycle (machine pool, steady-ant plan cache,
  shared-memory slab pools) behind idempotent ``start()`` / ``drain()``
  / ``close()``;
- :mod:`repro.serve.server` — :class:`LcsServer`, the asyncio
  continuous-batching daemon with admission control, backpressure,
  per-client quotas (:mod:`repro.serve.quota`), deadlines, structured
  overload errors and graceful SIGTERM drain, speaking the
  newline-delimited JSON protocol of :mod:`repro.serve.protocol`;
- :mod:`repro.serve.client` — :class:`ServeClient`, the blocking
  client used by ``repro-lcs client`` and the test suite.

Quickstart (see the README "Serving" section for the wire protocol)::

    engine = Engine(backend="processes", workers=4, transport="shm")
    server = LcsServer(engine, ServerConfig(port=7070, quota_rate=100))
    await server.start()
    await server.serve_forever()   # returns after a SIGTERM drain
"""

from __future__ import annotations

from .client import ServeClient
from .engine import Engine
from .protocol import ERROR_CODES
from .quota import QuotaTable, TokenBucket
from .server import LcsServer, ServerConfig

__all__ = [
    "Engine",
    "LcsServer",
    "ServerConfig",
    "ServeClient",
    "QuotaTable",
    "TokenBucket",
    "ERROR_CODES",
]
