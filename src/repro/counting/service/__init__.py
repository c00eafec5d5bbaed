"""The counting service: :class:`~repro.core.session.MCMLSession` over a wire.

One long-lived daemon process owns a warm session — populated memos and
component cache, open sqlite tiers — and serves counting verbs
(``solve``, ``solve_many``, ``accmc``, ``diffmc``, ``stats``, ``ping``) to
concurrent clients over line-delimited JSON on a TCP socket.  Everything
is stdlib: ``socket`` + ``threading`` + ``json``, no framework.

The three modules:

:mod:`~repro.counting.service.protocol`
    The wire format — envelope encode/decode, bounded line framing,
    response builders, tree (de)hydration, the shared stats payload.
:mod:`~repro.counting.service.server`
    :class:`CountingServer` — accept/reader threads and one solver
    thread, bounded request queue with admission control, per-client
    in-flight budgets, signature-keyed coalescing of identical in-flight
    requests, and graceful drain (stop accepting, finish the backlog, flush the disk
    tiers via ``session.close()``).
:mod:`~repro.counting.service.client`
    :class:`ServiceClient` — connect/request timeouts, capped
    exponential backoff with jitter, and rehydration of
    :class:`~repro.counting.api.CountFailure` /
    :class:`~repro.counting.exact.CounterAbort` so remote failures look
    exactly like local ones.
:mod:`~repro.counting.service.cluster`
    :class:`ShardedClient` — the same client surface over N daemons:
    consistent-hash partitioning of batches keyed on request
    signatures (each signature's warm store rows live on exactly one
    shard), rehash-failover when a shard dies mid-batch, and
    cluster-aggregated stats.

``mcml serve`` (:mod:`repro.experiments.cli`) is the daemon entry point
and ``mcml cluster --shards N`` the in-process cluster launcher;
``docs/api.md`` documents the wire protocol and failure semantics.
"""

from __future__ import annotations

from repro.counting.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.counting.service.cluster import ShardedClient
from repro.counting.service.protocol import (
    DEFAULT_PORT,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    engine_stats_payload,
)
from repro.counting.service.server import CountingServer

__all__ = [
    "DEFAULT_PORT",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "CountingServer",
    "ServiceClient",
    "ShardedClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "engine_stats_payload",
]
