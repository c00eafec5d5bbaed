"""Bounded LRU cache of counted components, shared across counting calls.

The exact counter's component cache used to be per-``count()`` state: every
call started cold and re-counted components it had already solved in the
previous call.  MCML's workloads make that expensive — AccMC/DiffMC conjoin
the *same* property CNF with many different tree regions, so the residual
search revisits thousands of identical components across calls (component
caching is the defining optimisation of the sharpSAT lineage, and cross-call
reuse is its natural extension once an engine owns the batch).

:class:`ComponentCache` lifts that cache out of per-call state:

* entries map a component key — ``(frozenset of (pos_mask, neg_mask)
  clauses, projection mask)`` in the component's packed variable space — to
  its projected model count; keys tagged ``("elim", clauses, proj)`` map
  the counter's top-level auxiliary-elimination input to its output
  instead (same-φ conjunctions share that work wholesale, because clauses
  inside the projection can never contain an elimination pivot).  Either
  value is a *pure function* of its key, so sharing entries across calls,
  problems and engines is sound by construction: a warm
  hit is bit-identical to a cold recount;
* the cache is bounded: a byte budget (estimated — see :func:`entry_cost`)
  and/or an entry budget, evicting least-recently-used entries first.
  Evicted entries are dropped; a later miss recounts the component.

The cache lives in memory only: a disk tier for components was measured
not to win across sessions, and the whole-count tier (``counts.sqlite``)
already answers exact repeats before the counter runs.

Thread-safety: none — the cache is meant to be owned by one engine in one
process.
"""

from __future__ import annotations

from collections import OrderedDict

#: Default byte budget for a cache built without explicit caps.  Sized so a
#: full AccMC training-ratio sweep at scope 4 runs eviction-free (~380 MiB
#: measured; the estimate below tracks actual RSS within ~1%).  Overflow is
#: graceful: LRU churn degrades toward per-call-cache performance, never
#: below it by more than a few percent.
DEFAULT_MAX_BYTES = 512 << 20

#: A cached component: packed clause set + projection mask.
ComponentKey = tuple[frozenset, int]


def entry_cost(key: ComponentKey, value) -> int:
    """Estimated bytes held by one cache entry.

    An estimate, not an audit: per clause we charge the tuple header plus
    two arbitrary-precision ints of roughly the component's width (taken
    from an arbitrary member clause — components are packed dense, so any
    clause's span is a fair proxy), plus frozenset/dict slot overhead.
    Values are model counts (ints) or memoized elimination results (tuples
    of mask clauses — see ``ExactCounter``'s top-level elimination memo).
    """
    clauses, proj = _key_clauses(key)
    width = proj.bit_length()
    for pos, neg in clauses:
        width = max(width, (pos | neg).bit_length())
        break  # one sample clause is enough for an estimate
    per_clause = 120 + (width >> 2)
    cost = 200 + len(clauses) * per_clause
    if isinstance(value, int):
        return cost + (value.bit_length() >> 3)
    return cost + len(value) * per_clause  # an eliminated clause tuple


def _key_clauses(key) -> ComponentKey:
    """The ``(clauses, proj)`` pair of a plain or tagged (``("elim", …)``) key."""
    if len(key) == 2:
        return key
    return key[1], key[2]


class ComponentCache:
    """Bounded LRU ``component key -> projected model count`` map.

    Parameters
    ----------
    max_bytes:
        Approximate byte budget (see :func:`entry_cost`); ``None`` disables
        the byte cap.  Defaults to :data:`DEFAULT_MAX_BYTES`.
    max_entries:
        Entry-count budget; ``None`` (default) disables it.  When both caps
        are set, exceeding either evicts.
    """

    __slots__ = (
        "max_bytes",
        "max_entries",
        "_data",
        "_bytes",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(
        self,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        max_entries: int | None = None,
    ) -> None:
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._data: OrderedDict[ComponentKey, int] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- the hot-path pair ------------------------------------------------------------

    def get(self, key: ComponentKey) -> int | None:
        """The cached count for ``key`` (refreshing its recency), or None."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: ComponentKey, value: int) -> None:
        """Insert ``key -> value``, dropping LRU entries past the caps."""
        data = self._data
        if key in data:
            data.move_to_end(key)
            return  # counts are pure functions of the key: never re-stored
        data[key] = value
        self._bytes += entry_cost(key, value)
        max_bytes, max_entries = self.max_bytes, self.max_entries
        while (max_bytes is not None and self._bytes > max_bytes and data) or (
            max_entries is not None and len(data) > max_entries
        ):
            old_key, old_value = data.popitem(last=False)
            self._bytes -= entry_cost(old_key, old_value)
            self.evictions += 1

    # -- maintenance ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (the hit/miss/eviction counters are kept)."""
        self._data.clear()
        self._bytes = 0

    def approximate_bytes(self) -> int:
        """The estimated byte footprint the eviction loop works against."""
        return self._bytes

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._data),
            "approx_bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: ComponentKey) -> bool:
        return key in self._data

    def __repr__(self) -> str:
        cap = "unbounded" if self.max_bytes is None else f"{self.max_bytes >> 20}MiB"
        return (
            f"ComponentCache(entries={len(self._data)}, cap={cap}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
