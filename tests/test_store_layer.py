"""Differential suite for the unified ``_SqliteStore`` layer.

The disk tiers (``CountStore``/``BlobStore``/``CircuitStore``) share one
base class; this module pins the externally observable behaviour each one
has — corrupt-file rotation,
buffering depth, read-your-writes, degradation accounting under injected
faults, closed-store semantics — so the deduplication (and any tier added
later) is provably behaviour-preserving.
"""

import pickle
import sqlite3

import pytest

from repro.counting import faults
from repro.counting.store import (
    AUTOFLUSH_PUTS,
    BlobStore,
    CircuitStore,
    CountStore,
    _SqliteStore,
)

#: The disk tiers the base class serves.
TIERS = (CountStore, BlobStore, CircuitStore)


def _sample_key(store_cls, n: int):
    return f"k{n}"


def _sample_value(store_cls, n: int):
    return n if store_cls is CountStore else {"payload": n}


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


class TestSharedDiscipline:
    """Contracts every tier shares (written once in ``_SqliteStore``)."""

    @pytest.mark.parametrize("store_cls", TIERS)
    def test_subclasses_the_shared_base(self, store_cls):
        assert issubclass(store_cls, _SqliteStore)

    @pytest.mark.parametrize("store_cls", TIERS)
    def test_roundtrip_and_len(self, store_cls, tmp_path):
        with store_cls(tmp_path) as store:
            key, value = _sample_key(store_cls, 0), _sample_value(store_cls, 0)
            assert store.get(key) is None
            store.put(key, value)
            assert store.get(key) == value  # read-your-writes, buffered or not
            assert len(store) == 1
            assert store.degradations == 0

    @pytest.mark.parametrize("store_cls", TIERS)
    def test_wal_mode(self, store_cls, tmp_path):
        with store_cls(tmp_path) as store:
            (mode,) = store._connection.execute("PRAGMA journal_mode").fetchone()
            assert mode == "wal"

    @pytest.mark.parametrize("store_cls", TIERS)
    def test_corrupt_file_rotates_aside_and_counts_one_degradation(
        self, store_cls, tmp_path
    ):
        path = tmp_path / store_cls.FILENAME
        path.write_bytes(b"SQLite format 3\x00 but truncated garbage")
        with store_cls(tmp_path) as store:
            assert store.degradations == 1
            assert path.with_suffix(path.suffix + ".corrupt").exists()
            key, value = _sample_key(store_cls, 0), _sample_value(store_cls, 0)
            store.put(key, value)
            store.flush()
            assert store.get(key) == value  # fresh database is fully usable

    @pytest.mark.parametrize("store_cls", TIERS)
    def test_injected_read_failure_degrades_to_a_miss(self, store_cls, tmp_path):
        with store_cls(tmp_path) as store:
            key = _sample_key(store_cls, 0)
            store.put(key, _sample_value(store_cls, 0))
            store.flush()
            with faults.injected("store-read-corrupt"):
                assert store.get(key) is None
            assert store.degradations == 1
            assert store.get(key) == _sample_value(store_cls, 0)  # self-heals

    @pytest.mark.parametrize("store_cls", TIERS)
    def test_injected_write_failure_is_swallowed_and_counted(
        self, store_cls, tmp_path
    ):
        with store_cls(tmp_path) as store:
            key = _sample_key(store_cls, 0)
            with faults.injected("store-disk-full"):
                store.put(key, _sample_value(store_cls, 0))
                store.flush()
            assert store.degradations == 1
            # The buffer was dropped, not poisoned: the next write lands.
            store.put(_sample_key(store_cls, 1), _sample_value(store_cls, 1))
            store.flush()
            assert store.degradations == 1
            assert store.get(_sample_key(store_cls, 1)) == _sample_value(store_cls, 1)

    @pytest.mark.parametrize("store_cls", TIERS)
    def test_closed_store_accepts_and_drops(self, store_cls, tmp_path):
        store = store_cls(tmp_path)
        store.close()
        key = _sample_key(store_cls, 0)
        store.put(key, _sample_value(store_cls, 0))  # dropped, no error
        store.flush()
        assert store.get(key) is None
        assert len(store) == 0
        store.close()  # idempotent

    @pytest.mark.parametrize("store_cls", TIERS)
    def test_repr_names_the_tier(self, store_cls, tmp_path):
        with store_cls(tmp_path) as store:
            assert store_cls.__name__ in repr(store)
            assert str(store.path) in repr(store)


class TestCountStoreBehaviour:
    def test_puts_buffer_until_autoflush(self, tmp_path):
        with CountStore(tmp_path) as store:
            for i in range(AUTOFLUSH_PUTS - 1):
                store.put(f"k{i}", i)
            # Nothing on disk yet: a second store over the same file sees nothing.
            with CountStore(tmp_path) as other:
                assert other.get("k0") is None
            store.put("tip", 2**100)  # the AUTOFLUSH_PUTS-th put flushes
            with CountStore(tmp_path) as other:
                assert other.get("k0") == 0
                assert other.get("tip") == 2**100  # arbitrary precision survives
            assert not store._pending

    def test_put_many_writes_through_immediately(self, tmp_path):
        with CountStore(tmp_path) as store:
            store.put_many([("a", 1), ("b", 2)])
            with CountStore(tmp_path) as other:
                assert other.get_many(["a", "b"]) == {"a": 1, "b": 2}

    def test_get_many_prefers_the_buffer_over_rows(self, tmp_path):
        with CountStore(tmp_path) as store:
            store.put_many([("a", 1)])
            store.put("a", 7)  # buffered overwrite, not yet flushed
            assert store.get_many(["a"]) == {"a": 7}

    def test_corrupt_row_is_a_counted_miss(self, tmp_path):
        with CountStore(tmp_path) as store:
            store.put_many([("good", 3), ("bad", 4)])
        with sqlite3.connect(tmp_path / CountStore.FILENAME) as raw:
            raw.execute("UPDATE counts SET value = 'not-an-int' WHERE key = 'bad'")
            raw.commit()
        with CountStore(tmp_path) as store:
            assert store.get_many(["good", "bad"]) == {"good": 3}
            assert store.degradations == 1

    def test_len_flushes_the_buffer_and_clear_empties_the_table(self, tmp_path):
        with CountStore(tmp_path) as store:
            store.put("a", 1)
            assert len(store) == 1  # len() observes buffered puts by flushing
            store.clear()
            assert len(store) == 0
            assert store.get("a") is None


class TestBlobStoreBehaviour:
    def test_writes_through_one_transaction_per_put(self, tmp_path):
        assert BlobStore.AUTOFLUSH == 1
        with BlobStore(tmp_path) as store:
            store.put("k", {"a": [1, 2]})
            assert not store._pending  # nothing buffered between puts
            with BlobStore(tmp_path) as other:
                assert other.get("k") == {"a": [1, 2]}

    def test_unpicklable_value_is_silently_dropped(self, tmp_path):
        with BlobStore(tmp_path) as store:
            store.put("bad", lambda: None)  # lambdas do not pickle
            assert store.degradations == 0  # dropped, not a degradation
            assert store.get("bad") is None
            assert len(store) == 0

    def test_unpicklable_row_is_a_counted_miss(self, tmp_path):
        with BlobStore(tmp_path) as store:
            store.put("k", 1)
        with sqlite3.connect(tmp_path / BlobStore.FILENAME) as raw:
            raw.execute("UPDATE blobs SET value = ? WHERE key = 'k'", (b"\x80garbage",))
            raw.commit()
        with BlobStore(tmp_path) as store:
            assert store.get("k") is None
            assert store.degradations == 1


class TestRoundTripFidelity:
    """Values survive the codec bit-identically (pickle/decimal-string)."""

    def test_count_values_roundtrip_huge_ints(self, tmp_path):
        huge = 2 ** (25 * 25)  # far beyond sqlite INTEGER range
        with CountStore(tmp_path) as store:
            store.put_many([("huge", huge), ("zero", 0)])
        with CountStore(tmp_path) as store:
            assert store.get("huge") == huge
            assert store.get("zero") == 0

    def test_blob_values_roundtrip_by_pickle_equality(self, tmp_path):
        value = {"nested": [(1, 2), frozenset({3})], "text": "φ"}
        with BlobStore(tmp_path) as store:
            store.put("k", value)
        with BlobStore(tmp_path) as store:
            read = store.get("k")
            assert read == value
            assert pickle.dumps(read) == pickle.dumps(value)
