"""Durable ledger stores: append, fsync, crash replay, torn-tail recovery.

The privacy guarantee of the serving layer is exactly as strong as these
tests: a charge the store acknowledged must survive process death, and a
crash mid-append must cost at most the single unacknowledged record.
"""

import json
import threading

import pytest

from repro.exceptions import LedgerError
from repro.server.ledger import (
    LEDGER_FORMAT_VERSION,
    InMemoryLedgerStore,
    JsonlLedgerStore,
    LedgerStore,
)


def charge(tenant="alice", epsilon=0.1, label="r1"):
    return {"tenant": tenant, "dataset": "d", "label": label, "epsilon": epsilon}


class TestInMemoryLedgerStore:
    def test_round_trip_and_isolation(self):
        store = InMemoryLedgerStore()
        record = charge()
        store.append(record)
        replayed = store.replay()
        assert replayed == [record]
        # Mutating the replayed copy must not corrupt the store.
        replayed[0]["epsilon"] = 99.0
        assert store.replay()[0]["epsilon"] == 0.1
        assert len(store) == 1

    def test_satisfies_protocol(self):
        assert isinstance(InMemoryLedgerStore(), LedgerStore)
        assert isinstance(
            JsonlLedgerStore.__new__(JsonlLedgerStore), LedgerStore
        )


class TestJsonlLedgerStore:
    def test_append_persists_jsonl_lines(self, tmp_path):
        path = tmp_path / "d.ledger.jsonl"
        with JsonlLedgerStore(path) as store:
            store.append(charge(label="r1"))
            store.append(charge(tenant="bob", epsilon=0.2, label="r2"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["tenant"] == "alice"
        assert first["epsilon"] == 0.1
        assert first["v"] == LEDGER_FORMAT_VERSION

    def test_reopen_replays_in_order(self, tmp_path):
        path = tmp_path / "d.ledger.jsonl"
        with JsonlLedgerStore(path) as store:
            for i in range(5):
                store.append(charge(label=f"r{i}", epsilon=0.01 * (i + 1)))
        reopened = JsonlLedgerStore(path)
        labels = [r["label"] for r in reopened.replay()]
        assert labels == [f"r{i}" for i in range(5)]
        # Appends continue after the replayed tail.
        reopened.append(charge(label="r5"))
        reopened.close()
        assert len(list(JsonlLedgerStore(path).replay())) == 6

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "d.ledger.jsonl"
        with JsonlLedgerStore(path) as store:
            store.append(charge())
        assert path.exists()

    def test_torn_final_line_is_truncated(self, tmp_path):
        path = tmp_path / "d.ledger.jsonl"
        with JsonlLedgerStore(path) as store:
            store.append(charge(label="good1"))
            store.append(charge(label="good2"))
        # Simulate a crash mid-append: half a JSON object, no newline.
        with open(path, "ab") as fh:
            fh.write(b'{"tenant": "alice", "eps')
        store = JsonlLedgerStore(path)
        assert [r["label"] for r in store.replay()] == ["good1", "good2"]
        # The torn bytes are gone from disk, and appends resume cleanly.
        store.append(charge(label="good3"))
        store.close()
        lines = path.read_text().splitlines()
        assert [json.loads(l)["label"] for l in lines] == [
            "good1",
            "good2",
            "good3",
        ]

    def test_complete_invalid_final_line_refuses_to_open(self, tmp_path):
        """A newline-terminated line was fully written (and possibly
        acknowledged) — dropping it would under-count spend, so recovery
        must refuse rather than truncate."""
        path = tmp_path / "d.ledger.jsonl"
        with JsonlLedgerStore(path) as store:
            store.append(charge(label="good"))
        with open(path, "ab") as fh:
            fh.write(b'{"complete-but-invalid": \n')
        with pytest.raises(LedgerError, match="corrupt"):
            JsonlLedgerStore(path)

    def test_torn_tail_on_empty_ledger(self, tmp_path):
        path = tmp_path / "d.ledger.jsonl"
        path.write_bytes(b'{"never finis')
        store = JsonlLedgerStore(path)
        assert list(store.replay()) == []
        store.close()
        assert path.read_bytes() == b""

    def test_mid_file_corruption_refuses_to_open(self, tmp_path):
        path = tmp_path / "d.ledger.jsonl"
        with JsonlLedgerStore(path) as store:
            store.append(charge(label="good1"))
            store.append(charge(label="good2"))
        body = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"garbage-not-json\n" + body[1])
        with pytest.raises(LedgerError, match="corrupt"):
            JsonlLedgerStore(path)

    def test_non_object_record_refuses_to_open(self, tmp_path):
        path = tmp_path / "d.ledger.jsonl"
        path.write_text('[1, 2, 3]\n{"ok": true}\n')
        with pytest.raises(LedgerError, match="corrupt"):
            JsonlLedgerStore(path)

    def test_append_after_close_raises(self, tmp_path):
        store = JsonlLedgerStore(tmp_path / "d.ledger.jsonl")
        store.close()
        with pytest.raises(LedgerError, match="closed"):
            store.append(charge())

    def test_concurrent_appends_all_land(self, tmp_path):
        path = tmp_path / "d.ledger.jsonl"
        store = JsonlLedgerStore(path, fsync=False)
        barrier = threading.Barrier(4)

        def hammer(worker):
            barrier.wait()
            for i in range(50):
                store.append(charge(tenant=f"t{worker}", label=f"{worker}.{i}"))

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store.close()
        replayed = list(JsonlLedgerStore(path).replay())
        assert len(replayed) == 200
        # Every line is whole (no interleaved writes).
        assert {r["label"] for r in replayed} == {
            f"{w}.{i}" for w in range(4) for i in range(50)
        }
