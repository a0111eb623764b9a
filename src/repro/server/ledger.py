"""Durable privacy ledgers: the write-ahead log behind the budget.

The search-log literature's core lesson (Götz et al., *Privacy in Search
Logs*) is that a DP release service is only as private as its accounting:
the guarantee quantifies over every query ever answered, so a ledger that
evaporates on restart silently resets epsilon to zero.  This module is the
durability layer the server's :class:`~repro.server.tenants.TenantBudgets`
writes through:

* :class:`LedgerStore` — the tiny protocol: ``append`` one charge record,
  ``append_many`` a batch with one sync, ``replay`` them all, ``close``.
* :class:`InMemoryLedgerStore` — process-lifetime only; for tests, examples
  and benchmarks where durability is out of scope.
* :class:`JsonlLedgerStore` — an append-only JSONL write-ahead ledger.
  Every ``append_many`` writes its batch as JSON lines and (by default)
  ``fsync``\\ s them before returning, so an admitted charge survives a
  crash of the process *and* the page cache.  Opening scans the file once,
  and a torn final line (the classic partial-write crash signature) is
  truncated away — a torn record was never acknowledged, so dropping it
  under-counts nothing.  The file is the store's only copy of its records:
  ``replay`` streams them back from disk.

Records are plain JSON objects.  The store is schema-agnostic except for
one reserved key, ``"v"`` (record-format version, stamped on write); the
tenant/dataset/epsilon schema lives with :class:`TenantBudgets`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.exceptions import LedgerError

#: Record-format version stamped into every persisted charge record.
LEDGER_FORMAT_VERSION = 1


@runtime_checkable
class LedgerStore(Protocol):
    """Append-only durable store of privacy-charge records."""

    def append(self, record: Mapping[str, Any]) -> None:
        """Durably persist one charge record."""
        ...

    def append_many(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Durably persist a batch of charge records, in order.

        This is the call :class:`~repro.server.tenants.TenantBudgets`
        writes through, once per admitted batch (under its lock, after the
        running totals admitted the charges).  A store that can
        group-commit should make the whole batch durable with *one* sync,
        because fsync-per-charge is what caps a coalesced admission path.
        Partial persistence after a crash must only ever be a *prefix* of
        the batch (append order), never a subset.
        """
        ...

    def replay(self) -> Iterable[Dict[str, Any]]:
        """Every record persisted so far, in append order."""
        ...

    def close(self) -> None:
        """Release file handles; the store must not be appended to after."""
        ...


class InMemoryLedgerStore:
    """A ledger that lives exactly as long as the process.

    Useful for tests and throughput benchmarks; a real deployment that
    cares about its privacy guarantee wants :class:`JsonlLedgerStore`.
    """

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def append(self, record: Mapping[str, Any]) -> None:
        with self._lock:
            self._records.append(dict(record))

    def append_many(self, records: Sequence[Mapping[str, Any]]) -> None:
        with self._lock:
            self._records.extend(dict(r) for r in records)

    def replay(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(r) for r in self._records]

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InMemoryLedgerStore(records={len(self)})"


class JsonlLedgerStore:
    """Append-only JSONL write-ahead ledger with crash replay.

    Parameters
    ----------
    path:
        The ledger file.  Created (along with parent directories) if
        absent; an existing file is checked on open.
    fsync:
        ``True`` (the default) fsyncs after every appended batch, so a
        charge acknowledged to the analyst is on stable storage before the
        release runs.  ``False`` trades that guarantee for throughput
        (flush-only) — acceptable for benchmarks, not for production.

    The file is the store's only copy of its records: opening scans it
    once and keeps just their count (``len``), and :meth:`replay` streams
    them back from disk.

    Torn-tail handling: if the final line of an existing file lacks its
    newline terminator — the only state a crash mid-append can leave,
    since the newline is the last byte of every write — the file is
    truncated back to the last complete record and replay proceeds (the
    torn record was never acknowledged, so dropping it under-counts
    nothing).  A *complete* line that fails to parse, anywhere in the
    file, cannot be explained by a crashed append and raises
    :class:`LedgerError` instead of silently forgetting spend.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._count = self._recover()
        try:
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise LedgerError(f"cannot open ledger {self.path}: {exc}") from None

    # ----------------------------------------------------------- recovery

    def _recover(self) -> int:
        """Check an existing file line by line, truncating a torn final
        record; returns the number of records it holds."""
        count = good_end = 0
        try:
            with open(self.path, "rb") as fh:
                for line in fh:
                    if not line.endswith(b"\n"):
                        # No trailing newline: the append never completed.
                        # This is the *only* state a crashed single-write
                        # append can leave behind (the newline is the last
                        # byte of every write), so it is the only state
                        # recovery may discard.
                        break
                    self._parse(line, count + 1)
                    count += 1
                    good_end += len(line)
                else:
                    return count
        except FileNotFoundError:
            return 0
        except OSError as exc:
            raise LedgerError(f"cannot read ledger {self.path}: {exc}") from None
        with open(self.path, "r+b") as fh:
            fh.truncate(good_end)
            fh.flush()
            os.fsync(fh.fileno())
        return count

    def _parse(self, line: bytes, number: int) -> Dict[str, Any]:
        """Record ``number`` from its newline-terminated line."""
        text = line[:-1].decode("utf-8", errors="replace")
        try:
            record = json.loads(text)
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except ValueError:
            # A complete, newline-terminated line that is not a valid
            # record was fully written — and possibly acknowledged, so its
            # release may have run.  Dropping it would under-count privacy
            # spend; that is corruption, not a torn append.
            raise LedgerError(
                f"ledger {self.path} record {number} is corrupt: "
                f"{text[:80]!r}; refusing to truncate recorded privacy spend"
            ) from None
        return record

    # ---------------------------------------------------------- interface

    def append(self, record: Mapping[str, Any]) -> None:
        self.append_many([record])

    def append_many(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Group-commit: the whole batch is one write and one fsync.

        A coalesced admission path charges many analysts per flush;
        syncing once per *flush* instead of once per charge is most of the
        durable-path win.  Each record is serialized straight to its line
        (``"v"`` stamped unless present, sorted keys, compact separators).
        A crash mid-write leaves a newline-terminated prefix of the batch
        plus (at most) one torn final line — exactly the state
        :meth:`_recover` already handles, and since nothing was
        acknowledged, replaying the prefix only over-counts spend (the
        conservative direction).
        """
        if not records:
            return
        data = b"".join(
            json.dumps(
                {"v": LEDGER_FORMAT_VERSION, **record},
                separators=(",", ":"),
                sort_keys=True,
            ).encode("utf-8")
            + b"\n"
            for record in records
        )
        with self._lock:
            if self._fh.closed:
                raise LedgerError(f"ledger {self.path} is closed")
            try:
                self._fh.write(data)
                self._fh.flush()
                if self.fsync:
                    os.fsync(self._fh.fileno())
            except OSError as exc:
                raise LedgerError(
                    f"failed to persist charge to {self.path}: {exc}"
                ) from None
            self._count += len(records)

    def replay(self) -> Iterator[Dict[str, Any]]:
        """Every record appended before this call, in append order, read
        back from the file one line at a time."""
        return self._stream(len(self))

    def _stream(self, count: int) -> Iterator[Dict[str, Any]]:
        with open(self.path, "rb") as fh:
            for number, line in enumerate(itertools.islice(fh, count), 1):
                yield self._parse(line, number)

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def __enter__(self) -> "JsonlLedgerStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JsonlLedgerStore(path={str(self.path)!r}, records={len(self)}, "
            f"fsync={self.fsync})"
        )
