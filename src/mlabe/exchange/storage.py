"""Persistent stores for the exchange roles.

Everything is file-backed with write-temp-then-rename updates, so a crash
mid-write leaves either the old or the new record, never a hybrid. Each
write goes through its own temporary file, so writers sharing a directory
never write into one another's file.

A ciphertext record is one JSON object, ``<id>.json``, holding the
container bytes as base64 (``ct_b64``) beside eight metadata fields.
Records are content-addressed by the hash of the container bytes at
publication; that id stays the record's stable handle across policy
updates, while a separate digest always tracks the current bytes and is
verified on every read.

The engine's re-layer pass scans the records of one policy
(``by_policy``) and rewrites only those whose ``policy_version`` is below
the policy's current version. ``CtStore.update`` derives the replacement
from the copy the scan has just read and verified, and writes it without
reading the file again; the engine runs one pass at a time, so no newer
version can land in between.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from ..errors import NotFound, StoreFailure


class LogicalClock(Protocol):
    def now(self) -> int: ...


class SystemClock:
    """Wall clock in whole seconds since the epoch."""

    def now(self) -> int:
        return int(time.time())


class ManualClock:
    """Deterministic clock for tests and reproducible runs."""

    def __init__(self, start: int = 1):
        self._now = start

    def now(self) -> int:
        return self._now

    def advance(self, seconds: int = 1) -> int:
        self._now += seconds
        return self._now

    def set(self, value: int) -> None:
        self._now = value


def atomic_write(path: Path, data: bytes) -> None:
    """Durably replace the file at `path` with `data`.

    The data goes to a fresh temporary file beside `path`, which is then
    renamed over it; on any failure the temporary file is removed.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            with open(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise StoreFailure(f"write to {path} failed: {exc}") from exc


def content_id(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Ciphertext store
# ---------------------------------------------------------------------------

@dataclass
class CtRecord:
    id: str
    ct: bytes
    n_layers: int
    created_at: int
    updated_at: int
    policy_name: str
    policy_version: int
    layer_policy_digest: str
    content_digest: str

    def to_json(self) -> bytes:
        head = json.dumps({
            "id": self.id,
            "n_layers": self.n_layers,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "policy_name": self.policy_name,
            "policy_version": self.policy_version,
            "layer_policy_digest": self.layer_policy_digest,
            "content_digest": self.content_digest,
        }, sort_keys=True).encode("utf-8")
        # Base64 text never needs JSON escaping, so it is appended as is.
        return b"".join((head[:-1], b', "ct_b64": "',
                         base64.b64encode(self.ct), b'"}'))

    @classmethod
    def from_json(cls, data: bytes) -> "CtRecord":
        obj = json.loads(data)
        return cls(
            id=obj["id"],
            ct=base64.b64decode(obj["ct_b64"]),
            n_layers=obj["n_layers"],
            created_at=obj["created_at"],
            updated_at=obj["updated_at"],
            policy_name=obj["policy_name"],
            policy_version=obj["policy_version"],
            layer_policy_digest=obj["layer_policy_digest"],
            content_digest=obj["content_digest"],
        )


def layer_policy_digest(layer_policies: tuple[str, ...]) -> str:
    blob = "\n".join(layer_policies).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class CtStore:
    """Content-addressed ciphertext records. Writes are serialized per id."""

    def __init__(self, root: Path):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()

    def _lock_for(self, record_id: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(record_id, threading.Lock())

    def _path(self, record_id: str) -> Path:
        if not record_id or any(c not in "0123456789abcdef" for c in record_id):
            raise NotFound(f"no such ciphertext record: {record_id!r}")
        return self._root / f"{record_id}.json"

    def put_new(self, ct: bytes, n_layers: int, policy_name: str,
                policy_version: int, layer_policies: tuple[str, ...],
                clock: LogicalClock) -> CtRecord:
        record_id = content_id(ct)
        now = clock.now()
        record = CtRecord(
            id=record_id, ct=ct, n_layers=n_layers,
            created_at=now, updated_at=now,
            policy_name=policy_name, policy_version=policy_version,
            layer_policy_digest=layer_policy_digest(layer_policies),
            content_digest=record_id,
        )
        with self._lock_for(record_id):
            atomic_write(self._path(record_id), record.to_json())
        return record

    def update(self, record: CtRecord, ct: bytes, n_layers: int,
               policy_version: int, layer_policies: tuple[str, ...],
               clock: LogicalClock) -> CtRecord:
        """Replace `record`, as just read through `get`, with new bytes.

        The file is not read again: callers serialize updates of a record,
        so `record` is still its stored state. `record` is not mutated.
        """
        updated = dataclasses.replace(
            record, ct=ct, n_layers=n_layers, policy_version=policy_version,
            layer_policy_digest=layer_policy_digest(layer_policies),
            content_digest=content_id(ct),
            updated_at=max(clock.now(), record.updated_at))
        with self._lock_for(record.id):
            atomic_write(self._path(record.id), updated.to_json())
        return updated

    def _load(self, record_id: str) -> CtRecord:
        path = self._path(record_id)
        if not path.exists():
            raise NotFound(f"no such ciphertext record: {record_id}")
        record = CtRecord.from_json(path.read_bytes())
        if content_id(record.ct) != record.content_digest:
            raise StoreFailure(f"record {record_id} corrupt: digest mismatch")
        return record

    def get(self, record_id: str) -> CtRecord:
        with self._lock_for(record_id):
            return self._load(record_id)

    def ids(self) -> list[str]:
        return sorted(p.stem for p in self._root.glob("*.json"))

    def by_policy(self, policy_name: str) -> list[CtRecord]:
        return [r for r in (self.get(i) for i in self.ids())
                if r.policy_name == policy_name]


# ---------------------------------------------------------------------------
# Policy store
# ---------------------------------------------------------------------------

@dataclass
class PolicyRecord:
    name: str
    layers: list[str]  # canonical texts, inner to outer
    version: int
    history: list[dict] = field(default_factory=list)


class PolicyStore:
    """Named, versioned layer-policy lists; history is retained."""

    def __init__(self, root: Path):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, name: str) -> Path:
        safe = base64.urlsafe_b64encode(name.encode("utf-8")).decode("ascii").rstrip("=")
        return self._root / f"{safe}.json"

    def define(self, name: str, layers: list[str], clock: LogicalClock) -> PolicyRecord:
        with self._lock:
            path = self._path(name)
            if path.exists():
                record = self._load(name)
                record.version += 1
                record.layers = list(layers)
            else:
                record = PolicyRecord(name=name, layers=list(layers), version=1)
            record.history.append({"version": record.version,
                                   "layers": list(layers),
                                   "at": clock.now()})
            atomic_write(path, json.dumps(record.__dict__, sort_keys=True).encode("utf-8"))
            return record

    def _load(self, name: str) -> PolicyRecord:
        path = self._path(name)
        if not path.exists():
            raise NotFound(f"no such policy: {name}")
        obj = json.loads(path.read_bytes())
        return PolicyRecord(name=obj["name"], layers=obj["layers"],
                            version=obj["version"], history=obj["history"])

    def get(self, name: str) -> PolicyRecord:
        with self._lock:
            return self._load(name)

    def names(self) -> list[str]:
        out = []
        for path in self._root.glob("*.json"):
            padded = path.stem + "=" * (-len(path.stem) % 4)
            out.append(base64.urlsafe_b64decode(padded).decode("utf-8"))
        return sorted(out)


# ---------------------------------------------------------------------------
# Security event log
# ---------------------------------------------------------------------------

class SecurityEventLog:
    """Append-only incident log with strictly increasing timestamps.

    Every read picks up the whole lines appended to the file since the
    last read, so incidents recorded by another log object on the same
    file (another deployment on the same directory) are seen.
    """

    def __init__(self, path: Path):
        self._path = Path(path)
        self._lock = threading.Lock()
        self._events: list[tuple[int, str]] = []
        self._offset = 0  # bytes of the file already parsed into _events
        self._refresh()

    def _refresh(self) -> None:
        """Parse the whole lines appended since the last read; hold _lock."""
        try:
            if os.stat(self._path).st_size <= self._offset:
                return
            with open(self._path, "rb") as handle:
                handle.seek(self._offset)
                tail = handle.read()
        except FileNotFoundError:
            return
        complete = tail[:tail.rfind(b"\n") + 1]
        for line in complete.decode("utf-8").splitlines():
            if line.strip():
                obj = json.loads(line)
                self._events.append((obj["t_incident"], obj["reason"]))
        self._offset += len(complete)

    def _current(self) -> int:
        return self._events[-1][0] if self._events else 0

    @property
    def current(self) -> int:
        """Timestamp of the last incident, 0 when none was ever recorded."""
        with self._lock:
            self._refresh()
            return self._current()

    @property
    def events(self) -> list[tuple[int, str]]:
        with self._lock:
            self._refresh()
            return list(self._events)

    def record(self, t_incident: int, reason: str) -> int:
        with self._lock:
            self._refresh()
            if t_incident <= self._current():
                raise StoreFailure(
                    f"incident timestamps must strictly increase "
                    f"({t_incident} <= {self._current()})")
            line = json.dumps({"t_incident": t_incident, "reason": reason},
                              sort_keys=True) + "\n"
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with open(self._path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            self._refresh()
            return t_incident
