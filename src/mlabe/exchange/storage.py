"""Persistent stores for the exchange roles.

Everything is file-backed with write-temp-then-rename updates, so a crash
mid-write leaves either the old or the new record, never a hybrid. Each
write goes through its own temporary file, so writers sharing a directory
never write into one another's file. Every write is a group commit
(``_GroupCommit``), in three steps:

1. stage: write each replacement to a fresh temporary file beside its
   target and close it unsynced;
2. fsync each staged file;
3. rename each staged file over its target, in the order staged;
4. fsync each directory the renames changed, once per directory, so the
   renames themselves are on disk when the commit returns.

A single write (``atomic_write``) is a group of one. A re-layer pass is
one group: its records are fsynced back to back and renamed when the
pass ends. Each rename is atomic, so a reader, which takes no lock, sees
either the old or the new record, both whole and digest-verified.

A ciphertext record, ``<id>.json``, is a frame body as the transport
writes it (``encode_frame``; PROTOCOL.md, "Frame format (version 2)")
without the frame length: a JSON header of the seven metadata fields,
then the container bytes, raw, as section 0. The suffix stays ``.json``
because ``ids`` and the served benchmark's store size list ``*.json``.
A file that does not decode to a record raises ``StoreFailure``, as does
a record in the earlier layout (one JSON object, the container in
base64): there is no migration; republish such a data directory. So does
a file whose header names another record than its path.
Records are content-addressed by the hash of the container bytes at
publication; that id stays the record's stable handle across policy
updates, while a separate digest always tracks the current bytes and is
verified on every read.

The engine's re-layer pass scans the records of one policy
(``by_policy``) and rewrites only those whose ``policy_version`` is below
the policy's current version. ``CtStore.update`` derives the replacement
from the copy the scan has just read and verified, and stages it without
reading the file again. A pass holds an exclusive ``flock`` on
``.relayer.lock`` in the record directory (``CtStore.pass_lock``), so
passes run one at a time across every process and thread sharing the
directory, and no newer version can land in between. ``pass_lock``
yields the pass's group commit, and ``update`` stages into it: a record
is only ever replaced inside a pass. Policy definitions
and incident appends hold the same kind of lock (``_exclusive``) across
their read-modify-write.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Protocol, get_args, get_origin

from ..errors import NotFound, StoreFailure
from .transport import decode_frame, encode_frame


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


@contextlib.contextmanager
def _exclusive(path: Path) -> Iterator[BinaryIO]:
    """Hold an exclusive ``flock`` on `path`, opened for appending, for the
    block.

    Each holder opens the file itself, and flock excludes other open
    files, so the lock serialises the threads of one process as well as
    other processes. Closing the file releases it.
    """
    with open(path, "ab") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield handle


def _fsync(path: str | Path) -> None:
    """fsync a file or directory by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _GroupCommit:
    """Replacement files staged beside their targets, then made durable
    and visible together.

    ``stage`` writes each replacement to a fresh temporary file and closes
    it unsynced, so no descriptor is held per staged file. ``commit``
    fsyncs every staged file, renames each over its target in the order
    staged, then fsyncs each distinct target directory once. A file whose
    write failed is never staged, and a staged file that was not renamed
    is removed.
    """

    def __init__(self) -> None:
        self._staged: list[tuple[str, Path]] = []

    def stage(self, path: Path, data: bytes) -> None:
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                       suffix=".tmp")
            try:
                with open(fd, "wb") as handle:
                    handle.write(data)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise StoreFailure(f"write to {path} failed: {exc}") from exc
        self._staged.append((tmp, path))

    def commit(self) -> None:
        staged, self._staged = self._staged, []
        renamed = 0
        try:
            for tmp, path in staged:
                _fsync(tmp)
            for tmp, path in staged:
                os.replace(tmp, path)
                renamed += 1
            for path in dict.fromkeys(target.parent for _, target in staged):
                _fsync(path)
        except OSError as exc:
            raise StoreFailure(f"write to {path} failed: {exc}") from exc
        finally:
            for tmp, _ in staged[renamed:]:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)


def atomic_write(path: Path, data: bytes) -> None:
    """Durably replace the file at `path` with `data`: a group commit of
    one file."""
    group = _GroupCommit()
    group.stage(path, data)
    group.commit()


def content_id(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_types(obj: dict, types: dict[str, Any]) -> None:
    """Raise TypeError unless each named field of a decoded file has
    exactly its type, so an int is never a bool; ``list[X]`` is a list
    whose items are all X."""
    for key, kind in types.items():
        value = obj[key]
        if get_origin(kind) is list:
            (item,) = get_args(kind)
            ok = type(value) is list and all(type(v) is item for v in value)
        else:
            ok = type(value) is kind
        if not ok:
            raise TypeError(f"{key} has type {type(value).__name__}")


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
    content_digest: str

    def to_bytes(self) -> bytes:
        return encode_frame(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "CtRecord":
        return cls(**decode_frame(data))


_RECORD_TYPES = {"id": str, "ct": bytes, "n_layers": int, "created_at": int,
                 "updated_at": int, "policy_name": str, "policy_version": int,
                 "content_digest": str}


class CtStore:
    """Content-addressed ciphertext records, each replaced whole by rename."""

    def __init__(self, root: Path):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    def _path(self, record_id: str) -> Path:
        if not record_id or any(c not in "0123456789abcdef" for c in record_id):
            raise NotFound(f"no such ciphertext record: {record_id!r}")
        return self._root / f"{record_id}.json"

    def put_new(self, ct: bytes, n_layers: int, policy_name: str,
                policy_version: int, clock: LogicalClock) -> CtRecord:
        record_id = content_id(ct)
        now = clock.now()
        record = CtRecord(
            id=record_id, ct=ct, n_layers=n_layers,
            created_at=now, updated_at=now,
            policy_name=policy_name, policy_version=policy_version,
            content_digest=record_id,
        )
        atomic_write(self._path(record_id), record.to_bytes())
        return record

    def update(self, group: _GroupCommit, record: CtRecord, ct: bytes,
               n_layers: int, policy_version: int,
               clock: LogicalClock) -> CtRecord:
        """Stage the replacement of `record`, as just read through `get`,
        into `group`, the group commit ``pass_lock`` yielded.

        The file is not read again: the pass lock serializes updates of a
        record, so `record` is still its stored state. `record` is not
        mutated. The replacement is durable and visible once the pass's
        block ends.
        """
        updated = dataclasses.replace(
            record, ct=ct, n_layers=n_layers, policy_version=policy_version,
            content_digest=content_id(ct),
            updated_at=max(clock.now(), record.updated_at))
        group.stage(self._path(record.id), updated.to_bytes())
        return updated

    def get(self, record_id: str) -> CtRecord:
        try:
            data = self._path(record_id).read_bytes()
        except FileNotFoundError:
            raise NotFound(f"no such ciphertext record: {record_id}") from None
        try:
            record = CtRecord.from_bytes(data)
            _check_types(vars(record), _RECORD_TYPES)
            if record.id != record_id:
                raise ValueError(f"file holds record {record.id}")
            intact = content_id(record.ct) == record.content_digest
        except (ValueError, TypeError) as exc:
            raise StoreFailure(f"record {record_id} corrupt: {exc!r}") from exc
        if not intact:
            raise StoreFailure(f"record {record_id} corrupt: digest mismatch")
        return record

    @contextlib.contextmanager
    def pass_lock(self) -> Iterator[_GroupCommit]:
        """Hold the exclusive re-layer lock for the duration of the block,
        and yield the group commit that the block's ``update`` calls stage
        into; it commits when the block ends.

        The lock file's name does not end in ``.json``, so ``ids`` never
        lists it. The commit runs under the lock, also when the block
        raises: what was staged before the error becomes durable and
        visible, then the error propagates.
        """
        with _exclusive(self._root / ".relayer.lock"):
            group = _GroupCommit()
            try:
                yield group
            finally:
                group.commit()

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
    """Named, versioned layer-policy lists; history is retained.

    ``define`` holds an exclusive ``flock`` on ``.define.lock`` across its
    read, version bump and write, so two stores on one directory, in one
    process or two, never both write the same next version. The lock
    file's name does not end in ``.json``, so ``names`` never lists it.
    Reads take no lock: each policy file is replaced whole by rename. A
    file that names another policy than the one read is corrupt.
    """

    def __init__(self, root: Path):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> Path:
        safe = base64.urlsafe_b64encode(name.encode("utf-8")).decode("ascii").rstrip("=")
        return self._root / f"{safe}.json"

    def define(self, name: str, layers: list[str], clock: LogicalClock) -> PolicyRecord:
        with _exclusive(self._root / ".define.lock"):
            try:
                record = self.get(name)
            except NotFound:
                record = PolicyRecord(name=name, layers=[], version=0)
            record.version += 1
            record.layers = list(layers)
            record.history.append({"version": record.version,
                                   "layers": list(layers),
                                   "at": clock.now()})
            atomic_write(self._path(name),
                         json.dumps(record.__dict__, sort_keys=True).encode("utf-8"))
            return record

    def get(self, name: str) -> PolicyRecord:
        try:
            data = self._path(name).read_bytes()
        except FileNotFoundError:
            raise NotFound(f"no such policy: {name}") from None
        try:
            obj = json.loads(data)
            _check_types(obj, {"name": str, "layers": list[str], "version": int,
                               "history": list[dict]})
            if obj["name"] != name:
                raise ValueError(f"file holds policy {obj['name']!r}")
            return PolicyRecord(name=obj["name"], layers=obj["layers"],
                                version=obj["version"], history=obj["history"])
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreFailure(f"policy {name} corrupt: {exc!r}") from exc

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
    file (another deployment on the same directory) are seen. ``record``
    holds an exclusive ``flock`` on the file across its read, check and
    append, so two log objects, in one process or two, cannot both append
    against the same last incident. Reads take no flock.
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
        events = []
        try:
            for line in complete.decode("utf-8").splitlines():
                if line.strip():
                    obj = json.loads(line)
                    if type(obj["t_incident"]) is not int:
                        raise TypeError(f"t_incident {obj['t_incident']!r} is not an integer")
                    events.append((obj["t_incident"], obj["reason"]))
        except (ValueError, KeyError, TypeError) as exc:
            # No line is skipped: a skipped incident could lower T_incident.
            # The offset stays put, so every later read fails again.
            raise StoreFailure(f"incident log {self._path} corrupt: {exc!r}") from exc
        self._events += events
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
        line = json.dumps({"t_incident": t_incident, "reason": reason},
                          sort_keys=True) + "\n"
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock, _exclusive(self._path) as handle:
            self._refresh()
            if t_incident <= self._current():
                raise StoreFailure(
                    f"incident timestamps must strictly increase "
                    f"({t_incident} <= {self._current()})")
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
            self._refresh()
            return t_incident
