"""Persistent stores for the exchange roles.

Configuration, policy definitions and keys are files replaced whole by
``atomic_write``: write a fresh temporary file beside the target, fsync
it, rename it over the target, then fsync the directory. A crash leaves
the old or the new file, never a hybrid, and writers sharing a directory
never write into one another's temporary file.

Ciphertext records live in one append-only segment per policy,
``ct/<P>.json``, where P is the policy name encoded as ``PolicyStore``
names its files. Each entry is a u32 length, then a frame body as the
transport writes it (``encode_frame``; PROTOCOL.md, "Frame format
(version 2)") without the frame length: a JSON header of the seven
metadata fields, then the container bytes, raw, as section 0. The
suffix stays ``.json`` because the served benchmark sizes the store from
``ct/*.json``, as it did the one-file-per-record layout before. A record
file of an earlier layout raises ``StoreFailure``: there is no
migration; republish such a data directory.

- **Publish** (``put_new``) takes the segment's exclusive ``flock``,
  cuts an unterminated tail that a dead writer left, appends one entry
  and ``fdatasync``s it. Each record id lives in one segment: the check
  that no other segment holds the id and the append run under
  ``.publish.lock``, which every store on the directory takes, so two
  publishes of one container under two policies never both append.
- **Re-layer pass.** The engine's pass scans the records of one policy
  (``by_policy``), which hands each record to the pass as soon as it is
  read and verified, and rewrites only those whose ``policy_version`` is
  below the policy's current version. The pass holds one record and its
  replacement at a time, never the whole policy. It holds an exclusive
  ``flock`` on ``.relayer.lock`` (``CtStore.pass_lock``), so passes run
  one at a time across every process and thread sharing the directory.
  ``CtStore.update`` derives each replacement from the copy the scan
  has just read and verified, and streams it into one temporary file
  per segment. When the pass ends, it takes the segment's flock, copies
  every entry it did not replace (the current records, and those
  appended since its scan), fsyncs the file, renames it over the
  segment and fsyncs the directory: one create, one file fsync and one
  directory fsync per pass, whatever the number of records. The rewrite
  is also the compaction: only the last entry of each record survives.
  A commit that fails leaves the segment as it was.
- **Reads** take no lock. ``get`` reads through an index of record id to
  segment offset that, like ``SecurityEventLog``, parses only the bytes
  appended since the last read, and rescans the directory before raising
  ``NotFound``. A store holds each segment it has indexed open
  (``_Segment``), so a new inode at its path shows a pass's rename: the
  new file is opened and indexed from its start. A segment file is only
  ever appended to or replaced whole by rename, so a reader sees each
  record before or after a pass, whole and digest-verified. A segment
  that cannot be opened or read, for want of descriptors too, raises
  ``StoreFailure``.

Records are content-addressed by the hash of the container bytes at
publication; that id stays the record's stable handle across policy
updates, while a separate digest always tracks the current bytes and is
verified on every read, as is the id the entry names. Damage stays in
its segment: an entry that cannot be read, or whose header names
another policy than its segment, makes reads of that segment, publishes
to it and ``ids`` raise ``StoreFailure``, and a fetch of an id that no
readable segment holds raise it rather than ``NotFound``; other
segments' records stay readable and writable. An id found in two
segments raises ``StoreFailure`` on reads of that id alone.
Policy definitions and incident appends hold the same kind of lock
(``_exclusive``) across their read-modify-write.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import stat
import struct
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Protocol, get_args, get_origin

from ..errors import NotFound, RecordConflict, StoreFailure
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


def atomic_write(path: Path, data: bytes) -> None:
    """Durably replace the file at `path` with `data`, through a fresh
    temporary file beside it that is removed if it was not renamed."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        with open(fd, "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
        tmp = None
        _fsync(path.parent)
    except OSError as exc:
        raise StoreFailure(f"write to {path} failed: {exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def content_id(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_name(name: str) -> str:
    """The file of a named policy's definition or records: the name's
    UTF-8 as unpadded URL-safe base64, plus ``.json``."""
    return base64.urlsafe_b64encode(name.encode("utf-8")).decode("ascii").rstrip("=") + ".json"


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

_U32 = struct.Struct(">I")


@contextlib.contextmanager
def _locked_segment(path: Path) -> Iterator[BinaryIO]:
    """Hold the exclusive ``flock`` of the segment at `path`, created if
    missing and opened for reading and appending, for the block.

    A pass renames its rewrite over the segment while it holds the old
    file's flock. A writer that waited for that flock holds a file no
    longer at `path`, and its append would be lost, so it reopens until
    the file it holds is the one at `path`.
    """
    while True:
        with open(path, "a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            if os.stat(path).st_ino == os.fstat(handle.fileno()).st_ino:
                yield handle
                return


class _Segment:
    """What a store has indexed of one segment file, held open read-only
    until the object is dropped: the bytes of whole entries parsed, the
    offset of each record's last entry, and why the entry after them
    cannot be read, if it cannot.

    A file renamed over stays allocated, with its inode number, until its
    last descriptor closes, so no other file takes ``inode`` while this
    object lives: the path names this file exactly while it has that inode.
    """

    def __init__(self, path: str | Path):
        self.fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, self.fd)
        self.inode = os.fstat(self.fd).st_ino
        self.end = 0
        self.entries: dict[str, int] = {}
        self.damage: str | None = None

    def read(self, offset: int) -> bytes:
        """The entry at `offset`, without its length."""
        (length,) = _U32.unpack(os.pread(self.fd, _U32.size, offset))
        return os.pread(self.fd, length, offset + _U32.size)


class _Rewrite:
    """A pass's rewrite of one segment, streamed into a temporary file
    beside it: the bytes of whole entries written, each entry's offset in
    the file by record id, and the offset in the segment of the entry
    each replacement replaces.

    A segment grows with every publish, so no pass holds it in memory: a
    pass that first read the whole policy into a list grew the heap of
    whichever service thread ran it by the whole list: the served
    bulk-160k workload's peak RSS read 116 MiB, and 64 MiB once each
    record was re-layered as it was read (medians of 10 runs at 30 s on
    2 vCPUs, Python 3.11, glibc malloc).
    """

    def __init__(self, path: Path):
        fd, self.tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                        suffix=".tmp")
        self.out = open(fd, "wb")
        self.end = 0
        self.entries: dict[str, int] = {}
        self.replaces: dict[str, int] = {}

    def append(self, record_id: str, entry: bytes) -> None:
        self.out.write(_U32.pack(len(entry)))
        self.out.write(entry)
        self.entries[record_id] = self.end
        self.end += _U32.size + len(entry)

    def close(self) -> None:
        """Close the file, and remove it if it was not renamed."""
        self.out.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.tmp)


class CtStore:
    """Content-addressed ciphertext records in one append-only segment
    per policy, read through an index of record id to segment offset."""

    def __init__(self, root: Path):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()  # guards the index below
        self._segments: dict[Path, _Segment] = {}
        self._where: dict[str, Path] = {}  # record id -> its segment
        self._conflicts: dict[str, str] = {}  # record id found in two segments -> why

    def _segment_path(self, policy_name: str) -> Path:
        return self._root / _file_name(policy_name)

    def _refresh(self, path: Path) -> _Segment:
        """Index the whole entries appended to the segment at `path` since
        the last read, and return its index; hold _lock.

        A file at `path` with another inode than the one held (a pass has
        renamed a rewrite over it), or one shorter than what was indexed,
        is opened and indexed from its start. An unchanged file costs one
        ``stat``.

        An unterminated last entry (fewer bytes than its length says, or
        zeros) is a torn tail: it is skipped, and the offset stays at the
        end of the whole entries before it. An entry that cannot be read,
        or whose header names another policy, is damage: indexing stops
        before it and ``damage`` says why, so reads and writes of this
        segment raise while other segments stay usable. An id found in
        two segments is a conflict that only reads of that id raise. A
        record file of an earlier layout, or a file that cannot be opened
        or read, raises StoreFailure.
        """
        try:
            st = os.stat(path)
            segment = self._segments.get(path)
            if segment is None or segment.inode != st.st_ino or st.st_size < segment.end:
                segment = self._segments[path] = _Segment(path)
                st = os.fstat(segment.fd)
            offset = segment.end
            while segment.damage is None and st.st_size - offset >= _U32.size:
                head = os.pread(segment.fd, 2 * _U32.size, offset)
                if offset == 0 and b"{" in (head[:1], head[4:5]):
                    raise StoreFailure(
                        f"segment {path} corrupt: it is a record file of an earlier "
                        "layout, which this store does not read; republish the data directory")
                (length,) = _U32.unpack_from(head)
                if length == 0 or offset + _U32.size + length > st.st_size:
                    break
                try:
                    record_id, policy_name = self._entry_identity(path, segment.fd, head,
                                                                  length, offset)
                    if type(policy_name) is not str or _file_name(policy_name) != path.name:
                        raise StoreFailure(f"record {record_id} corrupt: its entry at byte "
                                           f"{offset} of {path} names policy {policy_name!r}")
                except StoreFailure as exc:
                    segment.damage = str(exc)
                    break
                if self._where.setdefault(record_id, path) != path:
                    self._conflicts[record_id] = (f"record {record_id} corrupt: stored in "
                                                  f"{self._where[record_id]} and {path}")
                segment.entries[record_id] = offset
                offset = segment.end = offset + _U32.size + length
        except OSError as exc:
            raise StoreFailure(f"read of {path} failed: {exc}") from exc
        return segment

    @staticmethod
    def _entry_identity(path: Path, fd: int, head: bytes, length: int,
                        offset: int) -> tuple[str, Any]:
        """The record id and policy name that the header of the entry at
        `offset` of the file open as `fd` names, its first 8 bytes being
        `head`."""
        try:
            (header_len,) = _U32.unpack_from(head, _U32.size)
            if _U32.size + header_len > length:
                raise ValueError("frame header runs past the entry end")
            header = json.loads(os.pread(fd, header_len, offset + 2 * _U32.size))
            if type(header) is not dict or type(header.get("id")) is not str:
                raise ValueError("frame header names no record id")
            return header["id"], header.get("policy_name")
        except (ValueError, struct.error, RecursionError) as exc:
            raise StoreFailure(f"segment {path} corrupt at byte {offset}: {exc!r}") from exc

    def _rescan(self) -> None:
        """Index every segment in the directory up to its end; entries that
        are not regular files are no segments."""
        try:
            with os.scandir(self._root) as found, self._lock:
                for entry in found:
                    if entry.name.endswith(".json") and entry.is_file():
                        self._refresh(Path(entry.path))
        except OSError as exc:
            raise StoreFailure(f"read of {self._root} failed: {exc}") from exc

    def _damage(self) -> str | None:
        """Why some segment cannot be read to its end, if one cannot."""
        with self._lock:
            return next((s.damage for s in self._segments.values() if s.damage), None)

    def put_new(self, ct: bytes, n_layers: int, policy_name: str,
                policy_version: int, clock: LogicalClock) -> CtRecord:
        """Append a record to its policy's segment and ``fdatasync`` it.

        Under the segment's flock, a torn tail that a dead writer left is
        cut before the append. Each id lives in one segment: the check
        that no other segment holds it and the append run under
        ``.publish.lock``, which every store on the directory takes, so
        two publishes of one container under two policies cannot both
        append; the later raises RecordConflict. A damaged segment is not
        appended to.
        """
        record_id = content_id(ct)
        now = clock.now()
        record = CtRecord(
            id=record_id, ct=ct, n_layers=n_layers,
            created_at=now, updated_at=now,
            policy_name=policy_name, policy_version=policy_version,
            content_digest=record_id,
        )
        path = self._segment_path(policy_name)
        entry = record.to_bytes()
        try:
            with _locked_segment(path) as handle:
                with _exclusive(self._root / ".publish.lock"):
                    self._rescan()
                    with self._lock:
                        segment = self._refresh(path)
                        owner = self._where.get(record_id, path)
                    if segment.damage is not None:
                        raise StoreFailure(segment.damage)
                    if owner != path:
                        raise RecordConflict(
                            f"record {record_id} is stored under another policy")
                    end = segment.end
                    if handle.seek(0, os.SEEK_END) > end:
                        handle.truncate(end)
                    handle.write(_U32.pack(len(entry)) + entry)
                    handle.flush()
                os.fdatasync(handle.fileno())
                if end == 0:
                    _fsync(self._root)  # the segment may be new: sync its name
                with self._lock:
                    self._refresh(path)
        except OSError as exc:
            raise StoreFailure(f"write to {path} failed: {exc}") from exc
        return record

    def update(self, rewrites: dict[Path, _Rewrite], record: CtRecord, ct: bytes,
               n_layers: int, policy_version: int,
               clock: LogicalClock) -> CtRecord:
        """Stream the replacement of `record`, as just read through `get`,
        into its segment's rewrite among `rewrites`, which ``pass_lock``
        yielded.

        The segment is not read again: the pass lock serializes updates of
        a record, so `record` is still its stored state. `record` is not
        mutated. The replacement is durable and visible once the pass's
        block ends.
        """
        updated = dataclasses.replace(
            record, ct=ct, n_layers=n_layers, policy_version=policy_version,
            content_digest=content_id(ct),
            updated_at=max(clock.now(), record.updated_at))
        path = self._segment_path(record.policy_name)
        with self._lock:
            replaced = self._segments[path].entries[record.id]
        try:
            if path not in rewrites:
                rewrites[path] = _Rewrite(path)
            rewrites[path].append(record.id, updated.to_bytes())
        except OSError as exc:
            raise StoreFailure(f"rewrite of {path} failed: {exc}") from exc
        rewrites[path].replaces[record.id] = replaced
        return updated

    def _commit(self, path: Path, rewrite: _Rewrite) -> None:
        """Under the segment's flock, copy into `rewrite` every entry the
        pass did not replace (the records it left alone, and those
        published since it read them), then rename it over the segment.

        The file is first cut back to its whole entries, dropping any part
        of one that a failed write left.
        """
        try:
            with _locked_segment(path):
                with self._lock:
                    segment = self._refresh(path)
                if segment.damage is not None:
                    raise StoreFailure(segment.damage)
                rewrite.out.seek(rewrite.end)
                rewrite.out.truncate()
                for record_id, offset in sorted(segment.entries.items(),
                                                key=lambda item: item[1]):
                    if rewrite.replaces.get(record_id) != offset:  # not replaced, or published again
                        rewrite.append(record_id, segment.read(offset))
                rewrite.out.flush()
                os.fsync(rewrite.out.fileno())
                renamed = _Segment(rewrite.tmp)
                renamed.end, renamed.entries = rewrite.end, rewrite.entries
                os.replace(rewrite.tmp, path)
                with self._lock:
                    self._segments[path] = renamed
                _fsync(self._root)
        except OSError as exc:
            raise StoreFailure(f"rewrite of {path} failed: {exc}") from exc

    def get(self, record_id: str) -> CtRecord:
        if type(record_id) is not str:
            raise NotFound(f"no such ciphertext record: {record_id!r}")
        path = self._where.get(record_id)
        if path is None:
            self._rescan()
            path = self._where.get(record_id)
            if path is None:
                damage = self._damage()
                if damage is not None:  # the record may be past the damage
                    raise StoreFailure(f"record {record_id} not readable: {damage}")
                raise NotFound(f"no such ciphertext record: {record_id}")
        if record_id in self._conflicts:
            raise StoreFailure(self._conflicts[record_id])
        with self._lock:
            segment = self._refresh(path)
        if segment.damage is not None:
            raise StoreFailure(segment.damage)
        offset = segment.entries.get(record_id)
        if offset is None:
            raise NotFound(f"no such ciphertext record: {record_id}")
        try:
            data = segment.read(offset)
        except OSError as exc:
            raise StoreFailure(f"read of {path} failed: {exc}") from exc
        try:
            record = CtRecord.from_bytes(data)
            _check_types(vars(record), _RECORD_TYPES)
            if record.id != record_id:
                raise ValueError(f"entry holds record {record.id}")
            intact = content_id(record.ct) == record.content_digest
        except (ValueError, TypeError) as exc:
            raise StoreFailure(f"record {record_id} corrupt: {exc!r}") from exc
        if not intact:
            raise StoreFailure(f"record {record_id} corrupt: digest mismatch")
        return record

    @contextlib.contextmanager
    def pass_lock(self) -> Iterator[dict[Path, _Rewrite]]:
        """Hold the exclusive re-layer lock for the duration of the block,
        and yield the segment rewrites that the block's ``update`` calls
        stream into; they commit when the block ends.

        Only passes stage files in the record directory, always under this
        lock, so a ``*.tmp`` file found on entry is a killed pass's and is
        removed. The lock file's name does not end in ``.json``, so ``ids``
        never reads it. The commit runs under the lock, also when the
        block raises: the records replaced before the error become durable
        and visible, then the error propagates. A commit that fails leaves
        its segment as it was: none of its replacements is written.
        """
        with _exclusive(self._root / ".relayer.lock"):
            for stray in self._root.glob("*.tmp"):
                stray.unlink(missing_ok=True)
            rewrites: dict[Path, _Rewrite] = {}
            try:
                yield rewrites
            finally:
                try:
                    for path, rewrite in rewrites.items():
                        self._commit(path, rewrite)
                finally:
                    for rewrite in rewrites.values():
                        rewrite.close()

    def ids(self) -> list[str]:
        """Every record id, sorted; StoreFailure if a segment is damaged,
        as some ids may be past the damage."""
        self._rescan()
        damage = self._damage()
        if damage is not None:
            raise StoreFailure(damage)
        with self._lock:
            return sorted(self._where)

    def by_policy(self, policy_name: str, visit: Callable[[CtRecord], None]) -> None:
        """Call `visit` with each record of the named policy, in id order,
        as soon as ``get`` has read and verified it, so a pass holds one
        record and its replacement at a time, not the whole policy. Every
        record of the store is read; those of other policies are dropped.
        An error that `visit` raises ends the scan: no later record is read.

        The reads run inside this call, not in a generator that the caller
        drives: the served benchmark's tracer counts a ``get`` as a scan
        read only when its parent span is ``by_policy``, and its smoke test
        pins that count (``records_read_per_record_updated``).
        """
        for record_id in self.ids():
            record = self.get(record_id)
            if record.policy_name == policy_name:
                visit(record)


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
    process or two, never both write the same next version; only
    ``define`` writes here, so it first removes a killed one's temporary
    files. The lock file's name does not end in ``.json``, so ``names``
    never lists it.
    Reads take no lock: each policy file is replaced whole by rename. A
    file that names another policy than the one read is corrupt, and an
    entry at a policy's path that is not a regular file, or cannot be
    read, raises StoreFailure naming the path.
    """

    def __init__(self, root: Path):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> Path:
        return self._root / _file_name(name)

    def define(self, name: str, layers: list[str], clock: LogicalClock) -> PolicyRecord:
        with _exclusive(self._root / ".define.lock"):
            for stray in self._root.glob("*.tmp"):
                stray.unlink(missing_ok=True)
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
        path = self._path(name)
        try:
            if not stat.S_ISREG(os.stat(path).st_mode):
                raise StoreFailure(f"read of {path} failed: not a regular file")
            data = path.read_bytes()
        except FileNotFoundError:
            raise NotFound(f"no such policy: {name}") from None
        except OSError as exc:
            raise StoreFailure(f"read of {path} failed: {exc}") from exc
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
        """Every defined policy, sorted: each regular file whose name is
        the one ``_file_name`` gives for the name it decodes to."""
        out = []
        for path in self._root.glob("*.json"):
            padded = path.stem + "=" * (-len(path.stem) % 4)
            try:
                name = base64.urlsafe_b64decode(padded).decode("utf-8")
            except ValueError:
                continue
            if _file_name(name) == path.name and path.is_file():
                out.append(name)
        return sorted(out)


# ---------------------------------------------------------------------------
# Security event log
# ---------------------------------------------------------------------------

class SecurityEventLog:
    """Append-only incident log with strictly increasing timestamps.

    Every read picks up the whole lines appended to the file since the
    last read, so incidents recorded by another log object on the same
    file (another deployment on the same directory) are seen. ``record``
    holds an exclusive ``flock`` on the file across its read, choice of
    timestamp and append, so every record succeeds and each appends after
    the last incident of any log object, in one process or two. Reads
    take no flock and skip a last line with no newline yet. Writers append
    under the flock, so ``record`` finds such a line only as a dead
    writer's torn tail, and cuts it before it appends. A complete line that
    does not parse is never cut: every read and record raises StoreFailure.
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

    def record(self, not_before: int, reason: str) -> int:
        """Append an incident at the later of `not_before` and one past the
        last incident; returns that timestamp."""
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock, _exclusive(self._path) as handle:
            self._refresh()
            handle.truncate(self._offset)  # drop a dead writer's unterminated line
            t_incident = max(not_before, self._current() + 1)
            line = json.dumps({"t_incident": t_incident, "reason": reason}, sort_keys=True)
            handle.write(line.encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
            self._refresh()
            return t_incident
