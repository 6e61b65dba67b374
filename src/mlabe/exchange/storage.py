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
  and ``fdatasync``s it. It touches no other segment and takes no lock
  shared by the directory, so publishes under two policies never wait
  for one another.
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
- **Reads** take no lock. ``get`` finds the segment in the id itself,
  then reads it through an index of record id to segment offset that,
  like ``SecurityEventLog``, parses only the bytes appended since the
  last read: an unchanged segment costs one ``stat``, and an id whose
  segment does not exist is ``NotFound`` with no scan. A store holds each
  segment it has indexed open (``_Segment``), so a new inode at its path
  shows a pass's rename: the new file is opened and indexed from its
  start. A segment file is only ever appended to or replaced whole by
  rename, so a reader sees each record before or after a pass, whole and
  digest-verified. A segment that cannot be opened or read, for want of
  descriptors too, raises ``StoreFailure``.

A record id is its segment's stem (the file name without ``.json``),
``.``, then the SHA-256 hex of the container bytes at publication; ``.``
is outside the stem's URL-safe base64 alphabet. The id stays the
record's handle across policy updates, while a separate digest tracks
the current bytes and is verified on every read, as is the id the entry
names. One container published under two policies is two records.
Damage stays in its segment: an entry that cannot be read, or whose
header names another policy or an id not of its segment (as the bare
SHA-256 ids of an earlier layout are not), makes reads of that segment,
publishes to it and passes of its policy raise ``StoreFailure``; passes
of other policies skip it.
Policy definitions and incident appends hold the same kind of lock
(``_exclusive``) across their read-modify-write.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import errno
import fcntl
import hashlib
import json
import os
import re
import reprlib
import stat
import struct
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Protocol, get_args, get_origin

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


def _stem(name: str) -> str:
    """The file stem of a named policy's definition and record segment:
    the name's UTF-8 as unpadded URL-safe base64."""
    return base64.urlsafe_b64encode(name.encode("utf-8")).decode("ascii").rstrip("=")


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

# A record id: its segment's stem, ``.``, then the SHA-256 hex of its
# container at publication.
_RECORD_ID = re.compile(r"([A-Za-z0-9_-]*)\.[0-9a-f]{64}")


@contextlib.contextmanager
def _locked_segment(path: str) -> Iterator[BinaryIO]:
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

    def __init__(self, path: str):
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
    beside it and indexed as it is written (``segment``, which the commit
    installs as the segment's index), and the offset in the segment of
    the entry each replacement replaces.

    A segment grows with every publish, so no pass holds it in memory: a
    pass that first read the whole policy into a list grew the heap of
    whichever service thread ran it by the whole list: the served
    bulk-160k workload's peak RSS read 116 MiB, and 64 MiB once each
    record was re-layered as it was read (medians of 10 runs at 30 s on
    2 vCPUs, Python 3.11, glibc malloc).
    """

    def __init__(self, path: str):
        fd, self.tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                        prefix=os.path.basename(path) + ".", suffix=".tmp")
        self.out = open(fd, "wb")
        try:
            self.segment = _Segment(self.tmp)
        except OSError:
            self.close()
            raise
        self.replaces: dict[str, int] = {}

    def append(self, record_id: str, entry: bytes) -> None:
        self.out.write(_U32.pack(len(entry)))
        self.out.write(entry)
        self.segment.entries[record_id] = self.segment.end
        self.segment.end += _U32.size + len(entry)

    def close(self) -> None:
        """Close the file, and remove it if it was not renamed."""
        self.out.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.tmp)


class CtStore:
    """Ciphertext records in one append-only segment per policy, each
    under an id that starts with its segment's stem, read through an
    index of record id to segment offset."""

    def __init__(self, root: Path):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()  # guards the index below
        self._segments: dict[str, _Segment] = {}  # by stem

    def _refresh(self, stem: str) -> _Segment:
        """Index the whole entries appended to the segment of `stem` since
        the last read, and return its index; hold _lock.

        A file at its path with another inode than the one held (a pass has
        renamed a rewrite over it), or one shorter than what was indexed,
        is opened and indexed from its start. An unchanged file costs one
        ``stat``; no regular file at its path is no segment: NotFound.

        An unterminated last entry (fewer bytes than its length says, or
        zeros) is a torn tail: it is skipped, and the offset stays at the
        end of the whole entries before it. An entry that cannot be read,
        or whose header names another policy or an id not of this
        segment, is damage: indexing stops before it and ``damage`` says
        why, so reads and writes of this segment raise while other
        segments stay usable. A record file of an earlier layout, or a
        file that cannot be opened or read, raises StoreFailure.
        """
        path = f"{self._root}/{stem}.json"
        try:
            st = os.stat(path)
            if not stat.S_ISREG(st.st_mode):
                raise NotFound(f"no such record segment: {reprlib.repr(stem + '.json')}")
            segment = self._segments.get(stem)
            if segment is None or segment.inode != st.st_ino or st.st_size < segment.end:
                segment = self._segments[stem] = _Segment(path)
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
                    if type(policy_name) is not str or _stem(policy_name) != stem:
                        raise StoreFailure(f"record {record_id} corrupt: its entry at byte "
                                           f"{offset} of {path} names policy {policy_name!r}")
                    named = _RECORD_ID.fullmatch(record_id)
                    if named is None or named[1] != stem:
                        raise StoreFailure(
                            f"record {record_id} corrupt: its entry at byte {offset} of {path} "
                            "names no record of this segment (a bare SHA-256 id is of an earlier "
                            "layout, which this store does not read; republish such a directory)")
                except StoreFailure as exc:
                    segment.damage = str(exc)
                    break
                segment.entries[record_id] = offset
                offset = segment.end = offset + _U32.size + length
        except OSError as exc:
            if exc.errno in (errno.ENOENT, errno.ENAMETOOLONG):
                raise NotFound(f"no such record segment: {reprlib.repr(stem + '.json')}") from None
            raise StoreFailure(f"read of {path} failed: {exc}") from exc
        return segment

    @staticmethod
    def _entry_identity(path: str, fd: int, head: bytes, length: int,
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

    def put_new(self, ct: bytes, n_layers: int, policy_name: str,
                policy_version: int, clock: LogicalClock) -> CtRecord:
        """Append a record to its policy's segment and ``fdatasync`` it;
        its id is the segment's stem, ``.``, then the container's SHA-256.

        Under the segment's flock, a torn tail that a dead writer left is
        cut before the append. No other segment is read, and no lock
        beyond the segment's is taken. A damaged segment is not appended
        to.
        """
        digest, stem = content_id(ct), _stem(policy_name)
        path = f"{self._root}/{stem}.json"
        now = clock.now()
        record = CtRecord(
            id=f"{stem}.{digest}", ct=ct, n_layers=n_layers,
            created_at=now, updated_at=now,
            policy_name=policy_name, policy_version=policy_version,
            content_digest=digest,
        )
        entry = record.to_bytes()
        try:
            with _locked_segment(path) as handle:
                with self._lock:
                    segment = self._refresh(stem)
                if segment.damage is not None:
                    raise StoreFailure(segment.damage)
                end = segment.end
                if handle.seek(0, os.SEEK_END) > end:
                    handle.truncate(end)
                handle.write(_U32.pack(len(entry)) + entry)
                handle.flush()
                os.fdatasync(handle.fileno())
                if end == 0:
                    _fsync(self._root)  # the segment may be new: sync its name
                with self._lock:
                    self._refresh(stem)
        except OSError as exc:
            raise StoreFailure(f"write to {path} failed: {exc}") from exc
        return record

    def update(self, rewrites: dict[str, _Rewrite], record: CtRecord, ct: bytes,
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
        stem = record.id.partition(".")[0]
        path = f"{self._root}/{stem}.json"
        with self._lock:
            replaced = self._segments[stem].entries[record.id]
        try:
            if stem not in rewrites:
                rewrites[stem] = _Rewrite(path)
            rewrites[stem].append(record.id, updated.to_bytes())
        except OSError as exc:
            raise StoreFailure(f"rewrite of {path} failed: {exc}") from exc
        rewrites[stem].replaces[record.id] = replaced
        return updated

    def _commit(self, stem: str, rewrite: _Rewrite) -> None:
        """Under the segment's flock, copy into `rewrite` every entry the
        pass did not replace (the records it left alone, and those
        published since it read them), then rename it over the segment.

        The file is first cut back to its whole entries, dropping any part
        of one that a failed write left.
        """
        path = f"{self._root}/{stem}.json"
        try:
            with _locked_segment(path):
                with self._lock:
                    segment = self._refresh(stem)
                if segment.damage is not None:
                    raise StoreFailure(segment.damage)
                rewrite.out.seek(rewrite.segment.end)
                rewrite.out.truncate()
                for record_id, offset in sorted(segment.entries.items(),
                                                key=lambda item: item[1]):
                    if rewrite.replaces.get(record_id) != offset:  # not replaced, or published again
                        rewrite.append(record_id, segment.read(offset))
                rewrite.out.flush()
                os.fsync(rewrite.out.fileno())
                os.replace(rewrite.tmp, path)
                with self._lock:
                    self._segments[stem] = rewrite.segment
                _fsync(self._root)
        except OSError as exc:
            raise StoreFailure(f"rewrite of {path} failed: {exc}") from exc

    def get(self, record_id: str) -> CtRecord:
        """The record of `record_id`, read from the one segment its id
        names; an id not of that form is NotFound."""
        named = _RECORD_ID.fullmatch(record_id) if type(record_id) is str else None
        if named is None:
            raise NotFound(f"no such ciphertext record: {reprlib.repr(record_id)}")
        with self._lock:
            segment = self._refresh(named[1])
        if segment.damage is not None:
            raise StoreFailure(segment.damage)
        offset = segment.entries.get(record_id)
        if offset is None:
            raise NotFound(f"no such ciphertext record: {record_id}")
        try:
            data = segment.read(offset)
        except OSError as exc:
            raise StoreFailure(f"read of {self._root}/{named[1]}.json failed: {exc}") from exc
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
    def pass_lock(self) -> Iterator[dict[str, _Rewrite]]:
        """Hold the exclusive re-layer lock for the duration of the block,
        and yield the segment rewrites that the block's ``update`` calls
        stream into; they commit when the block ends.

        Only passes stage files in the record directory, always under this
        lock, so a ``*.tmp`` file found on entry is a killed pass's and is
        removed. The lock file's name does not end in ``.json``, so
        ``by_policy`` never reads it. The commit runs under the lock, also
        when the block raises: the records replaced before the error become
        durable and visible, then the error propagates. A commit that fails
        leaves its segment as it was: none of its replacements is written.
        """
        with _exclusive(self._root / ".relayer.lock"):
            for stray in self._root.glob("*.tmp"):
                stray.unlink(missing_ok=True)
            rewrites: dict[str, _Rewrite] = {}  # by stem
            try:
                yield rewrites
            finally:
                try:
                    for stem, rewrite in rewrites.items():
                        self._commit(stem, rewrite)
                finally:
                    for rewrite in rewrites.values():
                        rewrite.close()

    def by_policy(self, policy_name: str, visit: Callable[[CtRecord], None]) -> None:
        """Call `visit` with each record of the named policy, in id order,
        as soon as ``get`` has read and verified it, so a pass holds one
        record and its replacement at a time. An error that `visit` raises
        ends the scan: no later record is read.

        The walk lists the regular ``*.json`` files itself and, inside this
        call, reads every record of each segment as indexed when it gets
        there: the served benchmark counts each ``get`` under ``by_policy``
        as a scan read, and pins that count. Only the policy's own segment
        fails the walk, when it is damaged (records may lie past the
        damage) or a record of it fails ``get``; another segment that
        cannot be indexed, or whose record fails, is skipped from there on.
        """
        own = _stem(policy_name)
        try:
            with os.scandir(self._root) as found:
                stems = sorted(entry.name.removesuffix(".json") for entry in found
                               if entry.name.endswith(".json") and entry.is_file())
        except OSError as exc:
            raise StoreFailure(f"read of {self._root} failed: {exc}") from exc
        for stem in stems:
            try:
                with self._lock:
                    segment = self._refresh(stem)
                    ids = sorted(segment.entries)
                if segment.damage is not None:
                    raise StoreFailure(segment.damage)
                for record_id in ids:
                    record = self.get(record_id)
                    if stem == own:
                        visit(record)
            except (StoreFailure, NotFound):
                if stem == own:
                    raise


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
        return self._root / (_stem(name) + ".json")

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
        the one ``_stem`` gives for the name it decodes to, plus ``.json``."""
        out = []
        for path in self._root.glob("*.json"):
            padded = path.stem + "=" * (-len(path.stem) % 4)
            try:
                name = base64.urlsafe_b64decode(padded).decode("utf-8")
            except ValueError:
                continue
            if _stem(name) == path.stem and path.is_file():
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
