"""Persistence: ciphertext store, policy store, incident log, clocks."""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import re
import stat
import threading
import time

import pytest

from mlabe.errors import NotFound, StoreFailure
from mlabe.exchange import storage
from mlabe.exchange.services import Deployment
from mlabe.exchange.storage import (
    CtRecord,
    CtStore,
    ManualClock,
    PolicyStore,
    SecurityEventLog,
    SystemClock,
    atomic_write,
    content_id,
)
from mlabe.exchange.transport import decode_frame, encode_frame


class TestCtStore:
    def test_content_addressing(self, tmp_path):
        store = CtStore(tmp_path)
        clock = ManualClock(100)
        record = store.put_new(b"ciphertext-bytes", 2, "vc", 1, clock)
        assert record.id == content_id(b"ciphertext-bytes")
        fetched = store.get(record.id)
        assert fetched.ct == b"ciphertext-bytes"
        assert fetched.content_digest == record.id

    def test_update_keeps_id_and_tracks_digest(self, tmp_path):
        store = CtStore(tmp_path)
        clock = ManualClock(100)
        record = store.put_new(b"v1", 1, "vc", 1, clock)
        clock.advance(5)
        read = store.get(record.id)
        snapshot = dataclasses.replace(read)
        with store.pass_lock() as group:
            updated = store.update(group, read, b"v2-bytes", 1, 2, clock)
            assert store.get(record.id) == read  # staged, not yet visible
        assert read == snapshot  # the caller's record is not mutated
        assert updated.id == record.id
        assert updated.content_digest == content_id(b"v2-bytes")
        assert updated.created_at == 100
        assert updated.updated_at == 105
        assert updated.policy_version == 2
        again = store.get(record.id)
        assert again.ct == b"v2-bytes"

    def test_record_round_trips_as_a_frame_body(self):
        record = CtRecord(
            id="ab" * 32, ct=bytes(range(256)) * 3, n_layers=3, created_at=7,
            updated_at=9, policy_name='vc "quoted" \\ é', policy_version=2,
            content_digest="ef" * 32)
        data = record.to_bytes()
        assert CtRecord.from_bytes(data) == record
        assert decode_frame(data) == vars(record)

    def test_missing_record(self, tmp_path):
        with pytest.raises(NotFound):
            CtStore(tmp_path).get("ab" * 32)

    def test_record_in_the_old_json_layout_is_refused(self, tmp_path):
        """A record written before records became frame bodies, one JSON
        object with the container as base64, is refused, not migrated."""
        store = CtStore(tmp_path)
        ct = b"stored under the earlier layout"
        record_id = content_id(ct)
        (tmp_path / f"{record_id}.json").write_bytes(
            b'{"content_digest": "%s", "created_at": 7, "id": "%s", '
            b'"n_layers": 2, "policy_name": "vc", "policy_version": 1, '
            b'"updated_at": 7, "ct_b64": "%s"}'
            % (record_id.encode(), record_id.encode(), base64.b64encode(ct)))
        with pytest.raises(StoreFailure, match=f"record {record_id} corrupt"):
            store.get(record_id)

    def test_corruption_detected(self, tmp_path):
        """One flipped byte inside the container's section, under an
        untouched header, fails the digest check."""
        store = CtStore(tmp_path)
        record = store.put_new(b"data", 0, "vc", 1, ManualClock())
        path = tmp_path / f"{record.id}.json"
        data = bytearray(path.read_bytes())
        assert data.endswith(b"data")
        data[-2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(StoreFailure, match="digest mismatch"):
            store.get(record.id)

    @pytest.mark.parametrize("edit", [
        {"ct": "data"}, {"ct": 5}, {"ct": None}, {"ct": {"$section": 1}},
        {"policy_version": ...}, {"layer_policy_digest": "cd" * 32},
        {"policy_version": "1"}, {"n_layers": True}, {"created_at": 1.5},
        {"policy_name": ["vc"]}],
        ids=["ct-string", "ct-integer", "ct-null", "ct-names-no-section",
             "missing-key", "extra-key", "version-string", "layers-bool",
             "time-float", "name-list"])
    def test_header_that_is_not_a_record_is_refused(self, tmp_path, edit):
        """A well-framed file whose ``ct`` is not a section, whose header
        keys are not the record's fields, or whose fields have the wrong
        type, is refused; ``...`` drops a key."""
        store = CtStore(tmp_path)
        record = store.put_new(b"data", 0, "vc", 1, ManualClock())
        fields = {k: v for k, v in dict(vars(record), **edit).items() if v is not ...}
        (tmp_path / f"{record.id}.json").write_bytes(encode_frame(fields))
        with pytest.raises(StoreFailure, match=f"record {record.id} corrupt"):
            store.get(record.id)

    def test_by_policy(self, tmp_path):
        store = CtStore(tmp_path)
        clock = ManualClock()
        store.put_new(b"one", 0, "vc", 1, clock)
        store.put_new(b"two", 0, "other", 1, clock)
        store.put_new(b"three", 0, "vc", 1, clock)
        assert {r.ct for r in store.by_policy("vc")} == {b"one", b"three"}

    def test_reads_during_a_pass_see_old_or_new_records(self, tmp_path, monkeypatch):
        """A reader taking no lock, running before, during and after a
        pass's commit, reads every record whole and digest-verified."""
        store = CtStore(tmp_path)
        clock = ManualClock()
        old = {store.put_new(b"v1 %d" % i, 0, "vc", 1, clock).id: b"v1 %d" % i
               for i in range(4)}
        new = {record_id: b"v2 " + ct for record_id, ct in old.items()}
        first_loop, done = threading.Event(), threading.Event()
        seen: list[tuple[bytes, int]] = []
        errors: list[Exception] = []

        def read_all():
            seen.extend((r.ct, r.policy_version) for r in map(store.get, old))

        def reader():
            try:
                read_all()
                first_loop.set()
                while not done.is_set():
                    read_all()
                read_all()
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)
            finally:
                first_loop.set()

        real_replace = os.replace

        def yielding_replace(src, dst):
            real_replace(src, dst)
            time.sleep(0.002)  # let the reader run between renames
        monkeypatch.setattr(os, "replace", yielding_replace)
        thread = threading.Thread(target=reader)
        thread.start()
        assert first_loop.wait(timeout=10)
        with store.pass_lock() as group:
            for record in store.by_policy("vc"):
                store.update(group, record, new[record.id], 0, 2, clock)
        done.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert errors == []
        allowed = {(ct, 1) for ct in old.values()} | {(ct, 2) for ct in new.values()}
        assert set(seen) <= allowed
        assert {(ct, 1) for ct in old.values()} <= set(seen)
        assert set(seen[-len(new):]) == {(ct, 2) for ct in new.values()}


# Contents that do not decode to a record, a policy definition, an
# incident or a deployment config. None stands for the files of the kind
# that decode but have a field of the wrong type.
MALFORMED_FILES = {"not-json": b"{not json", "missing-field": b"{}",
                   "not-an-object": b"[1, 2]", "wrong-type": None}


@pytest.mark.parametrize("content", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
@pytest.mark.parametrize("kind", ["record", "policy", "incident-log", "config"])
def test_malformed_file_raises_store_failure(tmp_path, kind, content):
    """Every read of a damaged file raises StoreFailure naming it; a
    damaged incident line is never skipped."""
    clock = ManualClock()
    prefix = suffix = b""
    if kind == "record":
        store = CtStore(tmp_path)
        record = store.put_new(b"data", 0, "vc", 1, clock)
        name, wrong = record.id, [encode_frame(dict(vars(record), policy_version="1"))]
        (path,) = tmp_path.glob("*.json")
        read = lambda: store.get(name)
    elif kind == "policy":
        store = PolicyStore(tmp_path)
        name = "vc"
        store.define(name, ["(A)"], clock)
        wrong = [b'{"history": [], "layers": 5, "name": "vc", "version": 1}']
        (path,) = tmp_path.glob("*.json")
        read = lambda: store.get(name)
    elif kind == "incident-log":
        path = tmp_path / "incidents.log"
        log = SecurityEventLog(path)
        log.record(5, "before the damage")
        wrong = [b'{"reason": "", "t_incident": "6"}']
        prefix, suffix = path.read_bytes(), b"\n"
        name, read = str(path), lambda: log.current
    else:
        path = tmp_path / "config.json"
        # An allowlist entry that is a string would grant its characters.
        wrong = [b'{"admin_ids": ["admin"], "allowlist": []}',
                 b'{"admin_ids": ["admin"], "allowlist": {"bob": "Mechanic"}}',
                 b'{"admin_ids": ["admin"], "allowlist": {"bob": 5}}',
                 b'{"admin_ids": [5], "allowlist": {}}']
        name, read = str(path), lambda: Deployment(tmp_path, "pw", clock=clock)
    for bad in [content] if content else wrong:
        path.write_bytes(prefix + bad + suffix)
        for _ in range(2):
            with pytest.raises(StoreFailure, match=re.escape(f"{name} corrupt")):
                read()


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        target = tmp_path / "record.json"
        atomic_write(target, b"first")
        atomic_write(target, b"second")
        assert target.read_bytes() == b"second"
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]

    def test_concurrent_writers_of_one_path(self, tmp_path, monkeypatch):
        """Two writers meeting at fsync both succeed; one payload wins whole."""
        target = tmp_path / "r.json"
        barrier = threading.Barrier(2, timeout=5)
        real_fsync = os.fsync

        def meeting_fsync(fd):
            barrier.wait()
            real_fsync(fd)
        monkeypatch.setattr(os, "fsync", meeting_fsync)
        payloads = [b"a" * 4096, b"b" * 1000]
        errors = []

        def write(data):
            try:
                atomic_write(target, data)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)
        threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert errors == []
        assert target.read_bytes() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    @staticmethod
    def _record_fsyncs(monkeypatch) -> list[tuple[str, int]]:
        """(``"dir"`` or ``"file"``, inode) of every fsync from now on."""
        synced: list[tuple[str, int]] = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            st = os.fstat(fd)
            synced.append(("dir" if stat.S_ISDIR(st.st_mode) else "file", st.st_ino))
            real_fsync(fd)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        return synced

    def test_directory_fsynced_after_the_rename(self, tmp_path, monkeypatch):
        synced = self._record_fsyncs(monkeypatch)
        atomic_write(tmp_path / "record.json", b"data")
        assert synced == [("file", (tmp_path / "record.json").stat().st_ino),
                          ("dir", tmp_path.stat().st_ino)]

    def test_group_fsyncs_each_directory_once(self, tmp_path, monkeypatch):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        targets = [tmp_path / "a" / "1", tmp_path / "b" / "2", tmp_path / "a" / "3"]
        synced = self._record_fsyncs(monkeypatch)
        group = storage._GroupCommit()
        for target in targets:
            group.stage(target, target.name.encode())
        group.commit()
        assert synced == [("file", t.stat().st_ino) for t in targets] + [
            ("dir", (tmp_path / "a").stat().st_ino), ("dir", (tmp_path / "b").stat().st_ino)]

    def test_interrupted_write_leaves_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "record.json"
        atomic_write(target, b"old")

        import os as _os
        def broken_replace(src, dst):
            raise OSError("simulated crash at rename")
        monkeypatch.setattr(_os, "replace", broken_replace)
        with pytest.raises(StoreFailure):
            atomic_write(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]


class TestPolicyStore:
    def test_define_and_version_bump(self, tmp_path):
        store = PolicyStore(tmp_path)
        clock = ManualClock(10)
        first = store.define("vc", ["(A)"], clock)
        assert first.version == 1
        second = store.define("vc", ["(A AND B)"], clock)
        assert second.version == 2
        fetched = store.get("vc")
        assert fetched.layers == ["(A AND B)"]
        assert [h["version"] for h in fetched.history] == [1, 2]
        assert fetched.history[0]["layers"] == ["(A)"]

    def test_names_roundtrip(self, tmp_path):
        store = PolicyStore(tmp_path)
        clock = ManualClock()
        store.define("with spaces/and:chars", ["(A)"], clock)
        store.define("plain", ["(B)"], clock)
        assert store.names() == sorted(["with spaces/and:chars", "plain"])

    def test_missing(self, tmp_path):
        with pytest.raises(NotFound):
            PolicyStore(tmp_path).get("nope")

    def test_definitions_through_two_stores_all_land(self, tmp_path, monkeypatch):
        """A definition through one store that starts while another store is
        between reading the version and writing the next waits for that
        write, then defines the version after it."""
        import fcntl

        clock = ManualClock(10)
        a, b = PolicyStore(tmp_path), PolicyStore(tmp_path)
        a.define("vc", ["(A)"], clock)
        a_paused, a_go, b_progress = threading.Event(), threading.Event(), threading.Event()
        real_write, real_flock = storage.atomic_write, fcntl.flock

        def pausing_write(path, data):
            if threading.current_thread() is a_thread:
                a_paused.set()
                a_go.wait(timeout=10)
            real_write(path, data)

        def signalling_flock(fd, operation):
            if threading.current_thread() is b_thread:
                b_progress.set()  # b is about to wait for a's lock
            real_flock(fd, operation)

        def define_through_b():
            b.define("vc", ["(B)"], clock)
            b_progress.set()

        monkeypatch.setattr(storage, "atomic_write", pausing_write)
        monkeypatch.setattr(fcntl, "flock", signalling_flock)
        a_thread = threading.Thread(target=a.define, args=("vc", ["(C)"], clock))
        b_thread = threading.Thread(target=define_through_b)
        a_thread.start()
        assert a_paused.wait(timeout=10)
        b_thread.start()
        assert b_progress.wait(timeout=10)
        a_go.set()
        for thread in (a_thread, b_thread):
            thread.join(timeout=10)
            assert not thread.is_alive()
        record = PolicyStore(tmp_path).get("vc")
        assert record.version == 3
        assert [(h["version"], h["layers"]) for h in record.history] == [
            (1, ["(A)"]), (2, ["(C)"]), (3, ["(B)"])]
        assert PolicyStore(tmp_path).names() == ["vc"]


class TestSecurityEventLog:
    def test_append_and_current(self, tmp_path):
        log = SecurityEventLog(tmp_path / "incidents.log")
        assert log.current == 0
        log.record(50, "first")
        log.record(60, "second")
        assert log.current == 60
        assert log.events == [(50, "first"), (60, "second")]

    def test_strictly_increasing(self, tmp_path):
        """A record at or before the last incident lands one past it."""
        log = SecurityEventLog(tmp_path / "incidents.log")
        assert log.record(50, "first") == 50
        assert log.record(50, "same instant") == 51
        assert log.record(49, "backwards") == 52
        assert log.record(60, "later") == 60
        assert [t for t, _ in log.events] == [50, 51, 52, 60]

    def test_survives_reload(self, tmp_path):
        path = tmp_path / "incidents.log"
        SecurityEventLog(path).record(77, "breach")
        reloaded = SecurityEventLog(path)
        assert reloaded.current == 77
        assert reloaded.events == [(77, "breach")]

    def test_sees_incidents_recorded_through_another_log(self, tmp_path):
        path = tmp_path / "incidents.log"
        a = SecurityEventLog(path)
        b = SecurityEventLog(path)
        assert a.current == 0
        b.record(50, "seen by the other log")
        assert a.current == 50
        assert a.events == [(50, "seen by the other log")]
        assert a.record(50, "not newer than the other log's incident") == 51
        assert b.events == [(50, "seen by the other log"),
                            (51, "not newer than the other log's incident")]

    def test_records_through_two_logs_stay_increasing(self, tmp_path, monkeypatch):
        """A record through one log that starts while another log is between
        its read and its append waits for that append, then appends after
        it."""
        path = tmp_path / "incidents.log"
        a = SecurityEventLog(path)
        b = SecurityEventLog(path)
        b_result: list = []
        b_thread = threading.Thread(
            target=lambda: b_result.append(b.record(60, "through b")))
        real_refresh = a._refresh

        def refresh_then_race():
            real_refresh()
            if b_thread.ident is None:
                b_thread.start()
                b_thread.join(timeout=0.5)
        monkeypatch.setattr(a, "_refresh", refresh_then_race)

        assert a.record(50, "through a") == 50
        b_thread.join(timeout=10)
        assert not b_thread.is_alive()
        assert b_result == [60]
        assert SecurityEventLog(path).events == [(50, "through a"), (60, "through b")]

    def test_timestamp_that_is_not_an_integer_raises_store_failure(self, tmp_path):
        path = tmp_path / "incidents.log"
        path.write_bytes(b'{"reason": "x", "t_incident": "9"}\n')
        with pytest.raises(StoreFailure, match="is not an integer"):
            SecurityEventLog(path)

    @pytest.mark.parametrize("tail", [b'{"reason": "y", "t_in', bytes(12)],
                             ids=["cut-json", "zeros"])
    def test_record_cuts_a_torn_tail(self, tmp_path, tail):
        """A writer that died mid-append leaves a last line with no newline;
        the next record drops it, and every reader sees both incidents."""
        path = tmp_path / "incidents.log"
        SecurityEventLog(path).record(5, "x")
        with open(path, "ab") as handle:
            handle.write(tail)
        assert SecurityEventLog(path).record(9, "after the crash") == 9
        assert SecurityEventLog(path).events == [(5, "x"), (9, "after the crash")]

    def test_record_keeps_a_complete_corrupt_line(self, tmp_path):
        """Only an unterminated tail is cut: a complete line that does not
        parse makes record raise and stays on disk."""
        path = tmp_path / "incidents.log"
        log = SecurityEventLog(path)
        log.record(5, "x")
        with open(path, "ab") as handle:
            handle.write(bytes(12) + b"\n")
        damaged = path.read_bytes()
        with pytest.raises(StoreFailure, match="corrupt"):
            log.record(9, "y")
        assert path.read_bytes() == damaged

    def test_partial_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "incidents.log"
        log = SecurityEventLog(path)
        with open(path, "ab") as handle:
            handle.write(b'{"reason": "x", "t_incident": 5}\n{"reason": "y", ')
        assert log.events == [(5, "x")]
        with open(path, "ab") as handle:
            handle.write(b'"t_incident": 9}\n')
        assert log.current == 9
        assert log.events == [(5, "x"), (9, "y")]


class TestClocks:
    def test_manual(self):
        clock = ManualClock(5)
        assert clock.now() == 5
        assert clock.advance(3) == 8
        clock.set(100)
        assert clock.now() == 100

    def test_system_is_integral_seconds(self):
        import time
        now = SystemClock().now()
        assert isinstance(now, int)
        assert abs(now - time.time()) < 2
