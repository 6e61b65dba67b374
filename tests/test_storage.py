"""Persistence: ciphertext store, policy store, incident log, clocks."""

from __future__ import annotations

import base64
import dataclasses
import gc
import json
import os
import re
import stat
import sys
import threading
import time

import pytest

from support import segment, segment_entries, stored_ids

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


def _replace(path, data: bytes) -> None:
    """Put `data` at `path` as a new file, as a pass's rename does."""
    tmp = path.with_name(path.name + ".new")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class TestCtStore:
    def test_content_addressing(self, tmp_path):
        store = CtStore(tmp_path)
        clock = ManualClock(100)
        record = store.put_new(b"ciphertext-bytes", 2, "vc", 1, clock)
        stem, _, digest = record.id.partition(".")
        assert (stem, digest) == (storage._stem("vc"), content_id(b"ciphertext-bytes"))
        fetched = store.get(record.id)
        assert fetched.ct == b"ciphertext-bytes"
        assert fetched.content_digest == digest

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
        """A record file written before records became frame bodies, one
        JSON object with the container as base64, is refused, not
        migrated, by a fetch of an id whose stem names the file; a pass on
        another policy skips it."""
        store = CtStore(tmp_path)
        ct = b"stored under the earlier layout"
        digest = content_id(ct)
        (tmp_path / f"{digest}.json").write_bytes(
            b'{"content_digest": "%s", "created_at": 7, "id": "%s", '
            b'"n_layers": 2, "policy_name": "vc", "policy_version": 1, '
            b'"updated_at": 7, "ct_b64": "%s"}'
            % (digest.encode(), digest.encode(), base64.b64encode(ct)))
        with pytest.raises(StoreFailure, match="earlier layout"):
            store.get(f"{digest}.{digest}")
        healthy = store.put_new(b"healthy", 0, "other", 1, ManualClock())
        visited: list[CtRecord] = []
        CtStore(tmp_path).by_policy("other", visited.append)
        assert visited == [healthy]

    def test_record_in_the_per_record_layout_is_refused(self, tmp_path):
        """A record file left from the layout of one file per record, a
        bare frame body, is refused by a fetch of an id whose stem names
        the file; a publish, which touches only its own policy's segment,
        still lands, and a pass on that policy skips the refused file."""
        record = CtRecord(id=content_id(b"old"), ct=b"old", n_layers=0, created_at=7,
                          updated_at=7, policy_name="vc", policy_version=1,
                          content_digest=content_id(b"old"))
        (tmp_path / f"{record.id}.json").write_bytes(record.to_bytes())
        store = CtStore(tmp_path)
        with pytest.raises(StoreFailure, match="earlier layout"):
            store.get(f"{record.id}.{record.id}")
        published = store.put_new(b"new", 0, "vc", 1, ManualClock())
        assert CtStore(tmp_path).get(published.id) == published
        visited: list[CtRecord] = []
        store.by_policy("vc", visited.append)
        assert visited == [published]

    def test_corruption_detected(self, tmp_path):
        """One flipped byte inside the container's section of a segment
        entry, under an untouched header, fails the digest check."""
        store = CtStore(tmp_path)
        record = store.put_new(b"data", 0, "vc", 1, ManualClock())
        (path,) = tmp_path.glob("*.json")
        data = bytearray(path.read_bytes())
        assert data.endswith(b"data")
        data[-2] ^= 0x01
        path.write_bytes(bytes(data))
        for reader in (store, CtStore(tmp_path)):
            with pytest.raises(StoreFailure, match="digest mismatch"):
                reader.get(record.id)

    @pytest.mark.parametrize("edit", [
        {"ct": "data"}, {"ct": 5}, {"ct": None}, {"ct": {"$section": 1}},
        {"policy_version": ...}, {"layer_policy_digest": "cd" * 32},
        {"policy_version": "1"}, {"n_layers": True}, {"created_at": 1.5},
        {"policy_name": ["vc"]}],
        ids=["ct-string", "ct-integer", "ct-null", "ct-names-no-section",
             "missing-key", "extra-key", "version-string", "layers-bool",
             "time-float", "name-list"])
    def test_header_that_is_not_a_record_is_refused(self, tmp_path, edit):
        """A well-framed segment entry whose ``ct`` is not a section, whose
        header keys are not the record's fields, or whose fields have the
        wrong type, is refused; ``...`` drops a key."""
        store = CtStore(tmp_path)
        record = store.put_new(b"data", 0, "vc", 1, ManualClock())
        fields = {k: v for k, v in dict(vars(record), **edit).items() if v is not ...}
        (path,) = tmp_path.glob("*.json")
        _replace(path, segment(encode_frame(fields)))
        for reader in (store, CtStore(tmp_path)):
            with pytest.raises(StoreFailure, match=f"record {record.id} corrupt"):
                reader.get(record.id)

    def test_by_policy(self, tmp_path):
        store = CtStore(tmp_path)
        clock = ManualClock()
        store.put_new(b"one", 0, "vc", 1, clock)
        store.put_new(b"two", 0, "other", 1, clock)
        store.put_new(b"three", 0, "vc", 1, clock)
        visited: list[CtRecord] = []
        store.by_policy("vc", visited.append)
        assert {r.ct for r in visited} == {b"one", b"three"}

    def test_reads_during_a_pass_see_old_or_new_records(self, tmp_path, monkeypatch):
        """A reader taking no lock, running before, during and after the
        rename that commits a pass's rewrite of the segment, reads every
        record whole and digest-verified."""
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
            time.sleep(0.002)  # let the reader run before and after the rename
            real_replace(src, dst)
            time.sleep(0.002)
        monkeypatch.setattr(os, "replace", yielding_replace)
        thread = threading.Thread(target=reader)
        thread.start()
        assert first_loop.wait(timeout=10)
        try:
            with store.pass_lock() as group:
                store.by_policy("vc", lambda record: store.update(
                    group, record, new[record.id], 0, 2, clock))
        finally:
            done.set()  # a failed pass must not leave the reader looping
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert errors == []
        allowed = {(ct, 1) for ct in old.values()} | {(ct, 2) for ct in new.values()}
        assert set(seen) <= allowed
        assert {(ct, 1) for ct in old.values()} <= set(seen)
        assert set(seen[-len(new):]) == {(ct, 2) for ct in new.values()}


class TestSegments:
    """One append-only segment per policy: torn tails, duplicates and
    entries that belong to no record of the segment."""

    @pytest.mark.parametrize("tail", ["cut-entry", "zeros"])
    def test_torn_tail_is_skipped_then_cut_by_the_next_publish(self, tmp_path, tail):
        """A writer that died mid-append leaves an unterminated last entry:
        readers skip it, and the next publish cuts it before it appends."""
        clock = ManualClock()
        store = CtStore(tmp_path)
        first = store.put_new(b"first", 0, "vc", 1, clock)
        (path,) = tmp_path.glob("*.json")
        whole = path.read_bytes()
        torn = segment(dataclasses.replace(first, id="ab" * 32).to_bytes())[:-7]
        with open(path, "ab") as handle:
            handle.write(torn if tail == "cut-entry" else bytes(12))
        visited: list[CtRecord] = []
        CtStore(tmp_path).by_policy("vc", visited.append)
        assert visited == [first]
        assert store.get(first.id) == first
        second = CtStore(tmp_path).put_new(b"second", 0, "vc", 1, clock)
        assert path.read_bytes() == whole + segment(second.to_bytes())
        for reader in (store, CtStore(tmp_path)):
            assert [reader.get(i).ct for i in (first.id, second.id)] == [b"first", b"second"]

    def test_an_id_published_twice_keeps_one_entry_after_a_pass(self, tmp_path):
        """The later of two entries of one id is the record; a pass that
        rewrites the segment copies only that one."""
        clock = ManualClock(10)
        store = CtStore(tmp_path)
        behind = store.put_new(b"behind", 0, "vc", 1, clock)
        store.put_new(b"twice", 0, "vc", 2, clock)
        clock.advance()
        twice = store.put_new(b"twice", 0, "vc", 2, clock)
        (path,) = tmp_path.glob("*.json")
        assert len(segment_entries(path.read_bytes())) == 3
        assert CtStore(tmp_path).get(twice.id).created_at == 11
        with store.pass_lock() as group:
            def relayer(record):
                if record.policy_version < 2:
                    store.update(group, record, b"behind v2", 0, 2, clock)
            store.by_policy("vc", relayer)
        assert sorted(segment_entries(path.read_bytes())) == sorted(
            [twice.to_bytes(), dataclasses.replace(
                behind, ct=b"behind v2", policy_version=2, updated_at=11,
                content_digest=content_id(b"behind v2")).to_bytes()])
        for reader in (store, CtStore(tmp_path)):
            assert reader.get(twice.id) == twice
        assert stored_ids(tmp_path) == sorted([behind.id, twice.id])

    def test_entry_naming_another_policy_is_refused(self, tmp_path):
        """An entry copied into the segment of another policy than the one
        its header names makes reads of that segment and passes of its
        policy raise; a pass on the other policy still succeeds."""
        clock = ManualClock()
        store = CtStore(tmp_path)
        mine = store.put_new(b"mine", 0, "vc", 1, clock)
        other = store.put_new(b"other", 0, "other", 1, clock)
        mine_path = tmp_path / f"{storage._stem('vc')}.json"
        with open(mine_path, "ab") as handle:
            handle.write(segment(other.to_bytes()))
        for reader in (store, CtStore(tmp_path)):
            with pytest.raises(StoreFailure, match=f"record {other.id} corrupt.*names policy 'other'"):
                reader.get(mine.id)
        with pytest.raises(StoreFailure, match="names policy 'other'"):
            CtStore(tmp_path).by_policy("vc", lambda record: None)
        visited: list[CtRecord] = []
        CtStore(tmp_path).by_policy("other", visited.append)
        assert visited == [other]

    def test_publishes_and_passes_through_two_stores_lose_nothing(self, tmp_path):
        """Four threads publish through two stores on one directory while
        two more run passes through both; every record lands once, and
        a last pass brings each to the new version."""
        stores, clock = [CtStore(tmp_path), CtStore(tmp_path)], ManualClock()
        published: list[list[str]] = [[] for _ in range(4)]
        errors: list[Exception] = []
        done = threading.Event()

        def relayer(store):
            with store.pass_lock() as group:
                def relayer_one(record):
                    if record.policy_version < 2:
                        store.update(group, record, record.ct + b" v2", 0, 2, clock)
                store.by_policy("vc", relayer_one)

        def publish(k):
            try:
                for i in range(20):
                    record = stores[k % 2].put_new(b"%d-%d" % (k, i), 0, "vc", 1, clock)
                    published[k].append(record.id)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        def relayers(store):
            try:
                while not done.is_set():
                    relayer(store)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [threading.Thread(target=publish, args=(k,)) for k in range(4)]
            passes = [threading.Thread(target=relayers, args=(store,)) for store in stores]
            for thread in writers + passes:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in passes:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + passes)
        assert errors == []
        relayer(stores[1])
        ids = sorted(i for ids in published for i in ids)
        (path,) = tmp_path.glob("*.json")
        assert len(segment_entries(path.read_bytes())) == len(ids) == 80
        assert stored_ids(tmp_path) == ids
        for reader in stores + [CtStore(tmp_path)]:
            for k, i in ((k, i) for k in range(4) for i in range(20)):
                record = reader.get(published[k][i])
                assert (record.ct, record.policy_version) == (b"%d-%d v2" % (k, i), 2)

    def test_one_container_under_two_policies_is_two_records(self, tmp_path):
        """One container published under two policies is two records with
        two ids that share the digest part; each reads, and only its own
        policy's pass re-layers it."""
        clock = ManualClock()
        store = CtStore(tmp_path)
        records = {name: CtStore(tmp_path).put_new(b"same", 0, name, 1, clock)
                   for name in ("vc", "other")}
        assert records["vc"].id != records["other"].id
        assert records["vc"].id.partition(".")[2] == records["other"].id.partition(".")[2]
        for version, name in enumerate(("vc", "other"), start=2):
            with store.pass_lock() as group:
                store.by_policy(name, lambda record: store.update(
                    group, record, b"same v%d" % version, 0, version, clock))
            for reader in (store, CtStore(tmp_path)):
                assert reader.get(records[name].id).ct == b"same v%d" % version
        for reader in (store, CtStore(tmp_path)):
            assert [reader.get(records[name].id).policy_version
                    for name in ("vc", "other")] == [2, 3]
        assert stored_ids(tmp_path) == sorted(record.id for record in records.values())

    def test_racing_publishes_of_one_container_under_two_policies_both_land(
            self, tmp_path, monkeypatch):
        """Two stores publish one container under two policies at once, each
        held after its append until the other has appended too: nothing
        makes one wait for the other, both land, and a fresh store reads
        both records."""
        clock = ManualClock()
        stores = [CtStore(tmp_path), CtStore(tmp_path)]
        barrier = threading.Barrier(2, timeout=10)
        real_fdatasync = os.fdatasync
        outcomes: list[object] = []

        def meeting_fdatasync(fd):
            barrier.wait()  # broken if one publish waits for the other
            real_fdatasync(fd)

        def publish(k):
            try:
                outcomes.append(stores[k].put_new(b"same", 0, ["vc", "other"][k], 1, clock))
            except Exception as exc:  # reported by the assertion below
                outcomes.append(exc)

        monkeypatch.setattr(os, "fdatasync", meeting_fdatasync)
        threads = [threading.Thread(target=publish, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        monkeypatch.undo()
        assert not any(thread.is_alive() for thread in threads)
        assert [type(o) for o in outcomes] == [CtRecord, CtRecord]
        fresh = CtStore(tmp_path)
        assert [fresh.get(o.id) for o in outcomes] == outcomes
        assert {o.policy_name for o in outcomes} == {"vc", "other"}
        assert stored_ids(tmp_path) == sorted(o.id for o in outcomes)

    def test_publishes_under_two_policies_racing_a_pass_all_land(self, tmp_path):
        """Two stores publish one container under two policies, record after
        record, while a third runs a pass on one of them: every record
        reads through a fresh store, and each record of the pass's policy
        is at the new version."""
        clock = ManualClock()
        publishers, relayer = [CtStore(tmp_path), CtStore(tmp_path)], CtStore(tmp_path)
        behind = [publishers[0].put_new(b"behind %d" % i, 0, "vc", 1, clock) for i in range(8)]
        start = threading.Barrier(3, timeout=10)
        published: list[CtRecord] = []
        errors: list[Exception] = []

        def publish(k):
            try:
                start.wait()
                for i in range(10):
                    published.append(publishers[k].put_new(
                        b"same %d" % i, 0, ["vc", "other"][k], 2, clock))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        def relayer_one(group, record):
            if record.policy_version < 2:
                relayer.update(group, record, record.ct + b" v2", 0, 2, clock)

        def run_pass():
            try:
                with relayer.pass_lock() as group:
                    start.wait()
                    relayer.by_policy("vc", lambda record: relayer_one(group, record))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=publish, args=(k,)) for k in range(2)]
            threads.append(threading.Thread(target=run_pass))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        fresh = CtStore(tmp_path)
        assert [fresh.get(r.id) for r in published] == published
        assert [(fresh.get(r.id).ct, fresh.get(r.id).policy_version) for r in behind] \
            == [(r.ct + b" v2", 2) for r in behind]
        assert stored_ids(tmp_path) == sorted(r.id for r in behind + published)
        visited: list[CtRecord] = []
        fresh.by_policy("vc", visited.append)
        assert len(visited) == 18 and {r.policy_version for r in visited} == {2}

    def test_passes_on_one_policy_while_a_publish_grows_another(self, tmp_path):
        """One thread runs 50 passes on one policy through a store while
        another publishes to a second policy through the same store, so the
        store's index of that segment grows while the walk takes its
        snapshots: nothing raises, and every record reads at its policy's
        last version."""
        clock = ManualClock()
        store = CtStore(tmp_path)
        kept = [store.put_new(b"other %d" % i, 0, "other", 1, clock) for i in range(4)]
        published: list[CtRecord] = []
        errors: list[Exception] = []
        start, done = threading.Barrier(2, timeout=10), threading.Event()

        def run_passes():
            try:
                start.wait()
                for version in range(2, 52):
                    with store.pass_lock() as group:
                        store.by_policy("other", lambda record: store.update(
                            group, record, record.ct, 0, version, clock))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)
            finally:
                done.set()

        def publish():
            try:
                start.wait()
                while not done.is_set():
                    published.append(store.put_new(b"vc %d" % len(published), 0, "vc", 1, clock))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run_passes), threading.Thread(target=publish)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert published
        for reader in (store, CtStore(tmp_path)):
            assert [(reader.get(r.id).ct, reader.get(r.id).policy_version) for r in kept] \
                == [(r.ct, 51) for r in kept]
            assert [reader.get(r.id) for r in published] == published
        assert stored_ids(tmp_path) == sorted(r.id for r in kept + published)

    def test_damaged_segment_leaves_other_policies_working(self, tmp_path):
        """An unreadable entry in one policy's segment makes reads of that
        segment, publishes to it and passes of its policy raise, also a
        fetch of an id unknown there, as the record may lie past the damage;
        another policy's records still publish, fetch and pass through a
        fresh store, and an id unknown under it misses."""
        clock = ManualClock()
        store = CtStore(tmp_path)
        damaged = store.put_new(b"damaged", 0, "vc", 1, clock)
        healthy = store.put_new(b"healthy", 0, "other", 1, clock)
        with open(tmp_path / f"{storage._stem('vc')}.json", "ab") as handle:
            handle.write(segment(b"\0\0\0\xffnot a header"))
        for reader in (store, CtStore(tmp_path)):
            with pytest.raises(StoreFailure, match="corrupt at byte"):
                reader.get(damaged.id)
            with pytest.raises(StoreFailure, match="corrupt at byte"):
                reader.put_new(b"more", 0, "vc", 1, clock)
            with pytest.raises(StoreFailure, match="corrupt at byte"):
                reader.by_policy("vc", lambda record: None)
            visited: list[CtRecord] = []
            reader.by_policy("other", visited.append)
            assert visited == [healthy]
            with pytest.raises(StoreFailure, match="corrupt at byte"):
                reader.get(f"{storage._stem('vc')}.{'ab' * 32}")
            with pytest.raises(NotFound):
                reader.get(f"{storage._stem('other')}.{'ab' * 32}")
        fresh = CtStore(tmp_path)
        assert fresh.get(healthy.id) == healthy
        added = fresh.put_new(b"added", 0, "other", 1, clock)
        for reader in (store, fresh, CtStore(tmp_path)):
            assert [reader.get(i) for i in (healthy.id, added.id)] == [healthy, added]

    def test_entry_whose_id_names_another_segment_damages_only_its_own(self, tmp_path):
        """An entry that names its segment's policy but carries an id of
        another segment is damage of its own segment only: reads of and
        publishes to that segment raise, and the other segment's records
        still read and publish."""
        clock = ManualClock()
        store = CtStore(tmp_path)
        mine = store.put_new(b"mine", 0, "vc", 1, clock)
        other = store.put_new(b"other", 0, "other", 1, clock)
        with open(tmp_path / f"{storage._stem('vc')}.json", "ab") as handle:
            handle.write(segment(dataclasses.replace(other, policy_name="vc").to_bytes()))
        fresh = CtStore(tmp_path)
        for reader in (store, fresh):
            with pytest.raises(StoreFailure,
                               match=f"record {other.id} corrupt.*names no record of this segment"):
                reader.get(mine.id)
            assert reader.get(other.id) == other
        with pytest.raises(StoreFailure, match="names no record of this segment"):
            fresh.put_new(b"more", 0, "vc", 1, clock)
        added = fresh.put_new(b"added", 0, "other", 1, clock)
        assert CtStore(tmp_path).get(added.id) == added

    def test_segment_of_bare_sha256_ids_is_refused_while_other_policies_work(self, tmp_path):
        """A segment written when a record id was the bare SHA-256 of its
        container is of an earlier layout, refused without migration by
        reads of it and passes of its policy; a bare id names no segment.
        Another policy publishes, fetches and passes."""
        clock = ManualClock()
        old = [CtRecord(id=content_id(ct), ct=ct, n_layers=0, created_at=7, updated_at=7,
                        policy_name="vc", policy_version=1, content_digest=content_id(ct))
               for ct in (b"first", b"second")]
        (tmp_path / f"{storage._stem('vc')}.json").write_bytes(
            segment(*(r.to_bytes() for r in old)))
        store = CtStore(tmp_path)
        healthy = store.put_new(b"healthy", 0, "other", 1, clock)
        for reader in (store, CtStore(tmp_path)):
            for record in old:
                with pytest.raises(StoreFailure, match="earlier layout"):
                    reader.get(f"{storage._stem('vc')}.{record.id}")
                with pytest.raises(NotFound):
                    reader.get(record.id)
            with pytest.raises(StoreFailure, match="earlier layout"):
                reader.put_new(b"new", 0, "vc", 1, clock)
            assert reader.get(healthy.id) == healthy
            with pytest.raises(StoreFailure, match="earlier layout"):
                reader.by_policy("vc", lambda record: None)
            visited: list[CtRecord] = []
            reader.by_policy("other", visited.append)
            assert visited == [healthy]

    def test_fetch_of_an_unknown_id_among_fifty_segments_scans_nothing(
            self, tmp_path, monkeypatch):
        """In a directory of 50 segments, a fetch of an unknown id under a
        segment's stem misses without listing the directory, and one under
        a stem with no segment misses without opening a file either."""
        clock = ManualClock()
        for i in range(50):
            CtStore(tmp_path).put_new(b"%d" % i, 0, f"vc-{i}", 1, clock)
        calls: list[str] = []
        real_scandir, real_open = os.scandir, os.open

        def counting_scandir(*args):
            calls.append("scandir")
            return real_scandir(*args)

        def counting_open(*args, **kwargs):
            calls.append("open")
            return real_open(*args, **kwargs)

        monkeypatch.setattr(os, "scandir", counting_scandir)
        monkeypatch.setattr(os, "open", counting_open)
        for reader in (CtStore(tmp_path), CtStore(tmp_path)):
            with pytest.raises(NotFound):
                reader.get(f"{storage._stem('vc-7')}.{'ab' * 32}")
            assert "scandir" not in calls
            calls.clear()
            with pytest.raises(NotFound):
                reader.get(f"{storage._stem('vc-50')}.{'ab' * 32}")
            assert calls == []

    def test_publish_lists_no_directory_and_takes_no_directory_lock(
            self, tmp_path, monkeypatch):
        """A publish reads and locks its own segment only: it lists no
        directory and leaves no file but the segments."""
        clock = ManualClock()
        for name in ("vc-a", "vc-b"):
            CtStore(tmp_path).put_new(name.encode(), 0, name, 1, clock)
        scans: list[tuple] = []
        real_scandir = os.scandir

        def counting_scandir(*args):
            scans.append(args)
            return real_scandir(*args)

        monkeypatch.setattr(os, "scandir", counting_scandir)
        store = CtStore(tmp_path)
        records = [store.put_new(b"new", 0, "vc-a", 1, clock),
                   store.put_new(b"new", 0, "vc-c", 1, clock)]
        monkeypatch.undo()
        assert scans == []
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{storage._stem(name)}.json" for name in ("vc-a", "vc-b", "vc-c"))
        assert [CtStore(tmp_path).get(r.id) for r in records] == records

    def test_index_survives_passes_that_reuse_an_inode(self, tmp_path):
        """Two passes through another store may give the second rewrite the
        inode number the first freed; a store that read neither rewrite
        still reads every record at its new version."""
        clock = ManualClock()
        store, other = CtStore(tmp_path), CtStore(tmp_path)
        records = [store.put_new(b"%d" % i, 0, "vc", 1, clock) for i in range(3)]
        assert [store.get(r.id) for r in records] == records
        for version in (2, 3):
            with other.pass_lock() as group:
                other.by_policy("vc", lambda record: other.update(
                    group, record, record.ct + b" v%d" % version * version, 0, version, clock))
        for record in records:
            assert store.get(record.id).ct == record.ct + b" v2" * 2 + b" v3" * 3

    def test_write_failure_mid_pass_commits_the_records_before_it(self, tmp_path):
        """A write of a replacement that fails part-way leaves part of an
        entry in the rewrite; the commit cuts it, so the records re-layered
        before the failure land and the rest stay as they were."""
        clock = ManualClock()
        store = CtStore(tmp_path)
        first, second = (store.put_new(b"%d" % i, 0, "vc", 1, clock) for i in range(2))

        class FailingWrites:
            def __init__(self, out):
                self.out = out

            def write(self, data):
                self.out.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.out, name)

        with store.pass_lock() as rewrites:
            store.update(rewrites, store.get(first.id), b"first v2", 0, 2, clock)
            (rewrite,) = rewrites.values()
            out, rewrite.out = rewrite.out, FailingWrites(rewrite.out)
            with pytest.raises(StoreFailure, match="No space left"):
                store.update(rewrites, store.get(second.id), b"second v2", 0, 2, clock)
            rewrite.out = out  # the disk has room again by the commit
        assert list(tmp_path.glob("*.tmp")) == []
        for reader in (store, CtStore(tmp_path)):
            assert [(r.ct, r.policy_version) for r in map(reader.get, (first.id, second.id))] \
                == [(b"first v2", 2), (b"1", 1)]

    def test_a_pass_on_one_policy_leaves_the_index_of_another(self, tmp_path, monkeypatch):
        """After a pass on one policy, neither the store that ran it nor
        another store parses an entry of another policy's segment again to
        read a record there; no pass writes to ``.relayer.lock``."""
        clock = ManualClock()
        store, reader = CtStore(tmp_path), CtStore(tmp_path)
        renewed = [store.put_new(b"a%d" % i, 0, "vc-a", 1, clock) for i in range(3)]
        kept = store.put_new(b"b", 0, "vc-b", 1, clock)
        assert [reader.get(r.id) for r in renewed + [kept]] == renewed + [kept]
        with store.pass_lock() as group:
            store.by_policy("vc-a", lambda record: store.update(
                group, record, record.ct + b" v2", 0, 2, clock))
        parsed = []
        real_entry_identity = CtStore._entry_identity

        def counting_entry_identity(*args):
            parsed.append(args)
            return real_entry_identity(*args)

        monkeypatch.setattr(CtStore, "_entry_identity", staticmethod(counting_entry_identity))
        for each in (store, reader):
            assert each.get(kept.id) == kept
        assert parsed == []
        assert [reader.get(r.id).ct for r in renewed] == [r.ct + b" v2" for r in renewed]
        assert (tmp_path / ".relayer.lock").stat().st_size == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_stores_close_the_segments_they_held(self, tmp_path):
        """Each store holds every segment it has read open, and closes them
        all when it is dropped."""
        clock = ManualClock()
        records = [CtStore(tmp_path).put_new(name.encode(), 0, name, 1, clock)
                   for name in ("vc-a", "vc-b")]
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        stores = [CtStore(tmp_path) for _ in range(200)]
        for store in stores:
            assert [store.get(r.id) for r in records] == records
        assert len(os.listdir("/proc/self/fd")) >= before + 2 * len(stores)
        del stores, store
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before


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
    frame = lambda bad: bad  # noqa: E731
    if kind == "record":
        # A segment entry that has no readable record id damages its segment.
        store = CtStore(tmp_path)
        record = store.put_new(b"data", 0, "vc", 1, clock)
        wrong = [encode_frame(dict(vars(record), policy_version="1"))]
        (path,) = tmp_path.glob("*.json")
        name, frame = str(path) if content else record.id, segment
        read = lambda: store.get(record.id)
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
        path.write_bytes(prefix + frame(bad) + suffix)
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

    def test_names_lists_only_policy_files(self, tmp_path):
        """A directory named like a policy's file, and a file whose name is
        not the file name of any policy, are no policies."""
        store = PolicyStore(tmp_path)
        store.define("vc", ["(A)"], ManualClock())
        (tmp_path / f"{storage._stem('bad')}.json").mkdir()
        (tmp_path / "!!.json").write_bytes(b"{}")
        assert store.names() == ["vc"]

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
