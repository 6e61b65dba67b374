"""Role services: authority lifecycle, publish/update/fetch flows,
time gate, and wire-level confidentiality."""

from __future__ import annotations

import gc
import json
import select
import shutil
import socket
import struct
import sys
import threading
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from support import frames_contain_secret, make_rng

from mlabe.abe import MasterPublicKey
from mlabe.containers import HybridCiphertext
from mlabe.errors import (
    ERROR_CLASSES,
    EngineUnreachable,
    ExchangeError,
    NotFound,
    PolicySyntaxError,
    PolicyUnsatisfied,
    StoreFailure,
    Unauthorized,
)
from mlabe.exchange import transport
from mlabe.exchange.services import Consumer, DataOwner, Deployment
from mlabe.exchange.storage import ManualClock
from mlabe.exchange.transport import (
    LocalClient,
    ServiceClient,
    ServiceServer,
    TransportTap,
    decode_frame,
    encode_frame,
)
from mlabe.multilayer import augment_for_engine, update_outer_layers
from mlabe.policy import TIMESTAMP_ATTRIBUTE, parse_policy


ALLOW = {
    "alice": ["Mechanic", "Staff", "Boss"],
    "bob": ["Mechanic"],
    "do1": [],
}


def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


def _body(header: bytes, *sections: bytes) -> bytes:
    """A hand-built frame body: header length, header, then sections."""
    return _u32(len(header)) + header + b"".join(_u32(len(s)) + s for s in sections)


def _read_reply_header(sock: socket.socket) -> dict:
    """Read one whole frame and parse its JSON header by hand."""
    prefix = sock.recv(4, socket.MSG_WAITALL)
    assert len(prefix) == 4, "connection closed without a reply"
    (length,) = struct.unpack(">I", prefix)
    body = sock.recv(length, socket.MSG_WAITALL)
    (header_len,) = struct.unpack_from(">I", body)
    return json.loads(body[4:4 + header_len])


_HEALTH = b'{"caller": "", "op": "GET /health", "params": {}}'

# Frame bodies the codec must refuse with ValueError; as a request, each
# gets an ExchangeError frame back.
MALFORMED_BODIES = {
    "truncated-header-length": b"\x00\x00",
    "header-past-frame-end": _u32(len(_HEALTH) + 1) + _HEALTH,
    "section-past-frame-end": _body(_HEALTH) + _u32(1000) + b"abc",
    "truncated-section-length": _body(_HEALTH) + b"\x00\x01",
    "marker-out-of-range": _body(
        b'{"caller": "", "op": "GET /health", "params": {"x": {"$section": 1}}}', b"s0"),
    "marker-negative": _body(
        b'{"caller": "", "op": "GET /health", "params": {"x": {"$section": -1}}}', b"s0"),
    "marker-not-an-integer": _body(
        b'{"caller": "", "op": "GET /health", "params": {"x": {"$section": "0"}}}', b"s0"),
    "old-format-bare-json": _HEALTH,
    "header-nests-too-deeply": _body(b'{"x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
}


@pytest.fixture()
def deployment(tmp_path):
    clock = ManualClock(1_000)
    dep = Deployment(tmp_path / "dep", "operator-secret", clock=clock,
                     allowlist=ALLOW, rng=make_rng("deployment"))
    dep.admin.define_policy("admin", "vc", ["(Staff)", "(Mechanic OR Boss)"])
    return dep


def _raise_named(params: dict, caller: str):
    raise ERROR_CLASSES[params["name"]]("boom")


@pytest.fixture(scope="class", params=["served", "local"])
def raiser(request):
    """A client of one route that raises the error class it is named."""
    routes = {"POST /raise": _raise_named}
    if request.param == "local":
        yield LocalClient(routes)
    else:
        server = ServiceServer("raiser", routes).start()
        try:
            yield ServiceClient(server.address)
        finally:
            server.stop()


def _open_together(path, *openers: dict) -> list:
    """Open one directory from one thread per keyword set, all at once;
    each result is the Deployment or the exception its opener raised."""
    barrier = threading.Barrier(len(openers))

    def open_(kwargs: dict):
        barrier.wait(timeout=10)
        try:
            return Deployment(path, clock=ManualClock(1_000), **kwargs)
        except Exception as exc:  # compared by the caller
            return exc
    with ThreadPoolExecutor(len(openers)) as pool:
        return [f.result(timeout=60) for f in [pool.submit(open_, o) for o in openers]]


class TestAttributeAuthority:
    def test_two_openers_of_a_fresh_directory_share_one_pair(self, tmp_path):
        first, second = _open_together(
            tmp_path / "d", {"passphrase": "pw", "allowlist": {"alice": ["Staff"]}},
            {"passphrase": "pw", "allowlist": {"bob": ["Mechanic"]}})
        assert first.mpk == second.mpk
        first.admin.define_policy("admin", "vc", ["(Mechanic)"])
        record_id = DataOwner(first.mpk, make_rng("do")).publish(
            b"before the reopen", parse_policy("(Mechanic)"), "vc", first.client("internal"))
        reopened = Deployment(tmp_path / "d", "pw", clock=ManualClock(1_000))
        assert reopened.mpk == first.mpk
        assert reopened.allowlist["alice"] == ["Staff"]
        assert reopened.allowlist["bob"] == ["Mechanic"]
        key = reopened.issue_key("bob", ["Mechanic"])
        assert Consumer(reopened.mpk, key).fetch_and_decrypt(
            record_id, reopened.client("external")) == b"before the reopen"

    def test_wrong_passphrase_loses_to_a_concurrent_setup(self, tmp_path):
        results = _open_together(tmp_path / "d", {"passphrase": "right"},
                                 {"passphrase": "wrong"})
        winner, loser = sorted(results, key=lambda r: isinstance(r, Exception))
        assert isinstance(loser, Unauthorized)
        passphrase = "right" if results[0] is winner else "wrong"
        assert Deployment(tmp_path / "d", passphrase, clock=ManualClock()).mpk == winner.mpk

    def test_lost_public_key_export_opens_with_the_same_mpk(self, tmp_path):
        first = Deployment(tmp_path / "d", "pw", clock=ManualClock(), allowlist=ALLOW)
        (tmp_path / "d" / "aa" / "mpk.bin").unlink()
        assert Deployment(tmp_path / "d", "pw", clock=ManualClock()).mpk == first.mpk

    def test_missing_sealed_master_key_makes_a_fresh_pair(self, tmp_path):
        """A crash before ``master.enc`` is written leaves no pair: the next
        open creates one and exports its public key over the stale one."""
        first = Deployment(tmp_path / "d", "pw", clock=ManualClock(), allowlist=ALLOW)
        (tmp_path / "d" / "aa" / "master.enc").unlink()
        second = Deployment(tmp_path / "d", "pw", clock=ManualClock())
        assert second.mpk != first.mpk
        exported = (tmp_path / "d" / "aa" / "mpk.bin").read_bytes()
        assert MasterPublicKey.from_bytes(exported) == second.mpk

    @pytest.mark.parametrize("blob", [b"", b"short"])
    def test_truncated_sealed_master_key_is_a_store_failure(self, tmp_path, blob):
        Deployment(tmp_path / "d", "pw", clock=ManualClock(), allowlist=ALLOW)
        (tmp_path / "d" / "aa" / "master.enc").write_bytes(blob)
        with pytest.raises(StoreFailure, match="master.enc"):
            Deployment(tmp_path / "d", "pw", clock=ManualClock())

    def test_mpk_stable_across_restart(self, tmp_path):
        first = Deployment(tmp_path / "d", "pw", clock=ManualClock(), allowlist=ALLOW)
        mpk_bytes = first.aa.mpk.to_bytes()
        second = Deployment(tmp_path / "d", "pw", clock=ManualClock())
        assert second.aa.mpk.to_bytes() == mpk_bytes

    def test_config_naming_the_security_parameter_opens_unchanged(self, tmp_path):
        """A config.json that still has the former ``k_bits`` field opens,
        and opening it rewrites nothing."""
        first = Deployment(tmp_path / "d", "pw", clock=ManualClock(), allowlist=ALLOW)
        path = tmp_path / "d" / "config.json"
        config = json.loads(path.read_text("utf-8"))
        assert "k_bits" not in config
        path.write_text(json.dumps(dict(config, k_bits=256), indent=2, sort_keys=True))
        before = path.read_bytes()
        second = Deployment(tmp_path / "d", "pw", clock=ManualClock())
        assert path.read_bytes() == before
        assert second.mpk == first.mpk
        assert second.allowlist["bob"] == ["Mechanic"]

    def test_config_changes_survive_reopen(self, tmp_path):
        Deployment(tmp_path / "d", "pw", clock=ManualClock(), allowlist=ALLOW)
        Deployment(tmp_path / "d", "pw", clock=ManualClock(),
                   allowlist={"carol": ["Staff"]}, admin_ids={"root"})
        third = Deployment(tmp_path / "d", "pw", clock=ManualClock())
        assert third.allowlist["carol"] == ["Staff"]
        assert third.allowlist["bob"] == ["Mechanic"]
        assert third.admin_ids == {"admin", "root"}
        assert not list((tmp_path / "d").glob("*.tmp"))

    def test_wrong_passphrase_rejected(self, tmp_path):
        Deployment(tmp_path / "d", "right", clock=ManualClock(), allowlist=ALLOW)
        with pytest.raises(Unauthorized):
            Deployment(tmp_path / "d", "wrong", clock=ManualClock())

    def test_keygen_appends_timestamp(self, deployment):
        key = deployment.issue_key("alice", ["Mechanic", "Staff"])
        assert key.attrs.names == frozenset({"Mechanic", "Staff"})
        assert key.attrs.issuance_timestamp == deployment.clock.now()

    def test_keygen_unknown_requester(self, deployment):
        with pytest.raises(Unauthorized):
            deployment.issue_key("mallory", ["Staff"])

    def test_keygen_attribute_not_allowlisted(self, deployment):
        with pytest.raises(Unauthorized):
            deployment.issue_key("bob", ["Boss"])

    def test_keygen_timestamp_not_requestable(self, deployment):
        with pytest.raises(Unauthorized):
            deployment.issue_key("alice", [TIMESTAMP_ATTRIBUTE])

    def test_successive_keys_have_advancing_timestamps(self, deployment):
        first = deployment.issue_key("alice", ["Staff"])
        deployment.clock.advance(1)
        second = deployment.issue_key("alice", ["Staff"])
        assert second.attrs.issuance_timestamp - first.attrs.issuance_timestamp >= 1

    def test_issuance_logged(self, deployment):
        deployment.issue_key("alice", ["Staff"])
        log = (deployment.data_dir / "aa" / "issuance.log").read_text()
        assert "alice" in log and "Staff" in log


class TestPublish:
    def test_stored_layers_match_policy_record(self, deployment):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        record_id = owner.publish(b"data " * 40, parse_policy("(Mechanic AND Staff)"),
                                  "vc", deployment.client("internal"))
        record = deployment.ct_store.get(record_id)
        assert record.n_layers == 2  # the two configured engine layers

    def test_stored_bytes_hash_equals_id(self, deployment):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        record_id = owner.publish(b"data " * 40, parse_policy("(Staff)"),
                                  "vc", deployment.client("internal"))
        import hashlib
        record = deployment.ct_store.get(record_id)
        assert hashlib.sha256(record.ct).hexdigest() == record_id

    def test_unknown_policy_name(self, deployment):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        with pytest.raises(NotFound):
            owner.publish(b"data", parse_policy("(Staff)"), "nope",
                          deployment.client("internal"))

    def test_engine_unreachable_after_retries(self, deployment, monkeypatch):
        monkeypatch.setattr(transport, "CONNECT_BACKOFF_S", 0.01)
        monkeypatch.setattr(transport, "CONNECTION_TIMEOUT_S", 0.2)
        owner = DataOwner(deployment.mpk, make_rng("do"))
        dead = ServiceClient(("127.0.0.1", 9), caller="do1")
        with pytest.raises(EngineUnreachable):
            owner.publish(b"data", parse_policy("(Staff)"), "vc", dead)

    def test_sent_request_is_not_resent(self, monkeypatch):
        """A listener that reads one frame and hangs up without replying:
        the client must report the engine unreachable after exactly one
        delivery, because the server may already have acted on it."""
        delivered: list[bytes] = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(0.5)

            def read_and_hang_up() -> None:
                while True:
                    try:
                        conn, _ = listener.accept()
                    except OSError:
                        return
                    with conn:
                        conn.settimeout(2)
                        (length,) = struct.unpack(">I", conn.recv(4, socket.MSG_WAITALL))
                        delivered.append(conn.recv(length, socket.MSG_WAITALL))

            server = threading.Thread(target=read_and_hang_up, daemon=True)
            server.start()
            monkeypatch.setattr(transport, "CONNECT_BACKOFF_S", 0.01)
            monkeypatch.setattr(transport, "CONNECTION_TIMEOUT_S", 2)
            client = ServiceClient(listener.getsockname()[:2], caller="admin")
            with pytest.raises(EngineUnreachable, match="not resent"):
                client.request("POST /incident", {})
            server.join(timeout=5)
        assert not server.is_alive()
        assert len(delivered) == 1
        assert b"POST /incident" in delivered[0]

    def test_history_available_to_later_consumers(self, deployment):
        """Keys issued after publication decrypt old records without any
        producer involvement."""
        owner = DataOwner(deployment.mpk, make_rng("do"))
        plaintext = b"published before the consumer existed " * 4
        record_id = owner.publish(plaintext, parse_policy("(Mechanic)"),
                                  "vc", deployment.client("internal"))
        deployment.clock.advance(60)
        late_key = deployment.issue_key("alice", ["Mechanic", "Staff", "Boss"])
        consumer = Consumer(deployment.mpk, late_key)
        assert consumer.fetch_and_decrypt(
            record_id, deployment.client("external")) == plaintext


class TestPolicyUpdate:
    def test_update_semantics(self, deployment):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        plaintext = b"updatable payload " * 10
        record_id = owner.publish(plaintext, parse_policy("(Mechanic)"),
                                  "vc", deployment.client("internal"))
        before = deployment.ct_store.get(record_id)
        aes_before = HybridCiphertext.from_bytes(before.ct).ct_aes

        key_old = deployment.issue_key("alice", ["Mechanic", "Staff"])
        assert Consumer(deployment.mpk, key_old).fetch_and_decrypt(
            record_id, deployment.client("external")) == plaintext

        result = deployment.admin.update_policy(
            "admin", "vc", ["(Staff)", "(Mechanic AND Boss)"])
        assert result["version"] == 2
        assert record_id in result["updated"]

        after = deployment.ct_store.get(record_id)
        aes_after = HybridCiphertext.from_bytes(after.ct).ct_aes
        assert aes_before == aes_after  # payload bytes untouched
        assert after.updated_at >= after.created_at
        assert after.policy_version == 2

        with pytest.raises(PolicyUnsatisfied):
            Consumer(deployment.mpk, key_old).fetch_and_decrypt(
                record_id, deployment.client("external"))
        key_new = deployment.issue_key("alice", ["Mechanic", "Staff", "Boss"])
        assert Consumer(deployment.mpk, key_new).fetch_and_decrypt(
            record_id, deployment.client("external")) == plaintext

    @pytest.mark.parametrize("racer", ["same-deployment", "second-deployment"])
    def test_concurrent_updates_converge(self, tmp_path, monkeypatch, racer):
        """An update that starts while another is re-layering still leaves
        every record at the newest policy version, also when it runs on a
        second deployment opened on the same directory."""
        import mlabe.exchange.services as services

        dep = Deployment(tmp_path / "dep", "pw", clock=ManualClock(1_000),
                         rng=make_rng("converge"))
        dep.admin.define_policy("admin", "vc", ["(A)"])
        owner = DataOwner(dep.mpk, make_rng("do"))
        ids = [owner.publish(b"record %d" % i, parse_policy("(X)"), "vc",
                             dep.client("internal")) for i in range(3)]
        other = dep if racer == "same-deployment" else Deployment(
            tmp_path / "dep", "pw", clock=ManualClock(1_000), rng=make_rng("racer"))

        real_update = services.update_outer_layers
        second = threading.Thread(
            target=other.admin.update_policy, args=("admin", "vc", ["(C)"]))

        def update_starting_second(*args, **kwargs):
            if second.ident is None:
                second.start()
                second.join(timeout=1)
            return real_update(*args, **kwargs)
        monkeypatch.setattr(services, "update_outer_layers", update_starting_second)

        dep.admin.update_policy("admin", "vc", ["(B)"])
        second.join(timeout=30)
        assert not second.is_alive()
        assert dep.policy_store.get("vc").version == 3
        assert [dep.ct_store.get(i).policy_version for i in ids] == [3, 3, 3]

    def test_redefining_a_policy_relayers(self, deployment):
        """POST /policy on an existing name moves its records to the new
        version, so a key for the replaced layer no longer decrypts."""
        owner = DataOwner(deployment.mpk, make_rng("do"))
        plaintext = b"redefined payload " * 10
        record_id = owner.publish(plaintext, parse_policy("(Mechanic)"),
                                  "vc", deployment.client("internal"))
        key_old = deployment.issue_key("alice", ["Mechanic", "Staff"])

        result = deployment.client("admin", caller="admin").request(
            "POST /policy", {"name": "vc", "layers": ["(Staff)", "(Mechanic AND Boss)"]})
        assert result == {"version": 2, "updated": [record_id]}
        assert deployment.ct_store.get(record_id).policy_version == 2
        with pytest.raises(PolicyUnsatisfied):
            Consumer(deployment.mpk, key_old).fetch_and_decrypt(
                record_id, deployment.client("external"))
        key_new = deployment.issue_key("alice", ["Mechanic", "Staff", "Boss"])
        assert Consumer(deployment.mpk, key_new).fetch_and_decrypt(
            record_id, deployment.client("external")) == plaintext

    def test_pass_over_current_records_writes_nothing(self, deployment, monkeypatch):
        import mlabe.exchange.storage as storage

        owner = DataOwner(deployment.mpk, make_rng("do"))
        for i in range(2):
            owner.publish(b"record %d" % i, parse_policy("(Staff)"), "vc",
                          deployment.client("internal"))
        deployment.admin.update_policy("admin", "vc", ["(Boss)"])
        before = {i: deployment.ct_store.get(i) for i in deployment.ct_store.ids()}

        writes: list = []
        real_write = storage.atomic_write
        monkeypatch.setattr(storage, "atomic_write",
                            lambda *args: writes.append(args) or real_write(*args))
        assert deployment.internal.on_policy_update("vc") == []
        assert deployment.client("internal").request(
            "POST /notify", {"policy_name": "vc"}) == {"updated": []}
        assert writes == []
        assert {i: deployment.ct_store.get(i) for i in before} == before

    def test_notify_finishes_a_partial_pass(self, deployment, monkeypatch):
        """A pass cut short by a store failure leaves records behind; the
        next notification re-layers exactly those."""
        owner = DataOwner(deployment.mpk, make_rng("do"))
        for i in range(3):
            owner.publish(b"record %d" % i, parse_policy("(Staff)"), "vc",
                          deployment.client("internal"))
        ids = deployment.ct_store.ids()

        real_update = deployment.ct_store.update
        calls: list[str] = []

        def failing_second(group, record, *args):
            calls.append(record.id)
            if len(calls) == 2:
                raise StoreFailure("disk full")
            return real_update(group, record, *args)
        monkeypatch.setattr(deployment.ct_store, "update", failing_second)
        with pytest.raises(StoreFailure):
            deployment.admin.update_policy("admin", "vc", ["(Boss)"])
        monkeypatch.undo()
        assert [deployment.ct_store.get(i).policy_version for i in ids] == [2, 1, 1]

        result = deployment.client("internal").request(
            "POST /notify", {"policy_name": "vc"})
        assert result == {"updated": ids[1:]}
        assert [deployment.ct_store.get(i).policy_version for i in ids] == [2, 2, 2]

    @staticmethod
    def _three_records_behind(deployment) -> list[str]:
        """Publish three records, then define a new version of their policy
        without running the pass."""
        owner = DataOwner(deployment.mpk, make_rng("do"))
        for i in range(3):
            owner.publish(b"record %d" % i, parse_policy("(Staff)"), "vc",
                          deployment.client("internal"))
        deployment.policy_store.define("vc", ["(Boss)"], deployment.clock)
        return deployment.ct_store.ids()

    def test_pass_fsyncs_each_record_once_and_leaves_no_temp_files(
            self, deployment, monkeypatch):
        """Each re-layered record is fsynced once, then the record
        directory once, after the renames."""
        import os
        import stat

        ids = self._three_records_behind(deployment)
        real_fsync = os.fsync
        fsyncs: list[str] = []

        def recording_fsync(fd):
            fsyncs.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        assert deployment.internal.on_policy_update("vc") == ids
        assert fsyncs == ["file"] * len(ids) + ["dir"]
        assert [deployment.ct_store.get(i).policy_version for i in ids] == [2, 2, 2]
        assert list((deployment.data_dir / "ct").glob("*.tmp")) == []

    def test_fsync_failure_at_commit_keeps_every_record_old(self, deployment, monkeypatch):
        """A pass whose commit cannot fsync renames nothing and removes its
        staged files; the next notification re-layers every record."""
        import os

        ids = self._three_records_behind(deployment)
        before = {i: deployment.ct_store.get(i) for i in ids}

        def failing_fsync(fd):
            raise OSError("simulated I/O error")
        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(StoreFailure):
            deployment.internal.on_policy_update("vc")
        monkeypatch.undo()
        assert {i: deployment.ct_store.get(i) for i in ids} == before
        assert list((deployment.data_dir / "ct").glob("*.tmp")) == []

        result = deployment.client("internal").request(
            "POST /notify", {"policy_name": "vc"})
        assert result == {"updated": ids}
        assert [deployment.ct_store.get(i).policy_version for i in ids] == [2, 2, 2]

    def test_publish_racing_an_update_ends_current(self, deployment, monkeypatch):
        """An update that lands while a publish adds its layers leaves the
        new record at the new version."""
        import mlabe.exchange.services as services

        real_add = services.add_layers
        raced: list[dict] = []

        def add_layers_racing_update(*args, **kwargs):
            layered = real_add(*args, **kwargs)
            if not raced:
                raced.append(deployment.admin.update_policy(
                    "admin", "vc", ["(Staff)", "(Mechanic AND Boss)"]))
            return layered
        monkeypatch.setattr(services, "add_layers", add_layers_racing_update)

        owner = DataOwner(deployment.mpk, make_rng("do"))
        plaintext = b"raced payload " * 10
        record_id = owner.publish(plaintext, parse_policy("(Mechanic)"),
                                  "vc", deployment.client("internal"))
        assert raced == [{"version": 2, "updated": []}]
        assert deployment.ct_store.get(record_id).policy_version == 2
        key_old = deployment.issue_key("alice", ["Mechanic", "Staff"])
        with pytest.raises(PolicyUnsatisfied):
            Consumer(deployment.mpk, key_old).fetch_and_decrypt(
                record_id, deployment.client("external"))
        key_new = deployment.issue_key("alice", ["Mechanic", "Staff", "Boss"])
        assert Consumer(deployment.mpk, key_new).fetch_and_decrypt(
            record_id, deployment.client("external")) == plaintext

    @staticmethod
    def _count_layer_crypto(monkeypatch) -> dict[str, int]:
        """Count the ABE calls the layer code makes from here on."""
        import mlabe.multilayer as multilayer

        calls = {"abe_decrypt": 0, "abe_encrypt": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(multilayer, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(multilayer, name, counting)
        return calls

    @pytest.mark.parametrize("layers, peeled, added", [
        (["(Staff)", "(Boss)"], 1, 1),
        (["(Boss)", "(Mechanic OR Boss)"], 2, 2),
        (["(Staff)", "(Mechanic OR Boss)", "(Boss)"], 0, 1),
        (["(Staff)"], 1, 0),
    ], ids=["outermost-replaced", "innermost-replaced", "layer-appended",
            "outermost-dropped"])
    def test_pass_replaces_only_the_layers_that_changed(
            self, deployment, monkeypatch, layers, peeled, added):
        """A record keeps its longest run of matching inner layers: one
        abe_decrypt per peeled layer, one abe_encrypt per added layer, and
        the same bytes as peeling and re-adding every layer."""
        owner = DataOwner(deployment.mpk, make_rng("do"))
        record_id = owner.publish(b"partly re-layered", parse_policy("(Mechanic)"),
                                  "vc", deployment.client("internal"))
        before = HybridCiphertext.from_bytes(deployment.ct_store.get(record_id).ct)
        calls = self._count_layer_crypto(monkeypatch)
        result = deployment.client("admin", caller="admin").request(
            "POST /policy", {"name": "vc", "layers": layers})
        assert result == {"version": 2, "updated": [record_id]}
        assert calls == {"abe_decrypt": peeled, "abe_encrypt": added}
        monkeypatch.undo()
        full = update_outer_layers(
            deployment.mpk, deployment.internal._engine_key, before.ct_abe, keep=0,
            new_policies=[augment_for_engine(parse_policy(t)) for t in layers])
        after = HybridCiphertext.from_bytes(deployment.ct_store.get(record_id).ct)
        assert after.ct_abe.to_bytes() == full.to_bytes()
        assert after.ct_aes == before.ct_aes

    def test_redefinition_changing_no_layer_keeps_the_bytes(self, deployment, monkeypatch):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        record_id = owner.publish(b"unchanged layers", parse_policy("(Mechanic)"),
                                  "vc", deployment.client("internal"))
        before = deployment.ct_store.get(record_id)
        calls = self._count_layer_crypto(monkeypatch)
        result = deployment.admin.update_policy(
            "admin", "vc", ["(Staff)", "(Mechanic OR Boss)"])
        assert result == {"version": 2, "updated": [record_id]}
        assert calls == {"abe_decrypt": 0, "abe_encrypt": 0}
        after = deployment.ct_store.get(record_id)
        assert (after.ct, after.policy_version) == (before.ct, 2)

    def test_update_requires_existing_policy(self, deployment):
        with pytest.raises(NotFound):
            deployment.admin.update_policy("admin", "ghost", ["(A)"])

    def test_admin_gate(self, deployment):
        with pytest.raises(Unauthorized):
            deployment.admin.update_policy("alice", "vc", ["(A)"])


class TestDamagedStoreFiles:
    """A store file with a field of the wrong type, or one that names
    another record or policy, is refused with StoreFailure before any
    service computes with it."""

    def test_policy_layers_not_a_list_refuse_a_publish(self, deployment):
        (path,) = (deployment.data_dir / "policies").glob("*.json")
        path.write_bytes(json.dumps(dict(json.loads(path.read_bytes()), layers=5)).encode())
        owner = DataOwner(deployment.mpk, make_rng("do"))
        with pytest.raises(StoreFailure, match="policy vc corrupt"):
            owner.publish(b"data", parse_policy("(Staff)"), "vc",
                          deployment.client("internal"))

    def test_record_version_as_a_string_refuses_a_policy_update(self, deployment):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        record_id = owner.publish(b"data", parse_policy("(Staff)"), "vc",
                                  deployment.client("internal"))
        path = deployment.data_dir / "ct" / f"{record_id}.json"
        path.write_bytes(encode_frame(dict(decode_frame(path.read_bytes()),
                                           policy_version="1")))
        with pytest.raises(StoreFailure, match=f"record {record_id} corrupt"):
            deployment.client("admin", caller="admin").request(
                "POST /policy", {"name": "vc", "layers": ["(Boss)"]})

    def test_record_copied_over_another_is_refused(self, deployment):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        first, second = (owner.publish(data, parse_policy("(Staff)"), "vc",
                                       deployment.client("internal"))
                         for data in (b"first", b"second"))
        ct_dir = deployment.data_dir / "ct"
        shutil.copyfile(ct_dir / f"{first}.json", ct_dir / f"{second}.json")
        with pytest.raises(StoreFailure, match=f"record {second} corrupt"):
            deployment.client("external").request("GET /ct/{id}", {"id": second})
        with pytest.raises(StoreFailure, match=f"record {second} corrupt"):
            deployment.client("admin", caller="admin").request(
                "POST /policy", {"name": "vc", "layers": ["(Boss)"]})

    def test_policy_copied_over_another_refuses_a_publish(self, deployment):
        policies = deployment.data_dir / "policies"
        (vc_path,) = policies.glob("*.json")
        deployment.client("admin", caller="admin").request(
            "POST /policy", {"name": "other", "layers": ["(Boss)"]})
        (other_path,) = set(policies.glob("*.json")) - {vc_path}
        shutil.copyfile(other_path, vc_path)
        owner = DataOwner(deployment.mpk, make_rng("do"))
        with pytest.raises(StoreFailure, match="policy vc corrupt"):
            owner.publish(b"data", parse_policy("(Staff)"), "vc",
                          deployment.client("internal"))


class TestTimeGate:
    def test_no_incident_means_any_key_passes(self, deployment):
        assert deployment.external.time_gate_policy().canonical() == "(T_SK > 0)"

    def test_returned_layer_count(self, deployment):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        record_id = owner.publish(b"data " * 20, parse_policy("(Staff)"),
                                  "vc", deployment.client("internal"))
        stored = deployment.ct_store.get(record_id)
        _, n_layers = deployment.external.request(record_id)
        assert n_layers == stored.n_layers + 1

    def test_store_not_modified_by_requests(self, deployment):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        record_id = owner.publish(b"data " * 20, parse_policy("(Staff)"),
                                  "vc", deployment.client("internal"))
        before = deployment.ct_store.get(record_id).ct
        deployment.external.request(record_id)
        deployment.external.request(record_id)
        assert deployment.ct_store.get(record_id).ct == before

    def test_exact_boundary(self, deployment):
        """Keys stamped exactly at the incident fail the strict comparison;
        one second later they pass."""
        owner = DataOwner(deployment.mpk, make_rng("do"))
        plaintext = b"gated payload " * 8
        record_id = owner.publish(plaintext, parse_policy("(Mechanic)"),
                                  "vc", deployment.client("internal"))
        incident_time = deployment.clock.now()
        at_incident = deployment.issue_key("alice", ["Mechanic", "Staff", "Boss"])
        t_incident = deployment.admin.record_incident("admin", "breach")
        assert t_incident == incident_time
        assert at_incident.attrs.issuance_timestamp == t_incident

        with pytest.raises(PolicyUnsatisfied):
            Consumer(deployment.mpk, at_incident).fetch_and_decrypt(
                record_id, deployment.client("external"))

        deployment.clock.set(t_incident + 1)
        after = deployment.issue_key("alice", ["Mechanic", "Staff", "Boss"])
        assert after.attrs.issuance_timestamp == t_incident + 1
        assert Consumer(deployment.mpk, after).fetch_and_decrypt(
            record_id, deployment.client("external")) == plaintext

    def test_incident_from_another_deployment_gates_fetches(self, tmp_path):
        clock = ManualClock(1_000)
        first = Deployment(tmp_path / "dep", "pw", clock=clock, allowlist=ALLOW,
                           rng=make_rng("first"))
        first.admin.define_policy("admin", "vc", ["(Staff)"])
        second = Deployment(tmp_path / "dep", "pw", clock=clock)
        owner = DataOwner(first.mpk, make_rng("do"))
        record_id = owner.publish(b"gated " * 8, parse_policy("(Mechanic)"),
                                  "vc", first.client("internal"))
        key = first.issue_key("alice", ["Mechanic", "Staff"])
        clock.advance(5)
        second.admin.record_incident("admin", "seen by the first deployment")
        assert first.event_log.current == clock.now()
        with pytest.raises(PolicyUnsatisfied):
            Consumer(first.mpk, key).fetch_and_decrypt(
                record_id, first.client("external"))

    def test_incident_requires_admin(self, deployment):
        with pytest.raises(Unauthorized):
            deployment.admin.record_incident("alice", "nope")

    def test_incidents_advance(self, deployment):
        t1 = deployment.admin.record_incident("admin", "one")
        t2 = deployment.admin.record_incident("admin", "two")
        assert t2 > t1
        assert deployment.event_log.current == t2

    def test_per_request_gate_concurrent(self, deployment):
        owner = DataOwner(deployment.mpk, make_rng("do"))
        plaintext = b"concurrent " * 16
        record_id = owner.publish(plaintext, parse_policy("(Staff)"),
                                  "vc", deployment.client("internal"))
        before = deployment.ct_store.get(record_id).ct
        key = deployment.issue_key("alice", ["Mechanic", "Staff", "Boss"])
        results: list[bytes] = []
        errors: list[Exception] = []

        def fetch():
            try:
                results.append(Consumer(deployment.mpk, key).fetch_and_decrypt(
                    record_id, deployment.client("external")))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == [plaintext] * 8
        assert deployment.ct_store.get(record_id).ct == before


class TestWire:
    def test_full_flow_over_tcp(self, deployment):
        tap = TransportTap()
        plaintext = b"wire-borne secret payload " * 16
        with deployment.serve(tap=tap) as served:
            aa = served.client("aa", caller="alice")
            from mlabe.abe import MasterPublicKey, UserSecretKey
            import base64

            mpk = MasterPublicKey.from_bytes(
                base64.b64decode(aa.request("GET /mpk")["mpk_b64"]))
            assert mpk == deployment.mpk
            key_b64 = aa.request("POST /keygen",
                                 {"attributes": ["Mechanic", "Staff"]})["key_b64"]
            key = UserSecretKey.from_bytes(base64.b64decode(key_b64))

            owner = DataOwner(mpk, make_rng("wire-do"))
            record_id = owner.publish(plaintext, parse_policy("(Mechanic AND Staff)"),
                                      "vc", served.client("internal", caller="do1"))
            consumer = Consumer(mpk, key)
            recovered = consumer.fetch_and_decrypt(
                record_id, served.client("external", caller="alice"))
            assert recovered == plaintext

            health = served.client("aa").request("GET /health")
            assert health["status"] == "ok"
        assert len(tap.frames()) >= 8

    @pytest.fixture(params=["served", "local"])
    def client(self, request, deployment):
        """``client(name, caller)`` over TCP, or in process through the
        same dispatch and error mapping."""
        if request.param == "local":
            yield deployment.client
        else:
            with deployment.serve() as served:
                yield served.client

    def test_unknown_op(self, client):
        with pytest.raises(NotFound):
            client("aa").request("GET /nope")

    def test_remote_errors_rehydrate(self, client):
        with pytest.raises(Unauthorized):
            client("aa", caller="mallory").request(
                "POST /keygen", {"attributes": ["Staff"]})

    def test_policy_syntax_error_reaches_the_caller(self, client):
        with pytest.raises(PolicySyntaxError, match="at position"):
            client("admin", caller="admin").request(
                "POST /policy", {"name": "vc", "layers": ["(A AND"]})

    @pytest.mark.parametrize("name", sorted(ERROR_CLASSES))
    def test_every_error_class_reaches_the_caller(self, raiser, name):
        with pytest.raises(ERROR_CLASSES[name]) as caught:
            raiser.request("POST /raise", {"name": name})
        assert type(caught.value) is ERROR_CLASSES[name]
        assert str(caught.value) == "boom"

    @staticmethod
    def _assert_error_frame_then_serving(body: bytes) -> None:
        """Send one hand-built frame body; the server must answer with an
        ExchangeError frame and keep serving."""
        server = ServiceServer("probe", {}).start()
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(_u32(len(body)) + body)
                reply = _read_reply_header(sock)
            assert reply["ok"] is False
            assert reply["error"] == "ExchangeError"
            health = ServiceClient(server.address).request("GET /health")
            assert health["status"] == "ok"
        finally:
            server.stop()

    @pytest.mark.parametrize("body", [b"5", b"[1]", b'"s"', b"{not json", b"\xff\xfe"])
    def test_non_object_frame_gets_error_frame(self, body):
        """A whole frame whose header is not a UTF-8 JSON object is answered
        with an ExchangeError frame, and the service keeps serving."""
        self._assert_error_frame_then_serving(_body(body))

    @pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES.keys())
    def test_malformed_frame_gets_error_frame(self, body):
        self._assert_error_frame_then_serving(body)

    @staticmethod
    def _answer_once(body: bytes, expected: type[Exception],
                     monkeypatch: pytest.MonkeyPatch) -> Exception:
        """A listener that reads one request frame and answers with `body`;
        returns what the client raised."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def answer():
                conn, _ = listener.accept()
                with conn:
                    (length,) = struct.unpack(">I", conn.recv(4, socket.MSG_WAITALL))
                    conn.recv(length, socket.MSG_WAITALL)
                    conn.sendall(_u32(len(body)) + body)
            thread = threading.Thread(target=answer)
            thread.start()
            monkeypatch.setattr(transport, "CONNECT_ATTEMPTS", 1)
            with pytest.raises(expected) as caught:
                ServiceClient(listener.getsockname()).request("GET /health")
            thread.join(timeout=5)
            assert not thread.is_alive()
        return caught.value

    @pytest.mark.parametrize("body", [b"[1]", b'"s"'])
    def test_non_object_response_frame_raises(self, body, monkeypatch):
        """A response frame whose header is not a JSON object fails closed
        with an ExchangeError, not a raw Python error."""
        caught = self._answer_once(_body(body), ExchangeError, monkeypatch)
        assert type(caught) is ExchangeError

    @pytest.mark.parametrize("body", [MALFORMED_BODIES[k] for k in (
        "truncated-header-length", "section-past-frame-end", "marker-out-of-range",
        "old-format-bare-json")])
    def test_malformed_response_frame_is_unreachable(self, body, monkeypatch):
        """Any other malformed response frame reads as a failure after the
        request was sent, as an unparseable response always has."""
        self._answer_once(body, EngineUnreachable, monkeypatch)

    @pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES.keys())
    def test_codec_refuses_malformed_body_with_value_error(self, body):
        with pytest.raises(ValueError):
            decode_frame(body)

    def test_codec_carries_bytes_as_sections(self):
        message = {"op": "x", "params": {"ct1": b"\x00\xff" * 3, "n": 2,
                                         "list": [b"", {"inner": b"\x01"}, "text"]}}
        body = encode_frame(message)
        assert decode_frame(body) == message
        (header_len,) = struct.unpack_from(">I", body)
        assert json.loads(body[4:4 + header_len]) == {
            "op": "x", "params": {"ct1": {"$section": 0}, "n": 2,
                                  "list": [{"$section": 1}, {"inner": {"$section": 2}}, "text"]}}
        assert body[4 + header_len:] == _u32(6) + b"\x00\xff" * 3 + _u32(0) + _u32(1) + b"\x01"

    def test_scanner_finds_secrets_in_sections_and_base64_strings(self):
        import base64

        secret = b"\x00secret key bytes\xff"
        header = b'{"op": "POST /publish", "params": {"ct1": {"$section": 0}}}'
        in_section = _body(header, b"before" + secret + b"after")
        hex_in_section = _body(header, secret.hex().encode())
        b64_header = json.dumps({"result": {"key_b64": base64.b64encode(secret).decode()}})
        clean = _body(header, b"before" + secret[:-1] + b"after")
        for body in (in_section, hex_in_section, _body(b64_header.encode()),
                     b64_header.encode()):
            assert frames_contain_secret([("client->", body)], secret)
        assert not frames_contain_secret([("client->", clean)], secret)

    def test_idle_connection_times_out(self, monkeypatch):
        """The server drops a connection that sends nothing before the
        deadline, and keeps serving."""
        monkeypatch.setattr(transport, "CONNECTION_TIMEOUT_S", 0.2)
        server = ServiceServer("probe", {}).start()
        try:
            with socket.create_connection(server.address, timeout=5) as idle:
                assert idle.recv(1) == b""
            health = ServiceClient(server.address).request("GET /health")
            assert health["status"] == "ok"
        finally:
            server.stop()

    def test_concurrent_served_round_trips(self, deployment):
        """Three threads each publish and fetch four payloads over TCP."""
        key = deployment.issue_key("alice", ["Mechanic", "Staff", "Boss"])
        policy = parse_policy("(Mechanic AND Staff)")

        with deployment.serve() as served:
            def round_trips(index: int) -> list[bool]:
                owner = DataOwner(deployment.mpk, make_rng(f"concurrent-{index}"))
                internal = served.client("internal", caller="do1")
                external = served.client("external", caller="alice")
                consumer = Consumer(deployment.mpk, key)
                payloads = [f"payload-{index}-{trip} ".encode() * 8 for trip in range(4)]
                return [consumer.fetch_and_decrypt(
                            owner.publish(payload, policy, "vc", internal), external) == payload
                        for payload in payloads]

            with ThreadPoolExecutor(max_workers=3) as pool:
                results = [ok for trips in pool.map(round_trips, range(3), timeout=60)
                           for ok in trips]
        assert results == [True] * 12

    def test_large_round_trip_carries_ciphertext_in_raw_sections(self, deployment):
        """A 160 KiB payload is published and fetched over TCP. The sealed
        payload crosses as raw bytes in a section of each frame, and
        neither the plaintext nor the symmetric key crosses at all."""
        tap = TransportTap()
        plaintext = make_rng("bulk-payload")(160 * 1024)
        drawn: list[bytes] = []
        inner_rng = make_rng("bulk-producer")

        def recording_rng(n: int) -> bytes:
            drawn.append(inner_rng(n))
            return drawn[-1]

        with deployment.serve(tap=tap) as served:
            owner = DataOwner(deployment.mpk, recording_rng)
            record_id = owner.publish(plaintext, parse_policy("(Staff)"), "vc",
                                      served.client("internal", caller="do1"))
            key = deployment.issue_key("alice", ["Mechanic", "Staff"])
            recovered = Consumer(deployment.mpk, key).fetch_and_decrypt(
                record_id, served.client("external", caller="alice"))
        assert recovered == plaintext
        frames = tap.frames()
        sealed = HybridCiphertext.from_bytes(
            deployment.ct_store.get(record_id).ct).ct_aes.body
        assert frames_contain_secret(frames, sealed[:64])
        assert not frames_contain_secret(frames, plaintext)
        assert not frames_contain_secret(frames, drawn[0])
        # client-> publish request, client<- publish reply, then the same for the fetch
        sent = [body for direction, body in frames if direction.startswith("client")]
        assert len(sent) == 4
        for body, (outer, field) in ((sent[0], ("params", "ct1")),
                                     (sent[3], ("result", "ct3"))):
            (header_len,) = struct.unpack_from(">I", body)
            assert sealed[:64] not in body[:4 + header_len]
            assert sealed[:64] in decode_frame(body)[outer][field]
            assert len(body) < len(plaintext) + 4096  # no base64 inflation

    def test_confidentiality_of_captures(self, deployment):
        """No frame on the wire may carry the payload or the symmetric key,
        raw or under the transport's base64 encoding."""
        tap = TransportTap()
        plaintext = b"super-secret production parameters " * 8
        drawn: list[bytes] = []
        inner_rng = make_rng("leaky")

        def recording_rng(n: int) -> bytes:
            out = inner_rng(n)
            drawn.append(out)
            return out

        with deployment.serve(tap=tap) as served:
            owner = DataOwner(deployment.mpk, recording_rng)
            record_id = owner.publish(plaintext, parse_policy("(Staff)"), "vc",
                                      served.client("internal", caller="do1"))
            key = deployment.issue_key("alice", ["Mechanic", "Staff"])
            recovered = Consumer(deployment.mpk, key).fetch_and_decrypt(
                record_id, served.client("external", caller="alice"))
        assert recovered == plaintext
        sym_key = drawn[0]
        frames = tap.frames()
        assert frames, "expected captured traffic"
        assert not frames_contain_secret(frames, plaintext)
        assert not frames_contain_secret(frames, sym_key)
        # sanity: the scanner does find bytes that legitimately transit
        record = deployment.ct_store.get(record_id)
        sealed_payload = HybridCiphertext.from_bytes(record.ct).ct_aes.body
        assert frames_contain_secret(frames, sealed_payload[:64])

    def test_store_holds_no_secret(self, deployment):
        """Publish, update and fetch over TCP, then scan every record file
        as the wire scan reads a frame body: neither the payload nor the
        symmetric key is stored, while the sealed payload, in the record's
        section, is found."""
        plaintext = make_rng("stored-payload")(16 * 1024)
        drawn: list[bytes] = []
        inner_rng = make_rng("stored-producer")

        def recording_rng(n: int) -> bytes:
            drawn.append(inner_rng(n))
            return drawn[-1]

        with deployment.serve() as served:
            owner = DataOwner(deployment.mpk, recording_rng)
            record_id = owner.publish(plaintext, parse_policy("(Staff)"), "vc",
                                      served.client("internal", caller="do1"))
            result = served.client("admin", caller="admin").request(
                "POST /policy/update", {"name": "vc", "layers": ["(Staff)", "(Mechanic)"]})
            assert result["updated"] == [record_id]
            key = deployment.issue_key("alice", ["Mechanic", "Staff"])
            recovered = Consumer(deployment.mpk, key).fetch_and_decrypt(
                record_id, served.client("external", caller="alice"))
        assert recovered == plaintext
        stored = [("store", path.read_bytes())
                  for path in (deployment.data_dir / "ct").glob("*.json")]
        assert len(stored) == 1
        sealed = HybridCiphertext.from_bytes(deployment.ct_store.get(record_id).ct).ct_aes.body
        assert frames_contain_secret(stored, sealed[:64])
        assert not frames_contain_secret(stored, plaintext)
        assert not frames_contain_secret(stored, drawn[0])


@pytest.fixture()
def counted_server(monkeypatch):
    """A served route table with an echo route; ``accepted`` counts the
    connections the server accepts and ``delivered`` the echo requests
    it runs."""
    delivered: list[dict] = []

    def echo(params: dict, caller: str) -> dict:
        delivered.append(params)
        return params
    server = ServiceServer("counted", {"POST /echo": echo})
    server.accepted = 0
    server.delivered = delivered
    get_request = server._server.get_request

    def counting_get_request():
        connection = get_request()
        server.accepted += 1
        return connection
    monkeypatch.setattr(server._server, "get_request", counting_get_request)
    server.start()
    try:
        yield server
    finally:
        server.stop()


class TestConnections:
    """Long-lived connections: reuse, reconnects, the whole-frame deadline
    and stopping with connections open."""

    def test_requests_on_one_client_share_one_connection(self, counted_server):
        client = ServiceClient(counted_server.address)
        try:
            replies = [client.request("POST /echo", {"n": n}) for n in range(5)]
        finally:
            client.close()
        assert replies == [{"n": n} for n in range(5)]
        assert counted_server.accepted == 1

    def test_request_after_the_server_idle_close_reconnects(self, counted_server, monkeypatch):
        """The server closes the connection at its idle deadline; the next
        request sees the close before it sends, and is delivered once."""
        monkeypatch.setattr(transport, "CONNECTION_TIMEOUT_S", 0.2)
        client = ServiceClient(counted_server.address)
        try:
            client.request("POST /echo", {"n": 1})
            # The server handler already took its 0.2 s idle deadline; the
            # client's own idle limit is long again, so only the close shows.
            monkeypatch.setattr(transport, "CONNECTION_TIMEOUT_S", 10.0)
            time.sleep(0.6)
            assert client.request("POST /echo", {"n": 2}) == {"n": 2}
        finally:
            client.close()
        assert counted_server.accepted == 2
        assert counted_server.delivered == [{"n": 1}, {"n": 2}]

    def test_connection_idle_past_half_the_deadline_is_replaced(self, counted_server, monkeypatch):
        monkeypatch.setattr(transport, "CONNECTION_TIMEOUT_S", 1.0)
        client = ServiceClient(counted_server.address)
        try:
            client.request("POST /echo", {"n": 1})
            time.sleep(0.6)
            client.request("POST /echo", {"n": 2})
        finally:
            client.close()
        assert counted_server.accepted == 2
        assert counted_server.delivered == [{"n": 1}, {"n": 2}]

    def test_stop_ends_an_idle_open_connection(self, monkeypatch):
        """stop() returns promptly, and no request is served on a
        connection opened before it."""
        monkeypatch.setattr(transport, "CONNECT_BACKOFF_S", 0.01)
        server = ServiceServer("probe", {}).start()
        client = ServiceClient(server.address)
        try:
            client.request("GET /health")
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 1.0
            with pytest.raises(EngineUnreachable, match="unreachable after"):
                client.request("GET /health")
        finally:
            client.close()

    def test_threads_sharing_a_client_get_their_own_responses(self, counted_server):
        client = ServiceClient(counted_server.address)

        def echo_all(thread: int) -> bool:
            return all(client.request("POST /echo", {"t": thread, "n": n}) == {"t": thread, "n": n}
                       for n in range(40))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                results = list(pool.map(echo_all, range(3), timeout=60))
        finally:
            sys.setswitchinterval(interval)
            client.close()
        assert results == [True] * 3
        assert counted_server.accepted == 1

    def test_dropped_client_closes_its_connection_without_a_warning(self, counted_server):
        client = ServiceClient(counted_server.address)
        client.request("POST /echo", {})
        alive = weakref.ref(client)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del client
            gc.collect()
        assert alive() is None
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_malformed_frames_keep_the_connection_serving(self):
        server = ServiceServer("probe", {}).start()
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                for body in (MALFORMED_BODIES["marker-out-of-range"], _body(_HEALTH)):
                    sock.sendall(_u32(len(body)) + body)
                replies = [_read_reply_header(sock), _read_reply_header(sock)]
        finally:
            server.stop()
        assert replies[0]["error"] == "ExchangeError"
        assert replies[1]["result"]["status"] == "ok"

    def test_trickling_peer_is_dropped_at_the_frame_deadline(self, monkeypatch):
        """A peer that sends a frame one byte at a time, each within the
        idle deadline, is dropped once the whole frame is late."""
        monkeypatch.setattr(transport, "CONNECTION_TIMEOUT_S", 0.3)
        server = ServiceServer("probe", {}).start()
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(_u32(100))
                start = time.monotonic()
                closed = False
                while not closed and time.monotonic() - start < 3.0:
                    time.sleep(0.1)
                    try:
                        sock.send(b"x")
                        closed = bool(select.select([sock], [], [], 0)[0]) and sock.recv(1) == b""
                    except (BrokenPipeError, ConnectionResetError):
                        closed = True
                elapsed = time.monotonic() - start
            assert closed
            assert elapsed < 1.2
            assert ServiceClient(server.address).request("GET /health")["status"] == "ok"
        finally:
            server.stop()

    def test_listen_backlog(self):
        server = ServiceServer("probe", {})
        try:
            assert server._server.request_queue_size == transport.LISTEN_BACKLOG >= 128
        finally:
            server._server.server_close()
