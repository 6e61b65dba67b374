"""The exchange roles: authority, engines, admin, producer, consumer.

Producers encrypt locally and hand the result to the internal engine,
which adds the deployment's updatable policy layers and stores the
ciphertext. Each stored record carries the version of the policy it was
layered under. Defining a new version of a policy ends with one re-layer
pass that replaces the layers of every record behind that version,
without touching the payload or involving the producer; the same pass
finishes a publish that raced the definition and, through
``POST /notify``, an earlier pass that failed part-way. Passes are
serialised across every deployment that shares the data directory, in
one process or several. Consumers fetch through the external engine,
which wraps a per-request time-gate layer requiring a key newer than the
last recorded security incident.

A deployment opens in one step under an exclusive lock on
``.setup.lock`` in its data directory: it removes a killed opener's
temporary files (only openers write ``config.json`` and ``aa/``), merges
its allowlist and admin ids into ``config.json``, then loads the
authority's master pair, or creates it if the directory has none.
Deployments opening one directory at once, in one process or several,
therefore share one master pair and keep every allowlist.

Every stored (updatable) layer policy is augmented to
``(AP_i OR ENGINE_UPDATE)`` and the authority issues the internal engine
a key carrying exactly the ENGINE_UPDATE attribute; that is what lets the
engine peel stale layers during an update while remaining unable to open
the producer's base layer.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path
from typing import Callable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.scrypt import Scrypt

from ..abe import (
    MasterKeyPair,
    MasterPublicKey,
    MasterSecretKey,
    Rng,
    UserSecretKey,
    keygen,
    public_key,
    setup,
)
from ..containers import HybridCiphertext
from ..errors import MalformedCiphertext, StoreFailure, Unauthorized
from ..hybrid import hybrid_encrypt
from ..multilayer import (
    ENGINE_UPDATE_ATTRIBUTE,
    add_layers,
    augment_for_engine,
    layered_decrypt,
    update_outer_layers,
)
from ..policy import (
    AccessPolicy,
    AttributeSet,
    Cmp,
    TIMESTAMP_ATTRIBUTE,
    parse_policy,
)
from .storage import (
    CtRecord,
    CtStore,
    LogicalClock,
    PolicyStore,
    SecurityEventLog,
    SystemClock,
    _check_types,
    _exclusive,
    atomic_write,
)
from .transport import LocalClient, ServiceClient, ServiceServer, TransportTap

ENGINE_REQUESTER_ID = "internal-ct-engine"

_SCRYPT_N = 2**14
_SCRYPT_R = 8
_SCRYPT_P = 1


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _seal_key(passphrase: bytes, salt: bytes) -> bytes:
    """The AES key that seals the master secret under the passphrase."""
    kdf = Scrypt(salt=salt, length=32, n=_SCRYPT_N, r=_SCRYPT_R, p=_SCRYPT_P)
    return kdf.derive(passphrase)


# ---------------------------------------------------------------------------
# Attribute Authority
# ---------------------------------------------------------------------------

class AttributeAuthority:
    """Holds the master secret; issues timestamped user keys.

    The master secret never leaves this object: it is sealed under an
    operator passphrase in ``master.enc`` and only key material derived
    from it (user keys, public parameters) is ever returned. The
    constructor loads the master pair, or creates it when the directory
    has none: it writes the public parameters to ``mpk.bin``, an export
    for users that no code reads, then ``master.enc``, whose write
    commits the pair. A load reads ``master.enc`` alone and derives the
    public parameters, so no crash can leave a torn pair. Openers of one
    directory must be serialised, as ``Deployment`` does with its
    start-up lock.
    """

    def __init__(self, data_dir: Path, passphrase: str, clock: LogicalClock,
                 allowlist: dict[str, list[str]], rng: Rng = os.urandom):
        self._dir = Path(data_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._allowlist = {k: set(v) for k, v in allowlist.items()}
        self._rng = rng
        self.created = False  # whether this open made the pair
        self._pair = self._load_or_create_pair(passphrase.encode("utf-8"))

    def _load_or_create_pair(self, passphrase: bytes) -> MasterKeyPair:
        """Unseal ``master.enc``, or create, export and seal a fresh pair;
        either way scrypt runs once."""
        sealed_path = self._dir / "master.enc"
        try:
            blob = sealed_path.read_bytes()
        except FileNotFoundError:
            pair = setup(self._rng)
            salt = self._rng(16)
            nonce = self._rng(12)
            sealed = AESGCM(_seal_key(passphrase, salt)).encrypt(
                nonce, pair.msk.to_bytes(), b"")
            atomic_write(self._dir / "mpk.bin", pair.mpk.to_bytes())
            atomic_write(sealed_path, salt + nonce + sealed)
            self.created = True
            return pair
        if len(blob) < 16 + 12 + 16:  # salt, nonce and the AES-GCM tag
            raise StoreFailure(f"sealed master key {sealed_path} truncated: {len(blob)} bytes")
        salt, nonce, sealed = blob[:16], blob[16:28], blob[28:]
        try:
            msk_bytes = AESGCM(_seal_key(passphrase, salt)).decrypt(nonce, sealed, b"")
        except InvalidTag:
            raise Unauthorized("master key passphrase is wrong") from None
        msk = MasterSecretKey.from_bytes(msk_bytes)
        return MasterKeyPair(mpk=public_key(msk), msk=msk)

    @property
    def mpk(self) -> MasterPublicKey:
        return self._pair.mpk

    def issue_key(self, requester_id: str, attributes: list[str]) -> bytes:
        """Issue a user key: allowlisted attributes plus the issuance time."""
        allowed = self._allowlist.get(requester_id)
        if allowed is None:
            raise Unauthorized(f"unknown requester {requester_id!r}")
        requested = set(attributes)
        if TIMESTAMP_ATTRIBUTE in requested:
            raise Unauthorized(f"{TIMESTAMP_ATTRIBUTE} is authority-assigned")
        if not requested <= allowed:
            raise Unauthorized(
                f"requester {requester_id!r} may not hold {sorted(requested - allowed)}")
        t_sk = self._clock.now()
        attrs = AttributeSet(requested, {TIMESTAMP_ATTRIBUTE: t_sk})
        key = keygen(self._pair.msk, attrs, self._rng(32))
        self._log_issuance(requester_id, sorted(requested), t_sk)
        return key.to_bytes()

    def _log_issuance(self, requester_id: str, attributes: list[str], t_sk: int) -> None:
        line = json.dumps({"requester": requester_id, "attributes": attributes,
                           "t_sk": t_sk}, sort_keys=True) + "\n"
        with open(self._dir / "issuance.log", "a", encoding="utf-8") as handle:
            handle.write(line)

    def routes(self) -> dict:
        return {
            "GET /mpk": lambda params, caller: {"mpk_b64": _b64(self.mpk.to_bytes())},
            "POST /keygen": lambda params, caller: {
                "key_b64": _b64(self.issue_key(caller, params.get("attributes", [])))},
        }


# ---------------------------------------------------------------------------
# Internal CT Engine
# ---------------------------------------------------------------------------

class InternalCtEngine:
    """Adds and maintains the updatable policy layers; owns the CT store.

    ``on_policy_update`` is the one re-layer pass: it brings every record
    that is behind its policy's current version up to date, and leaves
    current records alone. Passes hold the store's pass lock, so they run
    one at a time across every deployment sharing the data directory; a
    later pass sees what an earlier one wrote, and running a pass again
    is harmless. A policy definition, a retried notification and a
    publish that raced an update all converge through it.
    """

    def __init__(self, ct_store: CtStore, policy_store: PolicyStore,
                 mpk: MasterPublicKey, engine_key: UserSecretKey,
                 clock: LogicalClock):
        self._ct_store = ct_store
        self._policy_store = policy_store
        self._mpk = mpk
        self._engine_key = engine_key
        self._clock = clock

    def _stored_layer_policies(self, record_name: str) -> tuple[list[AccessPolicy], int]:
        record = self._policy_store.get(record_name)
        policies = [augment_for_engine(parse_policy(text)) for text in record.layers]
        return policies, record.version

    def publish(self, ct1_bytes: bytes, policy_name: str) -> CtRecord:
        """Wrap CT_1, which must carry no layer, in the deployment's layers
        and store the result.

        If the policy moved while the layers were added, the record is
        behind; the re-layer pass brings it up to date before returning.
        """
        ct1 = HybridCiphertext.from_bytes(ct1_bytes)
        if ct1.n_layers:
            raise MalformedCiphertext(f"CT_1 must carry zero layers, found {ct1.n_layers}")
        policies, version = self._stored_layer_policies(policy_name)
        layered = add_layers(self._mpk, ct1.ct_abe, policies) if policies else ct1.ct_abe
        ct2 = HybridCiphertext(ct_aes=ct1.ct_aes, ct_abe=layered)
        record = self._ct_store.put_new(
            ct2.to_bytes(), ct2.n_layers, policy_name, version, self._clock)
        if self._policy_store.get(policy_name).version != version:
            self.on_policy_update(policy_name)
            record = self._ct_store.get(record.id)
        return record

    def on_policy_update(self, policy_name: str) -> list[str]:
        """Re-layer the records under the named policy whose stored version
        is below its current one; returns their ids.

        A record keeps its longest run of inner layers equal to the new
        ones and only the rest is replaced, with the bytes of a full
        re-layer; a record whose layers all match only takes the version.

        Each record is re-layered as the store's scan reads it, so the pass
        holds one record and its replacement at a time, not the whole
        policy. The replacements stream into one rewrite of the policy's
        segment, which is fsynced and renamed over it when the pass lock
        is released, before this returns. If the pass fails part-way, the
        records re-layered before the failure are committed, no further
        record is read, and the error propagates; if that commit fails,
        none is.
        """
        with self._ct_store.pass_lock() as group:
            policies, version = self._stored_layer_policies(policy_name)
            texts = [policy.canonical() for policy in policies]
            updated = []

            def relayer(record: CtRecord) -> None:
                if record.policy_version >= version:
                    return
                ct = HybridCiphertext.from_bytes(record.ct)
                keep = 0
                for stored, text in zip(ct.ct_abe.layer_policies, texts):
                    if stored != text:
                        break
                    keep += 1
                relayered = update_outer_layers(
                    self._mpk, self._engine_key, ct.ct_abe, keep=keep,
                    new_policies=policies[keep:])
                new_ct = HybridCiphertext(ct_aes=ct.ct_aes, ct_abe=relayered)
                self._ct_store.update(group, record, new_ct.to_bytes(),
                                      new_ct.n_layers, version, self._clock)
                updated.append(record.id)

            self._ct_store.by_policy(policy_name, relayer)
            return updated

    def routes(self) -> dict:
        def publish(params: dict, caller: str) -> dict:
            record = self.publish(params["ct1"], params["policy_name"])
            return {"id": record.id, "n_layers": record.n_layers}

        def notify(params: dict, caller: str) -> dict:
            return {"updated": self.on_policy_update(params["policy_name"])}

        return {"POST /publish": publish, "POST /notify": notify}


# ---------------------------------------------------------------------------
# External CT Engine
# ---------------------------------------------------------------------------

class ExternalCtEngine:
    """Serves consumer fetches, adding the per-request time-gate layer."""

    def __init__(self, ct_store: CtStore, event_log: SecurityEventLog,
                 mpk: MasterPublicKey):
        self._ct_store = ct_store
        self._event_log = event_log
        self._mpk = mpk
        self._gate = AccessPolicy(Cmp(TIMESTAMP_ATTRIBUTE, ">", 0))

    def time_gate_policy(self) -> AccessPolicy:
        """(T_SK > T_incident); one object serves until T_incident moves."""
        current, gate = self._event_log.current, self._gate
        if gate.root.value != current:
            gate = self._gate = AccessPolicy(Cmp(TIMESTAMP_ATTRIBUTE, ">", current))
        return gate

    def request(self, record_id: str) -> tuple[bytes, int]:
        """Return CT_3 bytes and its layer count; the store is not touched."""
        record = self._ct_store.get(record_id)
        ct2 = HybridCiphertext.from_bytes(record.ct)
        gated = add_layers(self._mpk, ct2.ct_abe, [self.time_gate_policy()])
        ct3 = HybridCiphertext(ct_aes=ct2.ct_aes, ct_abe=gated)
        return ct3.to_bytes(), ct3.n_layers

    def routes(self) -> dict:
        def fetch(params: dict, caller: str) -> dict:
            ct3_bytes, n_layers = self.request(params["id"])
            return {"ct3": ct3_bytes, "n_layers": n_layers}

        return {"GET /ct/{id}": fetch}


# ---------------------------------------------------------------------------
# Admin (system manager + policy engine)
# ---------------------------------------------------------------------------

class AdminService:
    """Policy definition/update and incident recording.

    The system-manager and policy-engine responsibilities are collapsed
    into one service. Every policy definition ends with the internal
    engine's re-layer pass, run through the injected notifier, so the
    records under a redefined policy move to its new version. The event
    log alone picks an incident's ``T_incident``, no earlier than the clock.
    """

    def __init__(self, policy_store: PolicyStore, event_log: SecurityEventLog,
                 clock: LogicalClock, admin_ids: set[str],
                 notifier: Callable[[str], list[str]]):
        self._policy_store = policy_store
        self._event_log = event_log
        self._clock = clock
        self._admin_ids = set(admin_ids)
        self._notifier = notifier

    def _require_admin(self, caller: str) -> None:
        if caller not in self._admin_ids:
            raise Unauthorized(f"caller {caller!r} is not a system manager")

    def define_policy(self, caller: str, name: str, layers: list[str]) -> dict:
        """Store the next version of the named policy and re-layer the
        records that are behind it."""
        self._require_admin(caller)
        canonical = [parse_policy(text).canonical() for text in layers]
        version = self._policy_store.define(name, canonical, self._clock).version
        # A first version has no records yet: publish refuses unknown names.
        return {"version": version, "updated": self._notifier(name) if version > 1 else []}

    def update_policy(self, caller: str, name: str, layers: list[str]) -> dict:
        """`define_policy` for a policy that must already exist."""
        self._require_admin(caller)
        self._policy_store.get(name)  # must already exist
        return self.define_policy(caller, name, layers)

    def record_incident(self, caller: str, reason: str) -> int:
        self._require_admin(caller)
        return self._event_log.record(self._clock.now(), reason)

    def routes(self) -> dict:
        return {
            "POST /policy": lambda params, caller: self.define_policy(
                caller, params["name"], params["layers"]),
            "POST /policy/update": lambda params, caller: self.update_policy(
                caller, params["name"], params["layers"]),
            "POST /incident": lambda params, caller: {
                "t_incident": self.record_incident(caller, params.get("reason", ""))},
        }


# ---------------------------------------------------------------------------
# Producer / consumer clients
# ---------------------------------------------------------------------------

class DataOwner:
    """Producer device: symmetric encryption plus the first (immutable)
    layer happen here; the device never participates again."""

    def __init__(self, mpk: MasterPublicKey, rng: Rng = os.urandom):
        self._mpk = mpk
        self._rng = rng

    def encrypt(self, plaintext: bytes, ap1: AccessPolicy) -> bytes:
        return hybrid_encrypt(self._mpk, ap1, plaintext, self._rng).to_bytes()

    def publish(self, plaintext: bytes, ap1: AccessPolicy, policy_name: str,
                engine: ServiceClient | LocalClient) -> str:
        ct1_bytes = self.encrypt(plaintext, ap1)
        result = engine.request("POST /publish", {
            "ct1": ct1_bytes, "policy_name": policy_name})
        return result["id"]


class Consumer:
    """Consumer-side helper: fetch through the external engine and run the
    full layered decryption locally."""

    def __init__(self, mpk: MasterPublicKey, key: UserSecretKey):
        self._mpk = mpk
        self._key = key

    def decrypt(self, ct3_bytes: bytes) -> bytes:
        return layered_decrypt(self._mpk, self._key, HybridCiphertext.from_bytes(ct3_bytes))

    def fetch_and_decrypt(self, record_id: str,
                          external: ServiceClient | LocalClient) -> bytes:
        result = external.request("GET /ct/{id}", {"id": record_id})
        return self.decrypt(result["ct3"])


# ---------------------------------------------------------------------------
# Deployment wiring
# ---------------------------------------------------------------------------

class Deployment:
    """One complete desk-scale deployment rooted in a data directory.

    A single logical clock is authoritative for both key-issuance and
    incident timestamps, so the strict comparison of the time gate is
    never broken by cross-service skew.
    """

    def __init__(self, data_dir: Path, passphrase: str,
                 clock: LogicalClock | None = None,
                 allowlist: dict[str, list[str]] | None = None,
                 admin_ids: set[str] | None = None,
                 rng: Rng = os.urandom):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.clock = clock or SystemClock()
        with _exclusive(self.data_dir / ".setup.lock"):
            for stray in [*self.data_dir.glob("config.json.*.tmp"),
                          *(self.data_dir / "aa").glob("*.tmp")]:
                stray.unlink(missing_ok=True)
            config = self._load_or_init_config(allowlist, admin_ids)
            config["allowlist"].setdefault(ENGINE_REQUESTER_ID, [ENGINE_UPDATE_ATTRIBUTE])
            self.allowlist: dict[str, list[str]] = config["allowlist"]
            self.admin_ids: set[str] = set(config["admin_ids"])
            self.aa = AttributeAuthority(self.data_dir / "aa", passphrase, self.clock,
                                         self.allowlist, rng)
        self.ct_store = CtStore(self.data_dir / "ct")
        self.policy_store = PolicyStore(self.data_dir / "policies")
        self.event_log = SecurityEventLog(self.data_dir / "incidents.log")
        engine_key = UserSecretKey.from_bytes(
            self.aa.issue_key(ENGINE_REQUESTER_ID, [ENGINE_UPDATE_ATTRIBUTE]))
        self.internal = InternalCtEngine(self.ct_store, self.policy_store,
                                         self.aa.mpk, engine_key, self.clock)
        self.external = ExternalCtEngine(self.ct_store, self.event_log, self.aa.mpk)
        self.admin = AdminService(self.policy_store, self.event_log, self.clock,
                                  self.admin_ids, self.internal.on_policy_update)
        # Service name -> route table, shared by in-process and served clients.
        self.routes = {"aa": self.aa.routes(), "internal": self.internal.routes(),
                       "external": self.external.routes(), "admin": self.admin.routes()}

    def _load_or_init_config(self, allowlist, admin_ids) -> dict:
        path = self.data_dir / "config.json"
        if path.exists():
            try:
                config = json.loads(path.read_text("utf-8"))
                _check_types(config, {"allowlist": dict, "admin_ids": list[str]})
                _check_types(config["allowlist"], dict.fromkeys(config["allowlist"], list[str]))
            except (ValueError, KeyError, TypeError) as exc:
                raise StoreFailure(f"config {path} corrupt: {exc!r}") from exc
            changed = False
            if allowlist:
                config["allowlist"].update({k: list(v) for k, v in allowlist.items()})
                changed = True
            if admin_ids:
                config["admin_ids"] = sorted(set(config["admin_ids"]) | set(admin_ids))
                changed = True
            if not changed:
                return config
        else:
            config = {"allowlist": {k: list(v) for k, v in (allowlist or {}).items()},
                      "admin_ids": sorted(admin_ids or {"admin"})}
        atomic_write(path, json.dumps(config, indent=2, sort_keys=True).encode("utf-8"))
        return config

    @property
    def mpk(self) -> MasterPublicKey:
        return self.aa.mpk

    def issue_key(self, requester_id: str, attributes: list[str]) -> UserSecretKey:
        return UserSecretKey.from_bytes(self.aa.issue_key(requester_id, attributes))

    def client(self, name: str, caller: str = "") -> LocalClient:
        """In-process client of one service, through the served dispatch path."""
        return LocalClient(self.routes[name], caller)

    def serve(self, host: str | None = None,
              tap: TransportTap | None = None) -> "ServedDeployment":
        if host is None:
            host = os.environ.get("MLABE_BIND_ADDR", "127.0.0.1")
        return ServedDeployment(self, host, tap)


class ServedDeployment:
    """The deployment's services listening on localhost TCP ports; each
    client it hands out is the caller's to close."""

    def __init__(self, deployment: Deployment, host: str,
                 tap: TransportTap | None):
        self.deployment = deployment
        self.tap = tap
        self.servers = {name: ServiceServer(name, routes, host, tap=tap).start()
                        for name, routes in deployment.routes.items()}

    def address(self, name: str) -> tuple[str, int]:
        return self.servers[name].address

    def client(self, name: str, caller: str = "") -> ServiceClient:
        return ServiceClient(self.address(name), caller=caller, tap=self.tap)

    def stop(self) -> None:
        for server in self.servers.values():
            server.stop()

    def __enter__(self) -> "ServedDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
