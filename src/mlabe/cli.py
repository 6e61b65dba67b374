"""Command-line interface over the library and the exchange services.

Exit codes: 0 success, 2 usage/configuration, 3 access policy not
satisfied, 4 time-gate rejection (key predates the last incident),
5 ciphertext integrity failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .abe import UserSecretKey, keygen as abe_keygen, setup as abe_setup
from .bench import (
    BenchConfig,
    ENCRYPT_COLUMNS,
    SIZE_COLUMNS,
    run_encrypt_bench,
    run_size_bench,
    write_csv,
)
from .containers import HybridCiphertext
from .errors import (
    AeadTagFailure,
    ConfigError,
    DecryptError,
    FoCheckFailed,
    MalformedCiphertext,
    MalformedLayer,
    MlabeError,
    PolicyUnsatisfied,
)
from .hashing import counter_rng
from .hybrid import hybrid_encrypt
from .multilayer import add_layers, layered_decrypt
from .policy import AttributeSet, Cmp, TIMESTAMP_ATTRIBUTE, parse_policy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_POLICY = 3
EXIT_TIMEGATE = 4
EXIT_INTEGRITY = 5


def _data_dir(args: argparse.Namespace) -> Path:
    return Path(args.data_dir or os.environ.get("MLABE_DATA_DIR", "mlabe-data"))


def _passphrase(args: argparse.Namespace) -> str:
    passphrase = getattr(args, "passphrase", None) or os.environ.get("MLABE_AA_PASSPHRASE")
    if not passphrase:
        raise ConfigError("no passphrase: set MLABE_AA_PASSPHRASE or pass --passphrase")
    return passphrase


def _load_deployment(args: argparse.Namespace, create: bool = False):
    from .exchange.services import Deployment

    data_dir = _data_dir(args)
    if not create and not (data_dir / "config.json").exists():
        raise ConfigError(f"{data_dir} is not initialized; run `mlabe setup` first")
    allowlist = {}
    for entry in getattr(args, "allow", None) or []:
        requester, _, attr_list = entry.partition(":")
        if not requester or not attr_list:
            raise ConfigError(f"--allow needs requester:AttA,AttB, got {entry!r}")
        allowlist[requester] = [a.strip() for a in attr_list.split(",") if a.strip()]
    return Deployment(data_dir, _passphrase(args), allowlist=allowlist or None,
                      admin_ids=set(getattr(args, "admin", None) or []) or None)


def _is_time_gate(policy_text: str) -> bool:
    try:
        root = parse_policy(policy_text).root
    except MlabeError:
        return False
    return isinstance(root, Cmp) and root.name == TIMESTAMP_ATTRIBUTE


def _decrypt_exit(exc: DecryptError, layer_policies: tuple[str, ...]) -> int:
    if isinstance(exc, PolicyUnsatisfied):
        index = exc.layer_index
        if index is not None and 0 <= index < len(layer_policies) \
                and _is_time_gate(layer_policies[index]):
            return EXIT_TIMEGATE
        return EXIT_POLICY
    return EXIT_INTEGRITY


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_setup(args: argparse.Namespace) -> int:
    data_dir = _data_dir(args)
    # Opening merges --allow and --admin into the configuration either way.
    if not _load_deployment(args, create=True).aa.created:
        print(f"{data_dir} already initialized")
        return EXIT_OK
    print(f"initialized {data_dir}; public parameters at {data_dir / 'aa' / 'mpk.bin'}")
    return EXIT_OK


def cmd_keygen(args: argparse.Namespace) -> int:
    deployment = _load_deployment(args)
    attrs = [a.strip() for a in args.attrs.split(",") if a.strip()]
    key_bytes = deployment.aa.issue_key(args.requester, attrs)
    Path(args.out).write_bytes(key_bytes)
    key = UserSecretKey.from_bytes(key_bytes)
    print(f"issued key for {args.requester} "
          f"(T_SK={key.attrs.issuance_timestamp}) -> {args.out}")
    return EXIT_OK


def cmd_encrypt(args: argparse.Namespace) -> int:
    deployment = _load_deployment(args)
    policy = parse_policy(args.policy)
    plaintext = Path(args.infile).read_bytes()
    ct1 = hybrid_encrypt(deployment.mpk, policy, plaintext, os.urandom)
    if args.out:
        Path(args.out).write_bytes(ct1.to_bytes())
        print(f"wrote CT_1 ({ct1.n_layers} layers) -> {args.out}")
    if args.publish:
        if not args.policy_name:
            raise ConfigError("--publish requires --policy-name")
        record = deployment.internal.publish(ct1.to_bytes(), args.policy_name)
        print(f"published id={record.id} n_layers={record.n_layers}")
    elif not args.out:
        raise ConfigError("encrypt needs --out and/or --publish")
    return EXIT_OK


def cmd_layers_add(args: argparse.Namespace) -> int:
    deployment = _load_deployment(args)
    ct = HybridCiphertext.from_bytes(Path(args.ct).read_bytes())
    policies = [parse_policy(text) for text in args.policy]
    layered = add_layers(deployment.mpk, ct.ct_abe, policies)
    out = HybridCiphertext(ct_aes=ct.ct_aes, ct_abe=layered)
    Path(args.out).write_bytes(out.to_bytes())
    print(f"added {len(policies)} layer(s), total {out.n_layers} -> {args.out}")
    return EXIT_OK


def cmd_request(args: argparse.Namespace) -> int:
    deployment = _load_deployment(args)
    ct3_bytes, n_layers = deployment.external.request(args.id)
    Path(args.out).write_bytes(ct3_bytes)
    print(f"wrote CT_3 (nLayers={n_layers}) -> {args.out}")
    return EXIT_OK


def cmd_decrypt(args: argparse.Namespace) -> int:
    deployment = _load_deployment(args)
    ct = HybridCiphertext.from_bytes(Path(args.ct).read_bytes())
    key = UserSecretKey.from_bytes(Path(args.key).read_bytes())
    try:
        plaintext = layered_decrypt(deployment.mpk, key, ct)
    except DecryptError as exc:
        return _fail(exc, _decrypt_exit(exc, ct.ct_abe.layer_policies))
    Path(args.out).write_bytes(plaintext)
    print(f"recovered {len(plaintext)} bytes -> {args.out}")
    return EXIT_OK


def cmd_incident(args: argparse.Namespace) -> int:
    deployment = _load_deployment(args)
    t_incident = deployment.admin.record_incident(args.caller, args.reason)
    print(f"recorded incident at T={t_incident}")
    return EXIT_OK


def _bench_config(args: argparse.Namespace) -> BenchConfig:
    if args.config:
        config = BenchConfig.from_json(Path(args.config).read_text("utf-8"))
    else:
        config = BenchConfig()
    overrides = {}
    if args.repetitions is not None:
        overrides["repetitions"] = args.repetitions
    if args.max_layers is not None:
        overrides["layer_counts"] = list(range(1, args.max_layers + 1))
    if args.do_profile is not None:
        overrides["do_profile"] = args.do_profile
    if args.engine_profile is not None:
        overrides["engine_profile"] = args.engine_profile
    if getattr(args, "payload_size", None) is not None:
        overrides["payload_size"] = args.payload_size
    if overrides:
        fields = {**config.__dict__, **overrides}
        config = BenchConfig(**fields)
    return config


def cmd_bench_encrypt(args: argparse.Namespace) -> int:
    meta, rows = run_encrypt_bench(_bench_config(args))
    text = write_csv(meta, rows, ENCRYPT_COLUMNS, Path(args.out) if args.out else None)
    if args.out:
        print(f"wrote {len(rows)} rows -> {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_bench_size(args: argparse.Namespace) -> int:
    meta, rows = run_size_bench(_bench_config(args))
    text = write_csv(meta, rows, SIZE_COLUMNS, Path(args.out) if args.out else None)
    if args.out:
        print(f"wrote {len(rows)} rows -> {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    """In-process end-to-end: setup, keygen, encrypt, layer, time-gate,
    decrypt; exit 0 only if the payload survives bit-exactly."""
    from .exchange.storage import ManualClock
    from .policy import AccessPolicy

    rng = counter_rng("roundtrip")
    clock = ManualClock(1_000)
    payload = Path(args.payload).read_bytes()
    policy = parse_policy(args.policy)
    attrs = AttributeSet([a.strip() for a in args.attrs.split(",") if a.strip()],
                         {TIMESTAMP_ATTRIBUTE: clock.now()})
    pair = abe_setup(256, rng)
    key = abe_keygen(pair.msk, attrs, rng(32))

    t_incident = 0
    if args.incident:
        t_incident = clock.advance()  # incident after the key was issued

    ct1 = hybrid_encrypt(pair.mpk, policy, payload, rng)
    layered = add_layers(pair.mpk, ct1.ct_abe, [policy])
    gate = AccessPolicy(Cmp(TIMESTAMP_ATTRIBUTE, ">", t_incident))
    gated = add_layers(pair.mpk, layered, [gate])
    ct3 = HybridCiphertext(ct_aes=ct1.ct_aes, ct_abe=gated)

    try:
        recovered = layered_decrypt(pair.mpk, key, ct3)
    except DecryptError as exc:
        return _fail(exc, _decrypt_exit(exc, ct3.ct_abe.layer_policies))
    if recovered != payload:
        print("error: recovered payload differs", file=sys.stderr)
        return EXIT_INTEGRITY
    print(f"round trip ok ({len(payload)} bytes)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlabe",
        description="Multi-layered CP-ABE toolkit and data-exchange harness")
    parser.add_argument("--data-dir", help="deployment directory "
                        "(default: $MLABE_DATA_DIR or ./mlabe-data)")
    parser.add_argument("--passphrase", help="authority passphrase "
                        "(default: $MLABE_AA_PASSPHRASE)")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("setup", help="initialize a deployment directory")
    p.add_argument("--allow", action="append",
                   help="allowlist entry requester:AttA,AttB (repeatable)")
    p.add_argument("--admin", action="append", help="system-manager id (repeatable)")
    p.set_defaults(func=cmd_setup)

    p = commands.add_parser("keygen", help="issue a user key")
    p.add_argument("--requester", required=True)
    p.add_argument("--attrs", required=True, help="comma-separated attributes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = commands.add_parser("encrypt", help="producer-side hybrid encryption")
    p.add_argument("--policy", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--publish", action="store_true",
                   help="send CT_1 to the internal engine and store CT_2")
    p.add_argument("--policy-name", help="stored layer-policy name for --publish")
    p.set_defaults(func=cmd_encrypt)

    p = commands.add_parser("layers", help="layer operations")
    layer_cmds = p.add_subparsers(dest="layers_command", required=True)
    q = layer_cmds.add_parser("add", help="wrap a ciphertext in more layers")
    q.add_argument("--ct", required=True)
    q.add_argument("--policy", action="append", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_layers_add)

    p = commands.add_parser("request", help="fetch CT_3 through the time gate")
    p.add_argument("--id", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_request)

    p = commands.add_parser("decrypt", help="full consumer decryption")
    p.add_argument("--ct", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = commands.add_parser("incident", help="record a security incident")
    p.add_argument("--reason", default="")
    p.add_argument("--caller", default="admin")
    p.set_defaults(func=cmd_incident)

    p = commands.add_parser("bench", help="benchmark harness")
    bench_cmds = p.add_subparsers(dest="bench_command", required=True)
    for name, func in (("encrypt", cmd_bench_encrypt), ("size", cmd_bench_size)):
        q = bench_cmds.add_parser(name)
        q.add_argument("--config", help="BenchConfig JSON file")
        q.add_argument("--out", help="CSV output path (default: stdout)")
        q.add_argument("--repetitions", type=int)
        q.add_argument("--max-layers", type=int)
        q.add_argument("--do-profile", type=float)
        q.add_argument("--engine-profile", type=float)
        q.add_argument("--payload-size", type=int)
        q.set_defaults(func=func)

    p = commands.add_parser("roundtrip", help="in-process end-to-end check")
    p.add_argument("--policy", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--payload", required=True)
    p.add_argument("--incident", action="store_true",
                   help="record an incident after key issuance (stale-key case)")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(exc, EXIT_USAGE)
    except (FoCheckFailed, AeadTagFailure, MalformedCiphertext, MalformedLayer) as exc:
        return _fail(exc, EXIT_INTEGRITY)
    except PolicyUnsatisfied as exc:
        return _fail(exc, EXIT_POLICY)
    except MlabeError as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
