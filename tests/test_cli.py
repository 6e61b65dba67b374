"""Command-line surface: flows, exit codes, CSV output."""

from __future__ import annotations

import csv
import io
import json

import pytest

from mlabe.cli import (
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_POLICY,
    EXIT_TIMEGATE,
    EXIT_USAGE,
    main,
)


@pytest.fixture()
def env(tmp_path, monkeypatch):
    monkeypatch.setenv("MLABE_DATA_DIR", str(tmp_path / "data"))
    monkeypatch.setenv("MLABE_AA_PASSPHRASE", "cli-test-pass")
    return tmp_path


def run(*argv: str) -> int:
    return main(list(argv))


def initialized(env) -> None:
    assert run("setup", "--allow", "alice:Mechanic,Staff,Boss") == EXIT_OK


class TestLifecycle:
    def test_setup_is_idempotent(self, env, capsys):
        initialized(env)
        assert run("setup") == EXIT_OK
        assert "already initialized" in capsys.readouterr().out

    def test_second_setup_adds_its_allowlist_entries(self, env, capsys):
        initialized(env)
        assert run("setup", "--allow", "bob:Staff") == EXIT_OK
        assert "already initialized" in capsys.readouterr().out
        assert run("keygen", "--requester", "bob", "--attrs", "Staff",
                   "--out", str(env / "bob.key")) == EXIT_OK

    def test_missing_passphrase_is_usage_error(self, env, monkeypatch):
        monkeypatch.delenv("MLABE_AA_PASSPHRASE")
        assert run("setup") == EXIT_USAGE

    def test_uninitialized_dir_is_usage_error(self, env):
        assert run("keygen", "--requester", "alice", "--attrs", "Staff",
                   "--out", str(env / "k.bin")) == EXIT_USAGE

    def test_usage_exit_from_argparse(self, env):
        with pytest.raises(SystemExit) as excinfo:
            run("keygen")  # missing required arguments
        assert excinfo.value.code == EXIT_USAGE


class TestFileFlow:
    def test_encrypt_layer_decrypt(self, env, tmp_path):
        initialized(env)
        payload = tmp_path / "pt.bin"
        payload.write_bytes(b"file flow payload " * 9)
        assert run("keygen", "--requester", "alice", "--attrs", "Mechanic,Staff",
                   "--out", str(tmp_path / "alice.key")) == EXIT_OK
        assert run("encrypt", "--policy", "Mechanic AND Staff",
                   "--in", str(payload), "--out", str(tmp_path / "ct1.bin")) == EXIT_OK
        assert run("layers", "add", "--ct", str(tmp_path / "ct1.bin"),
                   "--policy", "Staff", "--out", str(tmp_path / "ct2.bin")) == EXIT_OK
        assert run("decrypt", "--ct", str(tmp_path / "ct2.bin"),
                   "--key", str(tmp_path / "alice.key"),
                   "--out", str(tmp_path / "out.bin")) == EXIT_OK
        assert (tmp_path / "out.bin").read_bytes() == payload.read_bytes()

    def test_decrypt_missing_attribute_exits_3(self, env, tmp_path):
        initialized(env)
        payload = tmp_path / "pt.bin"
        payload.write_bytes(b"x" * 50)
        run("keygen", "--requester", "alice", "--attrs", "Staff",
            "--out", str(tmp_path / "staff.key"))
        run("encrypt", "--policy", "Mechanic AND Staff", "--in", str(payload),
            "--out", str(tmp_path / "ct1.bin"))
        assert run("decrypt", "--ct", str(tmp_path / "ct1.bin"),
                   "--key", str(tmp_path / "staff.key"),
                   "--out", str(tmp_path / "out.bin")) == EXIT_POLICY

    def test_corrupted_ciphertext_exits_5(self, env, tmp_path):
        initialized(env)
        payload = tmp_path / "pt.bin"
        payload.write_bytes(b"x" * 50)
        run("keygen", "--requester", "alice", "--attrs", "Staff",
            "--out", str(tmp_path / "k.key"))
        run("encrypt", "--policy", "Staff", "--in", str(payload),
            "--out", str(tmp_path / "ct1.bin"))
        blob = bytearray((tmp_path / "ct1.bin").read_bytes())
        blob[60] ^= 0x20
        (tmp_path / "ct1.bin").write_bytes(bytes(blob))
        code = run("decrypt", "--ct", str(tmp_path / "ct1.bin"),
                   "--key", str(tmp_path / "k.key"),
                   "--out", str(tmp_path / "out.bin"))
        assert code == EXIT_INTEGRITY

    def test_malformed_key_exits_5(self, env, tmp_path):
        from mlabe.containers import KIND_USK, pack_container

        initialized(env)
        payload = tmp_path / "pt.bin"
        payload.write_bytes(b"x" * 50)
        run("encrypt", "--policy", "Staff", "--in", str(payload),
            "--out", str(tmp_path / "ct1.bin"))
        (tmp_path / "bad.key").write_bytes(pack_container(KIND_USK, 1, [b"id", b"{}"]))
        assert run("decrypt", "--ct", str(tmp_path / "ct1.bin"),
                   "--key", str(tmp_path / "bad.key"),
                   "--out", str(tmp_path / "out.bin")) == EXIT_INTEGRITY


class TestPublishRequest:
    def test_publish_request_decrypt_and_timegate(self, env, tmp_path, capsys):
        initialized(env)
        from pathlib import Path

        from mlabe.exchange.services import Deployment
        dep = Deployment(Path(str(env / "data")), "cli-test-pass")
        dep.admin.define_policy("admin", "vc", ["(Staff)"])

        payload = tmp_path / "pt.bin"
        payload.write_bytes(b"published payload " * 7)
        run("keygen", "--requester", "alice", "--attrs", "Mechanic,Staff",
            "--out", str(tmp_path / "alice.key"))
        assert run("encrypt", "--policy", "Mechanic AND Staff",
                   "--in", str(payload), "--publish", "--policy-name", "vc") == EXIT_OK
        out = capsys.readouterr().out
        record_id = out.split("id=")[1].split()[0]

        assert run("request", "--id", record_id,
                   "--out", str(tmp_path / "ct3.bin")) == EXIT_OK
        assert run("decrypt", "--ct", str(tmp_path / "ct3.bin"),
                   "--key", str(tmp_path / "alice.key"),
                   "--out", str(tmp_path / "out.bin")) == EXIT_OK
        assert (tmp_path / "out.bin").read_bytes() == payload.read_bytes()

        # an incident locks the existing key out through the time gate
        assert run("incident", "--reason", "unit test breach") == EXIT_OK
        assert run("request", "--id", record_id,
                   "--out", str(tmp_path / "ct4.bin")) == EXIT_OK
        assert run("decrypt", "--ct", str(tmp_path / "ct4.bin"),
                   "--key", str(tmp_path / "alice.key"),
                   "--out", str(tmp_path / "out2.bin")) == EXIT_TIMEGATE

    def test_publish_needs_policy_name(self, env, tmp_path):
        initialized(env)
        payload = tmp_path / "pt.bin"
        payload.write_bytes(b"x")
        assert run("encrypt", "--policy", "Staff", "--in", str(payload),
                   "--publish") == EXIT_USAGE


class TestRoundtrip:
    def test_satisfying(self, env, tmp_path):
        payload = tmp_path / "pt.bin"
        payload.write_bytes(b"roundtrip payload")
        assert run("roundtrip", "--policy", "Mechanic AND Staff",
                   "--attrs", "Mechanic,Staff", "--payload", str(payload)) == EXIT_OK

    def test_missing_attribute(self, env, tmp_path):
        payload = tmp_path / "pt.bin"
        payload.write_bytes(b"roundtrip payload")
        assert run("roundtrip", "--policy", "Mechanic AND Staff",
                   "--attrs", "Mechanic", "--payload", str(payload)) == EXIT_POLICY

    def test_stale_key_after_incident(self, env, tmp_path):
        payload = tmp_path / "pt.bin"
        payload.write_bytes(b"roundtrip payload")
        assert run("roundtrip", "--policy", "Mechanic AND Staff",
                   "--attrs", "Mechanic,Staff", "--payload", str(payload),
                   "--incident") == EXIT_TIMEGATE


class TestBenchCommands:
    def _parse_csv(self, path) -> tuple[dict, list[dict]]:
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# ")
        meta = json.loads(lines[0][2:])
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        return meta, rows

    def test_bench_encrypt_csv(self, env, tmp_path):
        out = tmp_path / "enc.csv"
        assert run("bench", "encrypt", "--repetitions", "3", "--max-layers", "4",
                   "--out", str(out)) == EXIT_OK
        meta, rows = self._parse_csv(out)
        assert meta["bench"] == "encrypt"
        assert meta["backend"] == "dev-keyed-hash"
        assert meta["config"]["repetitions"] == 3
        assert "platform" in meta["host"]
        assert list(rows[0].keys()) == ["total_attributes", "mode", "mean_ms",
                                        "stddev_ms", "do_mean_ms", "engine_mean_ms"]
        attrs = sorted({int(r["total_attributes"]) for r in rows})
        assert attrs == [3, 6, 9, 12]
        assert {r["mode"] for r in rows} == {"do_only", "engine_only", "combined"}

    def test_bench_size_csv(self, env, tmp_path):
        out = tmp_path / "size.csv"
        assert run("bench", "size", "--max-layers", "3",
                   "--payload-size", "4096", "--out", str(out)) == EXIT_OK
        meta, rows = self._parse_csv(out)
        assert meta["bench"] == "size"
        assert [int(r["n_layers_total"]) for r in rows] == [1, 2, 3]
        assert all(int(r["ct_aes_bytes"]) == 4096 + 16 for r in rows)

    def test_bench_invalid_config(self, env):
        assert run("bench", "encrypt", "--repetitions", "0") == EXIT_USAGE

    def test_payload_size_only_on_bench_size(self, env, capsys):
        """The encrypt series never encrypts a payload, so it takes no size."""
        with pytest.raises(SystemExit) as excinfo:
            run("bench", "encrypt", "--payload-size", "64")
        assert excinfo.value.code == EXIT_USAGE
        assert "--payload-size" in capsys.readouterr().err
