#!/usr/bin/env python3
"""Served-path benchmark for mlabe.

Drives a real ``Deployment.serve()`` over loopback TCP with one client
thread in a closed loop, in the same process as the service threads.
Each run repeats rounds until ``--seconds`` of measured time have
passed. A round sets up a fresh deployment (timed as ``setup_s``),
publishes and fetches records, then updates a stored policy and checks
who may still decrypt. Every fetch is compared byte for byte with what
was published.

    python3 servedbench/run.py --workload bulk-160k --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of the traced rounds, and the report above it gives the tracing
overhead and the secret scan of the wire. See README.md in this
directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "mlabe" / "__init__.py").is_file():
    sys.exit(f"servedbench: no mlabe sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import cryptography  # noqa: E402

from mlabe.abe import MasterPublicKey, UserSecretKey  # noqa: E402
from mlabe.errors import PolicyUnsatisfied  # noqa: E402
from mlabe.exchange.services import Consumer, DataOwner, Deployment  # noqa: E402
from mlabe.exchange.transport import TransportTap  # noqa: E402
from mlabe.policy import parse_policy  # noqa: E402

import tracing  # noqa: E402

DATA_DIR = ROOT / ".servedbench-data"
PASSPHRASE = "servedbench"
FLUSH_POLICY = "as shipped: fsync on every record, policy and key write"


@dataclass(frozen=True)
class Workload:
    payload_bytes: int
    stored_layers: int  # 3-attribute layers in each stored layer list
    preload: int        # records per policy (vc-a, vc-b) published in set-up
    cycles: int         # publish+fetch pairs per round, alternating vc-a / vc-b
    updates: int        # POST /policy/update calls on vc-a per round
    checks: int         # vc-a fetches, admitted and refused, after each update


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "bulk-160k": Workload(payload_bytes=163_840, stored_layers=2, preload=4,
                          cycles=80, updates=2, checks=2),
    "deep-16l": Workload(payload_bytes=1024, stored_layers=14, preload=4,
                         cycles=200, updates=2, checks=2),
    "update-fanout": Workload(payload_bytes=16_384, stored_layers=4, preload=100,
                              cycles=60, updates=12, checks=3),
}
WARMUP = dict(preload=1, cycles=4, updates=1, checks=1)

END_TO_END_UNITS = {
    "publish_ms_p50": "ms", "publish_ms_p95": "ms",
    "fetch_ms_p50": "ms", "fetch_ms_p95": "ms",
    "cycles_per_s": "1/s",
    "update_ms_p50": "ms", "update_records_per_s": "1/s",
    "store_bytes_per_payload_byte": "B/B",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# Printed with the others but left out of BENCHMARK.json and the result
# line. On the shared 2-vCPU host the benchmark was sized on, their spread
# over ten seeds (quartile distance over median) reached 0.38 for the tails
# and 0.26 for the fsync-bound update rate, above the largest bound (0.25)
# a gated metric may have. update_ms_p50 stays gated for the updates.
REPORT_ONLY = ("publish_ms_p95", "fetch_ms_p95", "update_records_per_s")


class Abort(Exception):
    """A confidentiality check failed; the run stops without a result."""


class Mismatch(Exception):
    """The service answered, but not with what was published or expected."""


class CounterRng:
    """Seeded counter-mode entropy that remembers what it handed out, so
    the producer's SK_sym (its first draw per encryption) is known."""

    def __init__(self, seed: str):
        self._seed = seed
        self._counter = 0
        self.draws: list[bytes] = []

    def __call__(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += hashlib.sha256(f"{self._seed}:{self._counter}".encode()).digest()
            self._counter += 1
        self.draws.append(bytes(out[:n]))
        return self.draws[-1]


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _strings(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _strings(value)


def leaked_secrets(frames: list[tuple[str, bytes]], secrets: list[bytes]) -> int:
    """How many secrets appear in the frames raw, hex-encoded, or inside a
    base64-encoded JSON string value."""
    blobs = []
    for _, frame in frames:
        blobs.append(frame)
        try:
            payload = json.loads(frame)
        except ValueError:
            continue
        for value in _strings(payload):
            try:
                blobs.append(base64.b64decode(value, validate=True))
            except (binascii.Error, ValueError):
                continue
    return sum(1 for secret in secrets
               if any(secret in blob or secret.hex().encode() in blob for blob in blobs))


@dataclass
class Tally:
    """Measurements of the rounds of one kind (traced or untraced)."""

    publish_ns: list[int] = field(default_factory=list)
    fetch_ns: list[int] = field(default_factory=list)
    update_ns: list[int] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    cycles: int = 0
    records_updated: int = 0
    store_bytes: int = 0
    payload_bytes: int = 0
    ops: int = 0            # ops attempted in measured phases
    request_bytes: int = 0  # wire bytes of those ops, traced rounds only
    response_bytes: int = 0
    # One value per round. The run reports their median, so a burst of
    # host noise that spans a minority of rounds does not set the tail.
    round_publish_p95_ms: list[float] = field(default_factory=list)
    round_fetch_p95_ms: list[float] = field(default_factory=list)
    round_cycles_per_s: list[float] = field(default_factory=list)

    def fold(self, rnd: "Round") -> None:
        """Add the latency samples of one measured round."""
        self.publish_ns += rnd.publish_ns
        self.fetch_ns += rnd.fetch_ns
        self.cycles += rnd.spec.cycles
        self.round_publish_p95_ms.append(_p95_ms(rnd.publish_ns))
        self.round_fetch_p95_ms.append(_p95_ms(rnd.fetch_ns))
        self.round_cycles_per_s.append(rnd.spec.cycles / (rnd.cycle_ns / 1e9))


@dataclass
class Outcome:
    """Every op attempted in the run, set-up and warm-up included."""

    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    first_error: str = ""
    refusals: int = 0
    secrets_scanned: int = 0
    leaks: int = 0


class Round:
    """One deployment's life: set-up, publish+fetch cycles, then updates."""

    def __init__(self, spec: Workload, seed: str, data_dir: Path,
                 outcome: Outcome, tally: Tally, traced: bool):
        self.spec = spec
        self.outcome = outcome
        self.tally = tally
        self.tap = TransportTap() if traced else None
        self.rnd = random.Random(seed)
        self.producer_rng = CounterRng(f"{seed}:producer")
        self.data_dir = data_dir
        self.measuring = False
        # Fixed-width seeded attribute names keep every byte count of a
        # round independent of the seed.
        n = spec.stored_layers * 3
        names = [f"x{v:04x}" for v in self.rnd.sample(range(1 << 16), 3 + 3 * n)]
        self.base = names[:3]
        self.groups = {g: names[3 + i * n:3 + (i + 1) * n] for i, g in enumerate("sab")}
        self.base_policy = parse_policy(" AND ".join(self.base))
        self.records: dict[str, tuple[bytes, bytes]] = {}  # id -> (payload, SK_sym)
        self.by_policy: dict[str, list[str]] = {"vc-a": [], "vc-b": []}
        self.publish_ns: list[int] = []  # cycle publishes only
        self.fetch_ns: list[int] = []    # admitted fetches
        self.cycle_ns = 0
        self.deployment = Deployment(
            data_dir, PASSPHRASE, admin_ids={"admin"}, rng=CounterRng(f"{seed}:authority"),
            allowlist={"do": []} | {f"c-{g}": self.base + names for g, names in self.groups.items()})
        self.served = self.deployment.serve(host="127.0.0.1", tap=self.tap)

    def layers(self, group: str) -> list[str]:
        names = self.groups[group]
        return [f"({' AND '.join(names[i:i + 3])})" for i in range(0, len(names), 3)]

    def set_up(self) -> None:
        served = self.served
        aa = served.client("aa")
        self.mpk = MasterPublicKey.from_bytes(base64.b64decode(aa.request("GET /mpk")["mpk_b64"]))
        self.admin = served.client("admin", caller="admin")
        self.admin.request("POST /policy", {"name": "vc-a", "layers": self.layers("a")})
        self.admin.request("POST /policy", {"name": "vc-b", "layers": self.layers("s")})
        self.consumers = {}
        for group, names in self.groups.items():
            reply = served.client("aa", caller=f"c-{group}").request(
                "POST /keygen", {"attributes": self.base + names})
            key = UserSecretKey.from_bytes(base64.b64decode(reply["key_b64"]))
            self.consumers[group] = Consumer(self.mpk, key)
        self.owner = DataOwner(self.mpk, self.producer_rng)
        self.internal = served.client("internal", caller="do")
        self.external = served.client("external", caller="consumer")
        for _ in range(self.spec.preload):
            for policy_name in ("vc-a", "vc-b"):
                self.attempt(self.publish, policy_name)

    # -- ops ---------------------------------------------------------------

    def attempt(self, op, *args):
        """Run one op; a failure is counted and the run goes on."""
        self.outcome.attempted += 1
        if self.measuring:
            self.tally.ops += 1
        try:
            return op(*args)
        except Abort:
            raise
        except Exception as exc:
            self.outcome.failed += 1
            self.outcome.errors[type(exc).__name__] += 1
            if not self.outcome.first_error:
                self.outcome.first_error = traceback.format_exc()
            return None

    def after_request(self, secrets: list[bytes]) -> None:
        """Traced rounds: scan the request's frames, count its wire bytes."""
        if self.tap is None:
            return
        frames = self.tap.frames()
        self.tap.clear()
        if self.measuring:
            for direction, frame in frames:
                if direction == "client->":
                    self.tally.request_bytes += len(frame) + 4
                elif direction == "client<-":
                    self.tally.response_bytes += len(frame) + 4
        self.outcome.secrets_scanned += len(secrets)
        self.outcome.leaks += leaked_secrets(frames, secrets)

    def publish(self, policy_name: str) -> int:
        payload = self.rnd.randbytes(self.spec.payload_bytes)
        self.producer_rng.draws.clear()
        start = time.perf_counter_ns()
        record_id = self.owner.publish(payload, self.base_policy, policy_name, self.internal)
        elapsed = time.perf_counter_ns() - start
        sym_key = self.producer_rng.draws[0]
        self.after_request([payload, sym_key])
        if record_id in self.records:
            raise Mismatch(f"publish returned an existing id {record_id}")
        self.records[record_id] = (payload, sym_key)
        self.by_policy[policy_name].append(record_id)
        self.tally.payload_bytes += len(payload)
        return elapsed

    def fetch(self, record_id: str, group: str) -> int:
        payload, sym_key = self.records[record_id]
        start = time.perf_counter_ns()
        plaintext = self.consumers[group].fetch_and_decrypt(record_id, self.external)
        elapsed = time.perf_counter_ns() - start
        self.after_request([payload, sym_key])
        if plaintext != payload:
            raise Mismatch(f"record {record_id} decrypted to other bytes")
        self.fetch_ns.append(elapsed)
        return elapsed

    def refuse(self, record_id: str, group: str) -> None:
        payload, sym_key = self.records[record_id]
        try:
            self.consumers[group].fetch_and_decrypt(record_id, self.external)
        except PolicyUnsatisfied:
            self.after_request([payload, sym_key])
            self.outcome.refusals += 1
            return
        raise Abort(f"key c-{group} decrypted record {record_id} after the policy moved away from it")

    def update(self, group: str, version: int) -> None:
        start = time.perf_counter_ns()
        result = self.admin.request("POST /policy/update",
                                    {"name": "vc-a", "layers": self.layers(group)})
        elapsed = time.perf_counter_ns() - start
        self.after_request([s for rid in self.by_policy["vc-a"] for s in self.records[rid]])
        if sorted(result["updated"]) != sorted(self.by_policy["vc-a"]) or result["version"] != version:
            raise Mismatch(f"update to version {version} re-layered {len(result['updated'])} records")
        self.tally.update_ns.append(elapsed)
        self.tally.records_updated += len(result["updated"])

    # -- phases ------------------------------------------------------------

    def cycle(self, policy_name: str) -> None:
        start = time.perf_counter_ns()
        elapsed = self.attempt(self.publish, policy_name)
        if elapsed is not None:
            self.publish_ns.append(elapsed)
        published = self.by_policy["vc-a"] + self.by_policy["vc-b"]
        if published:
            record_id = self.rnd.choice(published)
            group = "a" if record_id in self.by_policy["vc-a"] else "s"
            self.attempt(self.fetch, record_id, group)
        self.cycle_ns += time.perf_counter_ns() - start

    def measure(self) -> None:
        spec = self.spec
        for i in range(spec.cycles):
            self.cycle("vc-a" if i % 2 == 0 else "vc-b")
        current, other = "a", "b"
        for version in range(2, spec.updates + 2):
            current, other = other, current
            self.attempt(self.update, current, version)
            for _ in range(spec.checks):
                record_id = self.rnd.choice(self.by_policy["vc-a"])
                self.attempt(self.fetch, record_id, current)
                self.attempt(self.refuse, record_id, other)
        self.tally.store_bytes += sum(p.stat().st_size for p in (self.data_dir / "ct").glob("*.json"))


def run_round(spec: Workload, seed: str, data_dir: Path, outcome: Outcome, tally: Tally,
              tracer: tracing.Tracer | None, stops: list[Future], pool: ThreadPoolExecutor) -> float:
    """Run one round; returns its measured seconds (set-up excluded).

    The servers are stopped on `pool`, side by side: each takes up to its
    poll interval to notice the shutdown, and none is serving meanwhile.
    """
    with tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        rnd = Round(spec, seed, data_dir, outcome, tally, tracer is not None)
        try:
            rnd.set_up()
            tally.setup_s.append(time.perf_counter() - start)
            rnd.measuring = True
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            rnd.measure()
            seconds = time.perf_counter() - start
            if tracer:
                tracer.active = False
            tally.fold(rnd)
        finally:
            stops.extend(pool.submit(server.stop) for server in rnd.served.servers.values())
            shutil.rmtree(data_dir, ignore_errors=True)
    return seconds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _p50_ms(samples: list[int]) -> float:
    return statistics.median(samples) / 1e6


def _p95_ms(samples: list[int]) -> float:
    if len(samples) < 2:
        return samples[0] / 1e6
    return statistics.quantiles(samples, n=20, method="inclusive")[-1] / 1e6


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(tally: Tally) -> dict[str, float]:
    return {
        "publish_ms_p50": _p50_ms(tally.publish_ns),
        "publish_ms_p95": statistics.median(tally.round_publish_p95_ms),
        "fetch_ms_p50": _p50_ms(tally.fetch_ns),
        "fetch_ms_p95": statistics.median(tally.round_fetch_p95_ms),
        "cycles_per_s": statistics.median(tally.round_cycles_per_s),
        "update_ms_p50": _p50_ms(tally.update_ns),
        "update_records_per_s": tally.records_updated / (sum(tally.update_ns) / 1e9),
        "store_bytes_per_payload_byte": tally.store_bytes / tally.payload_bytes,
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": statistics.median(tally.setup_s),
    }


def sample_counts(tally: Tally) -> dict[str, int]:
    return {"publish": len(tally.publish_ns), "fetch": len(tally.fetch_ns),
            "update": len(tally.update_ns), "cycles": tally.cycles,
            "rounds": len(tally.setup_s), "records_updated": tally.records_updated}


def per_layer(tally: Tally, tracer: tracing.Tracer
              ) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics with units, and the subset that are exact counts."""
    ops = tally.ops
    metrics: dict[str, tuple[float, str]] = {}
    counts: dict[str, float] = {}
    for name, _, _ in tracing.TARGETS:
        stats = tracer.stats[name]
        metrics[f"{name}.calls_per_op"] = (stats.calls / ops, "count/op")
        metrics[f"{name}.self_ms_per_op"] = (stats.self_ns / 1e6 / ops, "ms/op")
        counts[f"{name}.calls_per_op"] = stats.calls / ops
        if name in tracing.LAYER_COUNTS:
            metrics[f"{name}.layers_per_op"] = (stats.layers / ops, "count/op")
            counts[f"{name}.layers_per_op"] = stats.layers / ops
    derived = {
        "storage.records_read_per_record_updated":
            (tracer.scan_reads / tally.records_updated, "ratio"),
        "transport.request_bytes_per_op": (tally.request_bytes / ops, "B/op"),
        "transport.response_bytes_per_op": (tally.response_bytes / ops, "B/op"),
    }
    metrics.update(derived)
    counts.update({name: value for name, (value, _) in derived.items()})
    counts["store_bytes_per_payload_byte"] = tally.store_bytes / tally.payload_bytes
    return metrics, counts


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------

def git_revision() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def filesystem(path: Path) -> dict[str, str]:
    """Mount point and type of the filesystem holding `path`."""
    best = {"mount": "", "type": "unknown"}
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best["mount"]):
                    best = {"mount": mount, "type": fields[2]}
    except OSError:
        pass
    return best


def metadata(workload: str, seed: int, seconds: int, trace: int, store: Path) -> dict:
    return {
        "workload": workload, "spec": asdict(WORKLOADS[workload]),
        "seed": seed, "seconds": seconds, "trace": trace,
        "host": platform.node(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "cryptography": cryptography.__version__,
        "git_revision": git_revision(),
        "store_dir": str(store), "store_fs": filesystem(store),
        "flush_policy": FLUSH_POLICY,
        "client": "one thread, closed loop, loopback TCP, same process as the services",
    }


# ---------------------------------------------------------------------------
# Run loop and command line
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, store: Path):
    """Warm up, then run rounds until `seconds` of measured time; with
    `trace`, rounds alternate untraced and traced."""
    spec = WORKLOADS[workload]
    outcome = Outcome()
    tallies = {False: Tally(), True: Tally()}
    tracer = tracing.Tracer()
    stops: list[Future] = []
    with ThreadPoolExecutor(max_workers=8, thread_name_prefix="servedbench-stop") as pool:
        try:
            run_round(replace(spec, **WARMUP), f"{seed}:{workload}:warmup", store / "warmup",
                      outcome, Tally(), None, stops, pool)
            measured = 0.0
            n = 0
            while measured < seconds or (trace and n % 2):
                traced = trace and n % 2 == 1
                measured += run_round(spec, f"{seed}:{workload}:{n}", store / f"round-{n}",
                                      outcome, tallies[traced], tracer if traced else None,
                                      stops, pool)
                n += 1
        finally:
            for stop in stops:
                stop.result()
    return outcome, tallies, tracer


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    DATA_DIR.mkdir(exist_ok=True)
    store = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=DATA_DIR))
    print("# meta " + json.dumps(metadata(args.workload, args.seed, args.seconds,
                                          args.trace, store), sort_keys=True))
    try:
        outcome, tallies, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace), store)
    except Abort as exc:
        print(f"servedbench: ABORT: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(store, ignore_errors=True)

    untraced = tallies[False]
    e2e = end_to_end(untraced)
    print(f"# end-to-end, untraced rounds, samples {json.dumps(sample_counts(untraced))}")
    for name, value in e2e.items():
        note = "  (report only)" if name in REPORT_ONLY else ""
        print(f"{name:32s} {_fmt(value):>12s} {END_TO_END_UNITS[name]}{note}")
    failed_ratio = outcome.failed / outcome.attempted
    print(f"{'failed_ratio':32s} {_fmt(failed_ratio):>12s} ratio "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    if outcome.failed:
        print(f"# errors {dict(outcome.errors)}\n{outcome.first_error}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.leaks == 0

    if args.trace:
        traced = tallies[True]
        layer_metrics, counts = per_layer(traced, tracer)
        print(f"# per-layer, traced rounds, {traced.ops} ops, samples "
              f"{json.dumps(sample_counts(traced))}")
        for name, (value, unit) in layer_metrics.items():
            print(f"{name:56s} {_fmt(value):>12s} {unit}")
        overhead = end_to_end(traced)
        print("# tracing overhead, traced minus untraced (peak_rss_mib is one "
              "process-wide peak, so it has no split)")
        for name, value in overhead.items():
            if name != "peak_rss_mib":
                print(f"overhead.{name:23s} {_fmt(value - e2e[name]):>12s} "
                      f"{END_TO_END_UNITS[name]}")
        print(f"# secret scan: {outcome.secrets_scanned} payload/SK_sym checks, "
              f"{outcome.leaks} leaks, {outcome.refusals} refusals held")
        print("# counts " + json.dumps(counts, sort_keys=True))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer_metrics.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items() if name not in REPORT_ONLY}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
