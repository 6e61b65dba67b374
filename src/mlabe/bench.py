"""Benchmark harness: encryption-time and ciphertext-size series as CSV.

Three timed scenarios per attribute count, mirroring the deployment's
work split:

* ``do_only``      - the producer applies the whole policy as one base
                     encapsulation.
* ``engine_only``  - the engine wraps an existing base in a single layer
                     carrying all attributes.
* ``combined``     - the producer applies a fixed-width first policy and
                     the engine adds the remaining layers.

Timings measure the key-encapsulation work only; the payload cipher runs
at AES speed regardless of layering, so it is reported by the size series
instead. The optional device profiles scale measured durations (do-side
and engine-side independently) to emulate slower hardware; they never
change what is executed. Every CSV starts with one ``#`` metadata line
(backend, config echo, host info) followed by a stable header row.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import platform
import random
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

from .abe import BACKEND_NAME, DEV_BACKEND_ID, abe_encrypt, setup
from .containers import LayeredAbeCiphertext
from .errors import ConfigError
from .hashing import counter_rng
from .hybrid import encapsulation_randomness, hybrid_encrypt
from .multilayer import add_layers
from .policy import AccessPolicy, And, Leaf

ENCRYPT_COLUMNS = ["total_attributes", "mode", "mean_ms", "stddev_ms",
                   "do_mean_ms", "engine_mean_ms"]
SIZE_COLUMNS = ["n_layers_total", "ct_abe_bytes", "ct_aes_bytes"]


@dataclass
class BenchConfig:
    layer_counts: list[int] = field(default_factory=lambda: list(range(1, 16)))
    attrs_per_layer: int = 3
    repetitions: int = 500
    payload_size: int = 163840
    do_profile: float = 1.0
    engine_profile: float = 1.0
    warmup: int = 10

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not self.layer_counts:
            raise ConfigError("layer_counts must be non-empty")
        if any(b <= a for a, b in zip(self.layer_counts, self.layer_counts[1:])):
            raise ConfigError("layer_counts must be strictly ascending")
        if min(self.layer_counts) < 1:
            raise ConfigError("layer counts start at 1 (the producer's layer)")
        if self.attrs_per_layer < 1:
            raise ConfigError("attrs_per_layer must be >= 1")
        if self.payload_size < 1:
            raise ConfigError("payload_size must be >= 1")
        if self.do_profile <= 0 or self.engine_profile <= 0:
            raise ConfigError("device profiles must be positive multipliers")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        try:
            return cls(**json.loads(text))
        except TypeError as exc:
            raise ConfigError(f"unknown config field: {exc}") from exc


def _attr(i: int) -> str:
    return f"Att{i}"


def _conjunction(first: int, count: int) -> AccessPolicy:
    leaves = tuple(Leaf(_attr(i)) for i in range(first, first + count))
    return AccessPolicy(leaves[0] if count == 1 else And(leaves))


def _metadata(bench: str, config: BenchConfig) -> dict:
    return {
        "bench": bench,
        "backend_id": DEV_BACKEND_ID,
        "backend": BACKEND_NAME,
        "config": asdict(config),
        "host": {"platform": platform.platform(), "python": platform.python_version()},
    }


# ---------------------------------------------------------------------------
# Encryption-time series
# ---------------------------------------------------------------------------

def collect_encrypt_samples(config: BenchConfig) -> dict[int, dict[str, list[float]]]:
    """Raw per-repetition durations in seconds, keyed by layer count.

    Profiles are NOT applied here; aggregation does that, so one
    collection can be re-aggregated under several emulation settings.
    Points are interleaved so that host drift is shared by all of them
    rather than landing on whole points: each repetition runs every point
    once, in a seeded shuffled order, and runs each timed phase for all
    points back to back before the next phase. A shared host switches
    between fast and slow states within milliseconds, so timing one
    phase of all points within one short window keeps their sample
    distributions alike. The cyclic GC is paused while timing and runs
    between repetitions, so collection pauses do not land inside
    measurement windows.
    """
    pair = setup(256, counter_rng("bench-master"))
    points = {k * config.attrs_per_layer: _point(config, pair, k)
              for k in config.layer_counts}
    order = list(points.values())
    shuffler = random.Random("bench-order")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(config.warmup + config.repetitions):
            shuffler.shuffle(order)
            steps = [step(rep >= config.warmup) for _, step in order]
            for _ in range(_PHASES):
                for phase in steps:
                    next(phase, None)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return {attrs: point for attrs, (point, _) in points.items()}


_PHASES = 4  # do_only, engine_only, combined_do, combined_engine


def _point(config: BenchConfig, pair, k: int):
    """The sample lists of the point with k layers, and a step that runs
    one repetition of it, pausing after each timed phase, and records the
    durations when told to."""
    per_layer = config.attrs_per_layer
    full_policy = _conjunction(1, k * per_layer)
    first_policy = _conjunction(1, per_layer)
    extra_policies = [_conjunction(1 + j * per_layer, per_layer)
                      for j in range(1, k)]
    point: dict[str, list[float]] = {"do_only": [], "engine_only": [],
                                     "combined_do": [], "combined_engine": []}
    draw = counter_rng(f"bench-point-{k}")

    # engine_only wraps a fixed producer base in one wide layer
    base_for_engine = hybrid_encrypt(pair.mpk, first_policy,
                                     b"engine-base", draw).ct_abe

    def step(record: bool) -> Iterator[None]:
        sym_key, r = draw(32), draw(32)

        start = time.perf_counter()
        u = encapsulation_randomness(r, sym_key, full_policy.canonical())
        abe_encrypt(pair.mpk, full_policy, sym_key + r, u)
        elapsed = time.perf_counter() - start
        if record:
            point["do_only"].append(elapsed)
        yield

        start = time.perf_counter()
        add_layers(pair.mpk, base_for_engine, [full_policy])
        elapsed = time.perf_counter() - start
        if record:
            point["engine_only"].append(elapsed)
        yield

        # untimed run of the same op first: the preceding engine work grows
        # with k and would otherwise cool the caches under this measurement
        u = encapsulation_randomness(r, sym_key, first_policy.canonical())
        abe_encrypt(pair.mpk, first_policy, sym_key + r, u)

        start = time.perf_counter()
        u = encapsulation_randomness(r, sym_key, first_policy.canonical())
        base = abe_encrypt(pair.mpk, first_policy, sym_key + r, u)
        elapsed = time.perf_counter() - start
        if record:
            point["combined_do"].append(elapsed)
        yield

        if extra_policies:
            layered = LayeredAbeCiphertext(body=base.to_bytes())
            start = time.perf_counter()
            add_layers(pair.mpk, layered, extra_policies)
            elapsed = time.perf_counter() - start
        else:
            elapsed = 0.0
        if record:
            point["combined_engine"].append(elapsed)

    return point, step


def _trim(values: list[float]) -> list[float]:
    """Drop 5% of the samples from each tail; scheduler and allocator
    pauses otherwise dominate microsecond-scale means."""
    cut = int(len(values) * 0.05)
    if cut == 0:
        return values
    return sorted(values)[cut:-cut]


def aggregate_encrypt(samples: dict[int, dict[str, list[float]]],
                      do_profile: float = 1.0,
                      engine_profile: float = 1.0) -> list[dict]:
    """Apply device profiles and reduce raw samples to CSV rows; means and
    deviations are computed over the central 90% of samples."""
    def stats(values: list[float]) -> tuple[float, float]:
        kept = _trim(values)
        mean = statistics.fmean(kept) * 1000.0
        stddev = statistics.stdev(kept) * 1000.0 if len(kept) > 1 else 0.0
        return mean, stddev

    rows = []
    for total_attrs in sorted(samples):
        point = samples[total_attrs]
        do_only = [v * do_profile for v in point["do_only"]]
        engine_only = [v * engine_profile for v in point["engine_only"]]
        combined = [d * do_profile + e * engine_profile
                    for d, e in zip(point["combined_do"], point["combined_engine"])]
        combined_do_ms = stats([v * do_profile for v in point["combined_do"]])[0]
        combined_engine_ms = stats([v * engine_profile
                                    for v in point["combined_engine"]])[0]

        for mode, values, do_ms, engine_ms in (
                ("do_only", do_only, stats(do_only)[0], 0.0),
                ("engine_only", engine_only, 0.0, stats(engine_only)[0]),
                ("combined", combined, combined_do_ms, combined_engine_ms)):
            mean, stddev = stats(values)
            rows.append({
                "total_attributes": total_attrs,
                "mode": mode,
                "mean_ms": round(mean, 6),
                "stddev_ms": round(stddev, 6),
                "do_mean_ms": round(do_ms, 6),
                "engine_mean_ms": round(engine_ms, 6),
            })
    return rows


def run_encrypt_bench(config: BenchConfig) -> tuple[dict, list[dict]]:
    samples = collect_encrypt_samples(config)
    rows = aggregate_encrypt(samples, config.do_profile, config.engine_profile)
    return _metadata("encrypt", config), rows


# ---------------------------------------------------------------------------
# Size series
# ---------------------------------------------------------------------------

def run_size_bench(config: BenchConfig) -> tuple[dict, list[dict]]:
    """Serialized section sizes for a fixed payload across layer counts.

    ``n_layers_total`` counts every encryption layer including the
    producer's base layer, matching how the reported series count layers.
    """
    rng = counter_rng("bench-size")
    pair = setup(256, rng)
    payload = counter_rng("bench-payload")(config.payload_size)
    per_layer = config.attrs_per_layer
    rows = []
    for k in config.layer_counts:
        ct1 = hybrid_encrypt(pair.mpk, _conjunction(1, per_layer), payload, rng)
        layered = ct1.ct_abe
        if k > 1:
            policies = [_conjunction(1 + j * per_layer, per_layer)
                        for j in range(1, k)]
            layered = add_layers(pair.mpk, layered, policies)
        record = ct1.ct_aes
        rows.append({
            "n_layers_total": k,
            "ct_abe_bytes": len(layered.to_bytes()),
            "ct_aes_bytes": len(record.body) + len(record.tag),
        })
    return _metadata("size", config), rows


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_csv(meta: dict, rows: list[dict], columns: list[str],
              out: Path | None) -> str:
    buffer = io.StringIO()
    buffer.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buffer.getvalue()
    if out is not None:
        Path(out).write_text(text, "utf-8")
    return text

