"""Smoke test of the served-path benchmark at tiny sizes.

    python -m pytest -q servedbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY = {name: replace(spec, payload_bytes=min(spec.payload_bytes, 2048), preload=1,
                      cycles=4, updates=2, checks=1)
        for name, spec in bench.WORKLOADS.items()}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)


def run_bench(capsys, workload: str, trace: int, seed: int = 7) -> tuple[dict, list[str]]:
    code = bench.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), lines


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed_with_unit(capsys, workload):
    untraced, lines = run_bench(capsys, workload, trace=0)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] > 0
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        printed = untraced["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"] and printed["value"] > 0
    for name in ("failed_ratio",) + bench.REPORT_ONLY:
        assert any(line.startswith(name + " ") for line in lines)

    traced, lines = run_bench(capsys, workload, trace=1)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        printed = traced["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"] and printed["value"] > 0
    assert any(line.startswith("overhead.fetch_ms_p50") for line in lines)
    assert any(line.startswith("# secret scan:") and " 0 leaks" in line for line in lines)


def test_counts_repeat_for_one_seed(capsys):
    counts = []
    for _ in range(2):
        _, lines = run_bench(capsys, "update-fanout", trace=1)
        counts.append(json.loads(next(l for l in lines if l.startswith("# counts "))[9:]))
    assert counts[0] == counts[1]
    assert counts[0]["storage.records_read_per_record_updated"] == 2.0


def mlabe_attributes() -> dict[tuple[str, str], object]:
    originals = {id(vars(owner)[attr]) for _, owner, attr in tracing.TARGETS}
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("mlabe"):
            for attr, value in vars(module).items():
                if id(value) in originals:
                    found[name, attr] = value
    for _, owner, attr in tracing.TARGETS:
        found[owner.__name__, attr] = vars(owner)[attr]
    return found


def test_traced_run_restores_every_wrapped_attribute(capsys):
    before = mlabe_attributes()
    tracer = tracing.Tracer()
    with tracer.installed():
        wrapped = {key for key, value in mlabe_attributes().items() if value is not before[key]}
        assert {("mlabe.exchange.services", "add_layers"),
                ("mlabe.multilayer", "abe_encrypt"),
                ("CtStore", "by_policy")} <= wrapped
        assert len(tracer.patched) >= len(tracing.TARGETS)
    assert not tracer.patched
    run_bench(capsys, "deep-16l", trace=1)
    after = mlabe_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
