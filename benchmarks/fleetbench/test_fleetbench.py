"""Tests of the fleetbench benchmark itself (scaled-down workloads).

    PYTHONPATH=src python -m pytest benchmarks/fleetbench -q
"""

from __future__ import annotations

import json
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fleet.ingest import MISSING_RECORD, read_stream
from repro.fleet.service import FleetService
from repro.fleet.spec import parse_fleet_spec

from .cli import summarize
from .metrics import GATED, PER_LAYER
from .runpass import EPOCH_SPANS, epoch_violations, run_pass
from .tracer import Tracer
from .workloads import (OMIT_PROB, WORKLOADS, spec_text, workload,
                        workload_seeds, write_wings_stream)

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Buildings per workload in the scaled-down passes.
SMALL = {"campus": 12, "towers": 1, "wings": 4}


def _pass(tmp_path: Path, name: str, seed: int = 3, traced: bool = False,
          epochs: int = 3) -> dict:
    workdir = tmp_path / f"{name}-{seed}-{traced}"
    workdir.mkdir()
    return run_pass(name, seed, epochs, str(workdir), setups=1, resumes=1,
                    traced=traced, buildings=SMALL[name],
                    twin_epochs=2 if workload(name).pooled else 0)


@pytest.fixture(scope="module")
def reports(tmp_path_factory: pytest.TempPathFactory) -> dict:
    tmp = tmp_path_factory.mktemp("passes")
    return {w.name: summarize(_pass(tmp, w.name),
                              _pass(tmp, w.name, traced=True))
            for w in WORKLOADS}


def test_benchmark_json_matches_the_metric_definitions() -> None:
    spec = json.loads(BENCHMARK.read_text())
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in GATED]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in WORKLOADS]
    setup = next(m for m in GATED if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in GATED)


def test_every_benchmark_metric_is_emitted_for_every_workload(
        reports: dict) -> None:
    spec = json.loads(BENCHMARK.read_text())
    for name, report in reports.items():
        assert not report["violations"], name
        assert report["failed"] == 0 and report["attempted"] > 0
        assert report["metrics"]["error_rate"] == 0
        for metric in spec["end_to_end"]:
            assert report["metrics"][metric["name"]] > 0, (name, metric)
        for metric in spec["per_layer"]:
            assert isinstance(report["layers"][metric["name"]], float)


def test_each_workload_stresses_its_layers(reports: dict) -> None:
    towers = reports["towers"]["layers"]
    epoch_ms = towers["service.self_ms"] + sum(
        towers[f"{name}_ms"] for name in EPOCH_SPANS)
    assert towers["solve.phase2_ms"] >= 0.5 * epoch_ms
    wings = reports["wings"]["layers"]
    assert wings["sharding.segments_per_building"] == 3
    assert wings["dispatch.wall_ms"] > 0
    assert wings["solve.phase2_ms"] == 0  # solved in the workers
    assert reports["campus"]["layers"]["sharding.segments_per_building"] == 1


def test_wings_stream_split_quiet_share_and_omissions(
        tmp_path: Path) -> None:
    spec_seed, seq = workload_seeds(5, "wings")
    spec = parse_fleet_spec(spec_text(workload("wings"), spec_seed, 20))
    path = tmp_path / "stream.jsonl"
    stats = write_wings_stream(spec, path, 30, seq)
    assert stats.segments_per_building == 3
    assert stats.quiet_share == 0.5
    assert stats.records + stats.omitted == 30 * 20
    assert 0 < stats.omission_rate < 4 * OMIT_PROB
    stream = read_stream(path.read_text(), spec)
    assert stream.counts == {MISSING_RECORD: stats.omitted}
    unchanged = sum(
        stream.records[(b, e)].wifi.tobytes()
        == stream.records[(b, e - 1)].wifi.tobytes()
        for b in range(20) for e in range(1, 30)
        if (b, e) in stream.records and (b, e - 1) in stream.records)
    present = sum((b, e) in stream.records and (b, e - 1) in stream.records
                  for b in range(20) for e in range(1, 30))
    assert abs(unchanged / present - 0.5) < 0.05


def test_self_times_add_up_to_the_enclosing_span() -> None:
    layers = types.SimpleNamespace()

    def inner() -> None:
        time.sleep(0.002)

    def outer() -> None:
        layers.inner()
        time.sleep(0.001)

    layers.inner, layers.outer = inner, outer
    tracer = Tracer()
    tracer.patch(layers, "inner", "inner")
    tracer.patch(layers, "outer", "outer")
    layers.outer()
    tracer.restore()
    assert layers.inner is inner and layers.outer is outer
    inner_span, outer_span = tracer.spans
    assert inner_span.parent == outer_span.id and outer_span.parent is None
    assert inner_span.self_ns + outer_span.self_ns == outer_span.duration_ns
    assert outer_span.self_ns >= 1_000_000


def test_layers_and_service_self_time_add_up_to_the_epoch(
        reports: dict) -> None:
    for name, report in reports.items():
        layers = report["layers"]
        assert layers["trace.balance"] <= 0.02, name
        assert layers["service.self_ms"] >= 0, name


def test_tampered_report_counts_as_an_error(tmp_path: Path) -> None:
    spec_seed, _ = workload_seeds(2, "campus")
    spec = parse_fleet_spec(spec_text(workload("campus"), spec_seed, 6))
    with FleetService(spec) as service:
        reports, _ = service.run(2)
    report = reports[1]
    assert epoch_violations(report) == []
    assert epoch_violations(
        replace(report, aggregate_mbps=report.aggregate_mbps + 1.0))
    moved = next(b for b in report.buildings if b.directives)
    tampered = replace(moved, delta_mbps=moved.delta_mbps + 1.0)
    assert epoch_violations(replace(report, buildings=tuple(
        tampered if b is moved else b for b in report.buildings)))
    result = _pass(tmp_path, "campus")
    result["failed"] += 1
    assert summarize(result)["metrics"]["error_rate"] > 0


def test_digest_repeats_per_seed_and_changes_across_seeds(
        tmp_path: Path) -> None:
    first = summarize(_pass(tmp_path, "campus", seed=11))["digest"]
    other = summarize(_pass(tmp_path, "campus", seed=12))["digest"]
    assert first != other
    repeat = tmp_path / "repeat"
    repeat.mkdir()
    assert summarize(_pass(repeat, "campus", seed=11))["digest"] == first
