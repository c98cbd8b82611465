"""The three fleetbench workloads and the generator of the wings stream.

A workload is a fleet shape plus the way ``wolt serve`` is driven over
it.  Workload seeds come from the benchmark's ``--seed`` through
``SeedSequence``: workload ``i`` takes child ``i`` of
``SeedSequence(seed)``, and that child spawns the spec seed and (for
wings) the stream seed.  The program only ever sees the generated spec
and stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np
import yaml

from repro.core.problem import Scenario
from repro.fleet.ingest import TelemetryRecord, _signed_line, record_stream
from repro.fleet.sharding import split_segments
from repro.fleet.spec import (FleetSpec, build_building_scenario,
                              synthesize_observation)
from repro.sim.checkpoint import atomic_write_text

__all__ = ["OMIT_PROB", "WORKLOADS", "StreamStats", "Workload",
           "spec_text", "workload", "workload_seeds",
           "write_wings_stream"]

#: Per-record omission probability of the wings stream from epoch 1 on.
OMIT_PROB = 0.01


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name (``--workload``).
        why: the layer property the workload was chosen for.
        buildings: building count of the spec.
        extenders: extenders per building.
        users: users per building.
        telemetry: the spec's telemetry block.
        circuits: per-extender PLC circuit labels (``None``: one circuit).
        recorded: replay a generated stream through ``RecordedTelemetry``
            instead of synthesizing telemetry in-process.
        pooled: dispatch shards to ``min(2, cpus)`` worker processes
            under a 30 s shard deadline instead of solving serially.
        nominal_epoch_s: steady-state epoch time on the reference box
            (2 CPUs), which turns ``--seconds`` into an epoch count.
    """

    name: str
    why: str
    buildings: int
    extenders: int
    users: int
    telemetry: Tuple[Tuple[str, float], ...]
    nominal_epoch_s: float
    circuits: Optional[Tuple[str, ...]] = None
    recorded: bool = False
    pooled: bool = False


WORKLOADS = (
    Workload(
        name="campus",
        why="many tiny one-segment buildings served serially, so fixed "
            "per-call costs (directive scoring, Phase I, split) dominate",
        buildings=500, extenders=3, users=6,
        telemetry=(("plc_jitter", 0.05),), nominal_epoch_s=0.4),
    Workload(
        name="towers",
        why="a few paper-scale floors (15 extenders, 124 users) served "
            "serially, so Phase II local search dominates",
        buildings=5, extenders=15, users=124,
        telemetry=(("wifi_jitter", 0.05), ("plc_jitter", 0.10),
                   ("dropout", 0.02)), nominal_epoch_s=0.8),
    Workload(
        name="wings",
        why="recorded replay of 3-segment buildings on a worker pool with "
            "deadlines; half the buildings re-send unchanged reports",
        buildings=50, extenders=12, users=48,
        telemetry=(("wifi_jitter", 0.05), ("plc_jitter", 0.05)),
        nominal_epoch_s=0.4, circuits=("a",) * 4 + ("b",) * 4 + ("c",) * 4,
        recorded=True, pooled=True),
)


def workload(name: str) -> Workload:
    """The workload called ``name``."""
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise ValueError(f"unknown workload {name!r}; one of "
                     f"{[w.name for w in WORKLOADS]}")


def workload_seeds(seed: int,
                   name: str) -> Tuple[int, np.random.SeedSequence]:
    """``(spec_seed, stream_seed_sequence)`` of one workload."""
    index = [w.name for w in WORKLOADS].index(name)
    child = np.random.SeedSequence(seed).spawn(len(WORKLOADS))[index]
    spec_seq, stream_seq = child.spawn(2)
    return int(spec_seq.generate_state(1)[0]), stream_seq


def spec_text(load: Workload, spec_seed: int,
              buildings: Optional[int] = None) -> str:
    """The YAML fleet spec of a workload (``buildings`` scales it down)."""
    block: Dict[str, Any] = {
        "prefix": load.name[0], "count": buildings or load.buildings,
        "extenders": load.extenders, "users": load.users}
    if load.circuits is not None:
        block["circuits"] = list(load.circuits)
    document: Dict[str, Any] = {
        "fleet": {"name": f"fleetbench-{load.name}", "seed": spec_seed,
                  "plc_mode": "redistribute"},
        "generate": [block],
        "telemetry": dict(load.telemetry)}
    if load.pooled:
        document["health"] = {"shard_timeout_s": 30.0}
    return yaml.safe_dump(document, sort_keys=False)


@dataclass(frozen=True)
class StreamStats:
    """What the wings generator wrote."""

    buildings: int
    epochs: int
    records: int
    omitted: int
    quiet_buildings: int
    segments_per_building: float

    @property
    def quiet_share(self) -> float:
        """Measured share of buildings that re-send their last report."""
        return self.quiet_buildings / self.buildings

    @property
    def omission_rate(self) -> float:
        """Omitted records over the records eligible (epoch >= 1)."""
        eligible = (self.epochs - 1) * self.buildings
        return self.omitted / eligible if eligible else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"records": self.records, "omitted": self.omitted,
                "omission_rate": self.omission_rate,
                "quiet_share": self.quiet_share,
                "segments_per_building": self.segments_per_building}


def _home_wing_scenario(spec: FleetSpec, building: int) -> Scenario:
    """The as-built floor with each user hearing only its home wing.

    A user's home wing is the circuit of its best as-built extender, so
    no user couples two circuits and every building splits into one
    segment per circuit.
    """
    true = build_building_scenario(spec, building)
    circuits = np.asarray(spec.buildings[building].circuits)
    home = circuits[np.argmax(true.wifi_rates, axis=1)]
    hears = circuits[np.newaxis, :] == home[:, np.newaxis]
    return Scenario(wifi_rates=np.where(hears, true.wifi_rates, 0.0),
                    plc_rates=true.plc_rates)


def write_wings_stream(spec: FleetSpec, path: Union[str, Path],
                       epochs: int,
                       seq: np.random.SeedSequence) -> StreamStats:
    """Write the wings telemetry stream and report what it holds.

    Every building reports drifted home-wing telemetry at epoch 0.
    From epoch 1 a random half of the buildings (the *quiet* ones)
    re-send their previous report, and every record is omitted with
    probability :data:`OMIT_PROB`.  The header is the one
    :func:`~repro.fleet.ingest.record_stream` writes, re-signed for the
    full epoch window.
    """
    rng = np.random.default_rng(seq)
    n = spec.n_buildings
    quiet = np.zeros(n, dtype=bool)
    quiet[rng.permutation(n)[:n // 2]] = True
    header = json.loads(record_stream(spec, 1).split("\n", 1)[0])
    header["epochs"] = epochs
    lines = [_signed_line(header)]
    floors = []
    segments = 0
    for b, building in enumerate(spec.buildings):
        floor = _home_wing_scenario(spec, b)
        n_segments = len(split_segments(floor, circuits=building.circuits))
        if n_segments != len(set(building.circuits or ())):
            raise RuntimeError(
                f"wings building {building.name} splits into "
                f"{n_segments} segments, expected one per circuit")
        floors.append(floor)
        segments += n_segments
    last: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    omitted = 0
    for epoch in range(epochs):
        for b, building in enumerate(spec.buildings):
            if epoch == 0 or not quiet[b]:
                last[b] = synthesize_observation(spec, floors[b], b, epoch)
            if epoch > 0 and rng.random() < OMIT_PROB:
                omitted += 1
                continue
            wifi, plc = last[b]
            lines.append(TelemetryRecord(building=building.name,
                                         epoch=epoch, wifi=wifi,
                                         plc=plc).encode())
    atomic_write_text(path, "\n".join(lines) + "\n")
    return StreamStats(buildings=n, epochs=epochs,
                       records=len(lines) - 1, omitted=omitted,
                       quiet_buildings=int(quiet.sum()),
                       segments_per_building=segments / n)
