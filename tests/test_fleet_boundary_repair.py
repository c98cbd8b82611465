"""The fleet's boundary repair never fires.

``FleetService`` runs one ``DecisionGuard.repair_assignment`` per
building decision.  What it checks are shard solves that
``solve_wolt`` already validated, or carried-forward assignments, on
effective scenarios with no capacities, so it should find nothing to
repair.  These tests check that over seeded specs, chaos levels and
telemetry models, and over a recorded stream with rejected records:
every repair, one per building per epoch, returns its input byte for
byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, List, Optional
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guard import DecisionGuard
from repro.fleet.chaos import FleetFaultModel
from repro.fleet.ingest import (RecordedTelemetry, TelemetrySource,
                                read_stream, record_stream)
from repro.fleet.service import FleetService
from repro.fleet.spec import FleetSpec

from .conftest import max_examples
from .test_fleet_ingest import edit_record, rebuild, stream_lines
from .test_fleet_reuse import CHAOS_LEVELS, TELEMETRY, fleet_spec

EPOCHS = 5


@contextmanager
def repair_calls() -> Iterator[List[bool]]:
    """Record each ``repair_assignment`` call: whether its output
    bytes (and dtype) equal its input's."""
    calls: List[bool] = []
    real = DecisionGuard.repair_assignment

    def spy(guard: DecisionGuard, scenario, assignment):
        out = real(guard, scenario, assignment)
        before = np.asarray(assignment)
        calls.append(out.dtype == before.dtype
                      and out.tobytes() == before.tobytes())
        return out

    with mock.patch.object(DecisionGuard, "repair_assignment", spy):
        yield calls


def assert_repair_never_fires(spec: FleetSpec,
                              source: Optional[TelemetrySource] = None
                              ) -> None:
    service = FleetService(spec, source=source)
    with repair_calls() as calls:
        for epoch in range(EPOCHS):
            service.run_epoch()
            assert all(calls), (epoch, calls)
    assert len(calls) == EPOCHS * spec.n_buildings


@given(seed=st.integers(0, 2**16),
       telemetry=st.sampled_from(sorted(TELEMETRY)),
       level=st.sampled_from(CHAOS_LEVELS))
@settings(max_examples=max_examples(8), deadline=None)
def test_boundary_repair_never_fires(seed: int, telemetry: str,
                                     level: float) -> None:
    assert_repair_never_fires(replace(
        fleet_spec(seed, telemetry),
        chaos=FleetFaultModel.from_level(level)))


def test_boundary_repair_never_fires_on_a_dirty_stream() -> None:
    spec = fleet_spec(7, "jitter")
    lines = stream_lines(record_stream(spec, EPOCHS))
    header, records = lines[0], lines[1:]
    per_epoch = spec.n_buildings
    records[1] = edit_record(records[1], building="phantom")
    records[per_epoch + 2] = records[per_epoch + 2][:-9]  # torn line
    del records[2 * per_epoch]  # a missing record
    records.insert(3 * per_epoch + 1, records[per_epoch])  # stale
    stream = read_stream(rebuild(header, records), spec)
    assert len(stream.counts) >= 3
    assert_repair_never_fires(spec, RecordedTelemetry(stream, spec))
