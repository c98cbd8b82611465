"""The fleet's applied associations need no boundary repair.

``FleetService`` applies shard solves that ``solve_wolt`` already
validated, or carried-forward assignments detached from unusable
extenders, on effective scenarios.  These tests check what a repair
would have checked, over seeded specs, chaos levels and telemetry
models, and over a recorded stream with rejected records: after every
epoch, each building's applied assignment names only existing
extenders, puts every attached user on an extender it can reach on
the scenario the epoch decided on, and keeps any per-extender
capacity.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import MIN_USABLE_RATE, UNASSIGNED
from repro.fleet.chaos import FleetFaultModel
from repro.fleet.ingest import (RecordedTelemetry, TelemetrySource,
                                read_stream, record_stream)
from repro.fleet.service import FleetService
from repro.fleet.spec import FleetSpec

from .conftest import max_examples
from .test_fleet_ingest import edit_record, rebuild, stream_lines
from .test_fleet_reuse import CHAOS_LEVELS, TELEMETRY, fleet_spec

EPOCHS = 5


def assert_applied_needs_no_repair(spec: FleetSpec,
                                   source: Optional[TelemetrySource] = None
                                   ) -> None:
    service = FleetService(spec, source=source)
    attached_total = 0
    for epoch in range(EPOCHS):
        service.run_epoch()
        for bstate in service._buildings:
            scenario, _ = bstate.last_observed
            assign = bstate.assignment
            assert assign.shape == (scenario.n_users,), epoch
            users = np.flatnonzero(assign != UNASSIGNED)
            extenders = assign[users]
            assert np.all((extenders >= 0)
                          & (extenders < scenario.n_extenders)), epoch
            assert np.all(scenario.wifi_rates[users, extenders]
                          > MIN_USABLE_RATE), (epoch, bstate.name)
            if scenario.capacities is not None:
                load = np.bincount(extenders,
                                   minlength=scenario.n_extenders)
                assert np.all(load <= scenario.capacities), epoch
            attached_total += users.size
    assert attached_total > 0


@given(seed=st.integers(0, 2**16),
       telemetry=st.sampled_from(sorted(TELEMETRY)),
       level=st.sampled_from(CHAOS_LEVELS))
@settings(max_examples=max_examples(8), deadline=None)
def test_boundary_repair_never_fires(seed: int, telemetry: str,
                                     level: float) -> None:
    assert_applied_needs_no_repair(replace(
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
    assert_applied_needs_no_repair(spec, RecordedTelemetry(stream, spec))
