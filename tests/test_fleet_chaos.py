"""Tests for fleet-level chaos engineering: the FleetFaultModel
(validation, determinism, exclusivity), telemetry-blackout semantics,
zero-fault identity, chaos journal fingerprinting, torn-tail healing,
and the acceptance gate's own guard rails."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.fleet.chaos import FleetFaultModel
from repro.fleet.service import FleetService, format_epoch
from repro.fleet.spec import parse_fleet_spec
from repro.sim.checkpoint import CheckpointError, TrialStore, fingerprint
from repro.sim.faults import InjectedCrash
from scripts.gates.fleet_chaos import (acceptance_failures, gate_spec,
                                       tear_journal_tail)

SMOKE = """
fleet: {name: smoke, seed: 7, plc_mode: redistribute}
buildings:
  - {name: hq, extenders: 4, users: 8, circuits: [a, a, b, b]}
generate:
  - {prefix: b, count: 2, extenders: 3, users: 5}
telemetry: {wifi_jitter: 0.03, plc_jitter: 0.08}
"""


def smoke_spec():
    return parse_fleet_spec(SMOKE)


class TestFaultModelValidation:
    @pytest.mark.parametrize("field", ["blackout_prob", "crash_prob",
                                       "hang_prob"])
    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, field, rate):
        with pytest.raises(ValueError, match=field):
            FleetFaultModel(**{field: rate})

    def test_crash_and_hang_share_one_draw(self):
        with pytest.raises(ValueError, match="exclusive"):
            FleetFaultModel(crash_prob=0.7, hang_prob=0.7)

    def test_crash_attempts_must_be_positive(self):
        with pytest.raises(ValueError, match="crash_attempts"):
            FleetFaultModel(crash_attempts=0)

    def test_hang_duration_must_be_positive(self):
        with pytest.raises(ValueError, match="hang_s"):
            FleetFaultModel(hang_s=0.0)

    def test_until_epoch_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="until_epoch"):
            FleetFaultModel(until_epoch=-1)

    def test_from_level_bounds(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError, match="chaos level"):
                FleetFaultModel.from_level(bad)

    def test_from_level_composes_all_families(self):
        model = FleetFaultModel.from_level(0.6, until_epoch=4)
        assert model.blackout_prob == pytest.approx(0.15)
        assert model.crash_prob == pytest.approx(0.2)
        assert model.hang_prob == pytest.approx(0.1)
        # Crashes must outlast the default retry budget of 1 so the
        # carry-forward path is exercised, not just the retry path.
        assert model.crash_attempts == 2
        assert model.until_epoch == 4

    def test_trivial_and_active(self):
        assert FleetFaultModel().trivial
        assert not FleetFaultModel().active(0)
        storm = FleetFaultModel(crash_prob=0.5, until_epoch=3)
        assert not storm.trivial
        assert storm.active(2)
        assert not storm.active(3)
        forever = FleetFaultModel(blackout_prob=0.1)
        assert forever.active(10_000)


class TestDrawing:
    def test_blackout_is_deterministic(self):
        model = FleetFaultModel(blackout_prob=0.5)
        draws = [model.blackout(7, b, e)
                 for b in range(4) for e in range(16)]
        again = [model.blackout(7, b, e)
                 for b in range(4) for e in range(16)]
        assert draws == again
        assert any(draws) and not all(draws)

    def test_blackout_respects_until_epoch(self):
        model = FleetFaultModel(blackout_prob=1.0, until_epoch=2)
        assert model.blackout(7, 0, 1)
        assert not model.blackout(7, 0, 2)

    def test_shard_plan_is_deterministic_and_exclusive(self):
        model = FleetFaultModel(crash_prob=0.4, hang_prob=0.4)
        plan = model.shard_plan(7, 3, 64)
        again = model.shard_plan(7, 3, 64)
        assert plan.crashed == again.crashed
        assert plan.hung == again.hung
        assert plan.crashed and plan.hung
        assert not set(plan.crashed) & set(plan.hung)

    def test_shard_plan_empty_cases(self):
        assert FleetFaultModel(blackout_prob=0.5).shard_plan(7, 0, 8).empty
        assert FleetFaultModel(crash_prob=1.0).shard_plan(7, 0, 0).empty
        cleared = FleetFaultModel(crash_prob=1.0, until_epoch=1)
        assert cleared.shard_plan(7, 1, 8).empty
        assert cleared.shard_plan(7, 1, 8).schedule is None

    def test_schedule_is_picklable_and_crashes_planned_shards(self):
        model = FleetFaultModel(crash_prob=1.0, crash_attempts=2)
        plan = model.shard_plan(7, 0, 3)
        assert plan.crashed == (0, 1, 2)
        schedule = pickle.loads(pickle.dumps(plan.schedule))
        with pytest.raises(InjectedCrash):
            schedule(0, 0)
        with pytest.raises(InjectedCrash):
            schedule(0, 1)
        schedule(0, 2)  # third attempt survives


class TestBlackoutSemantics:
    def test_blackout_reuses_the_previous_report(self):
        spec = smoke_spec()
        storm = FleetFaultModel(blackout_prob=1.0, until_epoch=2)
        clean = FleetService(spec)
        dark = FleetService(replace(spec, chaos=storm))
        clean_texts = [format_epoch(clean.run_epoch())
                       for _ in range(4)]
        dark_texts = []
        dark_reports = []
        for _ in range(4):
            report = dark.run_epoch()
            dark_reports.append(report)
            dark_texts.append(format_epoch(report))
        # Epoch 0 has no previous report to lose: blackout degrades to
        # a normal observation, so epoch 0 matches the clean run.
        assert dark_texts[0] == clean_texts[0]
        # Epoch 1 re-decides from the epoch-0 report: the scenario is
        # unchanged, so the solve lands on the same assignment and the
        # aggregate holds steady while the clean run moves on.
        assert dark_texts[1] != clean_texts[1]
        assert dark_reports[1].aggregate_mbps == pytest.approx(
            dark_reports[0].aggregate_mbps)
        assert not dark_reports[1].directives
        # The storm clears at epoch 2; by epoch 3 the dark fleet has
        # converged back onto the clean twin exactly.
        assert dark_texts[3] == clean_texts[3]


class TestZeroFaultIdentity:
    def test_zero_fault_model_is_bit_identical_to_none(self):
        spec = smoke_spec()
        clean = FleetService(spec)
        zero = FleetService(replace(spec, chaos=FleetFaultModel()))
        for _ in range(3):
            assert format_epoch(zero.run_epoch()) == format_epoch(
                clean.run_epoch())

    def test_trivial_model_keeps_the_clean_fingerprint(self, tmp_path):
        spec = smoke_spec()
        path = str(tmp_path / "fleet.jsonl")
        with FleetService(replace(spec, chaos=FleetFaultModel()),
                          journal=path) as service:
            service.run_epoch()
        # A clean (model-free) resume accepts the journal: trivial
        # models never reach the fingerprint.
        with FleetService(spec, journal=path, resume=True) as resumed:
            assert resumed.epoch == 1

    def test_nontrivial_model_changes_the_fingerprint(self, tmp_path):
        spec = smoke_spec()
        storm = FleetFaultModel(crash_prob=0.25)
        path = str(tmp_path / "fleet.jsonl")
        stormy = replace(spec, chaos=storm)
        with FleetService(stormy, journal=path) as service:
            service.run_epoch()
        with pytest.raises(CheckpointError):
            FleetService(spec, journal=path, resume=True)
        with FleetService(stormy, journal=path, resume=True) as resumed:
            assert resumed.epoch == 1

    def test_operational_knobs_stay_out_of_the_fingerprint(self):
        spec = smoke_spec()
        tuned = replace(spec, health=replace(
            spec.health, shard_timeout_s=30.0, retry_budget=5))
        # Deadlines and retry budgets are deployment knobs, not
        # science: changing them must not orphan existing journals.
        assert fingerprint(tuned.params()) == fingerprint(spec.params())
        # Breaker thresholds change which epochs solve at all, so they
        # *are* part of the experiment identity.
        strict = replace(spec, health=replace(
            spec.health, breaker_strikes=1))
        assert fingerprint(strict.params()) != fingerprint(
            spec.params())


class TestTornTail:
    def test_torn_tail_is_healed_on_resume(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        params = {"kind": "torn-tail-test"}
        store = TrialStore(path, fingerprint(params), params=params)
        store.append(0, {"value": 1})
        store.close()
        clean_bytes = (tmp_path / "store.jsonl").read_bytes()
        tear_journal_tail(path)
        assert (tmp_path / "store.jsonl").read_bytes() != clean_bytes
        resumed = TrialStore(path, fingerprint(params), params=params,
                             resume=True)
        assert set(resumed.records) == {0}
        resumed.close()
        assert (tmp_path / "store.jsonl").read_bytes() == clean_bytes


class TestAcceptanceGate:
    def test_gate_spec_is_a_valid_hair_trigger_fleet(self):
        spec = gate_spec()
        assert spec.n_buildings == 3
        assert spec.telemetry.dropout == 0.0
        assert spec.health.breaker_strikes == 1
        assert spec.health.retry_budget == 1

    def test_gate_requires_post_storm_epochs(self):
        with pytest.raises(ValueError, match="clear_after"):
            acceptance_failures(epochs=3, clear_after=3)
