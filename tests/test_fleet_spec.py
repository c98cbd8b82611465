"""Tests for the YAML fleet-spec schema: parsing, validation,
generate-block expansion, and topology determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet.spec import (BuildingSpec, FleetSpec, HealthSettings,
                              TelemetryModel, build_building_scenario,
                              load_fleet_spec, parse_fleet_spec)

FULL_SPEC = """
fleet:
  name: campus
  seed: 9
  plc_mode: active
buildings:
  - name: hq
    extenders: 4
    users: 8
    circuits: [a, a, b, b]
generate:
  - prefix: b
    count: 12
    extenders: 3
    users: 6
telemetry:
  wifi_jitter: 0.02
  plc_jitter: 0.05
  dropout: 0.01
health:
  flap_band: 0.4
  flap_strikes: 3
  probation_epochs: 5
"""


class TestParsing:
    def test_full_spec_round_trips(self):
        spec = parse_fleet_spec(FULL_SPEC)
        assert spec.name == "campus"
        assert spec.seed == 9
        assert spec.plc_mode == "active"
        assert spec.n_buildings == 13
        assert spec.n_users == 8 + 12 * 6
        assert spec.buildings[0] == BuildingSpec(
            name="hq", n_extenders=4, n_users=8,
            circuits=("a", "a", "b", "b"))
        assert spec.telemetry == TelemetryModel(
            wifi_jitter=0.02, plc_jitter=0.05, dropout=0.01)
        assert spec.health == HealthSettings(
            flap_band=0.4, flap_strikes=3, probation_epochs=5)

    def test_generate_names_are_zero_padded(self):
        spec = parse_fleet_spec(FULL_SPEC)
        generated = [b.name for b in spec.buildings[1:]]
        assert generated[0] == "b00"
        assert generated[-1] == "b11"
        assert len(set(generated)) == 12

    def test_defaults(self):
        spec = parse_fleet_spec(
            "buildings:\n  - {name: x, extenders: 2, users: 3}\n")
        assert spec.name == "fleet"
        assert spec.seed == 0
        assert spec.plc_mode == "redistribute"
        assert spec.telemetry == TelemetryModel()
        assert spec.health == HealthSettings()
        assert spec.buildings[0].circuits is None

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "fleet.yaml"
        path.write_text(FULL_SPEC, encoding="utf-8")
        assert load_fleet_spec(path) == parse_fleet_spec(FULL_SPEC)

    def test_params_echo_is_json_stable(self):
        spec = parse_fleet_spec(FULL_SPEC)
        import json
        assert (json.loads(json.dumps(spec.params()))
                == spec.params())


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_fleet_spec("bogus: 1\n")

    def test_unknown_building_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_fleet_spec(
                "buildings:\n"
                "  - {name: x, extenders: 2, users: 3, floor: 4}\n")

    def test_bad_plc_mode_rejected(self):
        with pytest.raises(ValueError, match="plc_mode"):
            parse_fleet_spec(
                "fleet: {plc_mode: turbo}\n"
                "buildings:\n  - {name: x, extenders: 2, users: 3}\n")

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one building"):
            parse_fleet_spec("fleet: {name: empty}\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_fleet_spec(
                "buildings:\n"
                "  - {name: x, extenders: 2, users: 3}\n"
                "  - {name: x, extenders: 2, users: 3}\n")

    def test_bool_is_not_an_integer(self):
        # isinstance(True, int) is True in Python, so without the
        # explicit bool reject a YAML `extenders: true` parses as 1.
        with pytest.raises(ValueError, match="must be an integer"):
            parse_fleet_spec(
                "buildings:\n"
                "  - {name: x, extenders: true, users: 3}\n")

    def test_bool_is_not_a_seed(self):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_fleet_spec(
                "fleet: {name: f, seed: true}\n"
                "buildings:\n"
                "  - {name: x, extenders: 2, users: 3}\n")

    def test_bool_is_not_a_float(self):
        # float(True) is silently 1.0 — `wifi_jitter: true` would be
        # a 100% jitter; every float knob must reject YAML booleans.
        for block in ("telemetry: {wifi_jitter: true}",
                      "telemetry: {plc_jitter: yes}",
                      "telemetry: {dropout: true}",
                      "health: {flap_band: true}",
                      "health: {shard_timeout_s: true}",
                      "chaos: {level: true}",
                      "chaos: {blackout_prob: true}"):
            with pytest.raises(ValueError, match="must be a number"):
                parse_fleet_spec(
                    "buildings:\n"
                    "  - {name: x, extenders: 2, users: 3}\n"
                    + block + "\n")

    @pytest.mark.parametrize("block", [
        "health: {flap_band: .nan}",
        "health: {shard_timeout_s: .nan}",
        "telemetry: {wifi_jitter: .nan}",
        "telemetry: {plc_jitter: .inf}",
    ])
    def test_non_finite_float_rejected(self, block):
        # A NaN flap band never detects a flap and an infinite jitter
        # serves 0 Mbps every epoch; both used to parse and run.
        with pytest.raises(ValueError, match="must be finite"):
            parse_fleet_spec(
                "buildings:\n"
                "  - {name: x, extenders: 2, users: 3}\n"
                + block + "\n")

    def test_flap_band_must_be_positive(self):
        with pytest.raises(ValueError, match="flap_band"):
            HealthSettings(flap_band=0.0)
        with pytest.raises(ValueError, match="flap_band"):
            HealthSettings(flap_band=float("nan"))

    def test_non_numeric_float_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            parse_fleet_spec(
                "buildings:\n"
                "  - {name: x, extenders: 2, users: 3}\n"
                "telemetry: {dropout: lots}\n")

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_fleet_spec("buildings:\n  - {name: x, users: 3}\n")

    def test_circuit_count_must_match_extenders(self):
        with pytest.raises(ValueError, match="circuit"):
            BuildingSpec(name="x", n_extenders=3, n_users=2,
                         circuits=("a",))

    def test_dropout_must_be_probability(self):
        with pytest.raises(ValueError, match="probability"):
            TelemetryModel(dropout=1.5)

    def test_generate_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            parse_fleet_spec(
                "generate:\n"
                "  - {prefix: b, count: 0, extenders: 2, users: 3}\n")

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            parse_fleet_spec("- just\n- a\n- list\n")


class TestTopologyDeterminism:
    def test_scenario_is_pure_in_spec(self):
        spec = parse_fleet_spec(FULL_SPEC)
        a = build_building_scenario(spec, 3)
        b = build_building_scenario(spec, 3)
        np.testing.assert_array_equal(a.wifi_rates, b.wifi_rates)
        np.testing.assert_array_equal(a.plc_rates, b.plc_rates)

    def test_other_buildings_do_not_shift_the_stream(self):
        # Dropping buildings after index 1 must not change building 1:
        # topology is seeded per-building, not sequentially.
        spec = parse_fleet_spec(FULL_SPEC)
        trimmed = FleetSpec(name=spec.name, seed=spec.seed,
                            plc_mode=spec.plc_mode,
                            buildings=spec.buildings[:2],
                            telemetry=spec.telemetry,
                            health=spec.health)
        full = build_building_scenario(spec, 1)
        cut = build_building_scenario(trimmed, 1)
        np.testing.assert_array_equal(full.wifi_rates, cut.wifi_rates)

    def test_seed_changes_the_floor(self):
        spec = parse_fleet_spec(FULL_SPEC)
        other = FleetSpec(name=spec.name, seed=spec.seed + 1,
                          plc_mode=spec.plc_mode,
                          buildings=spec.buildings,
                          telemetry=spec.telemetry, health=spec.health)
        assert not np.array_equal(
            build_building_scenario(spec, 0).wifi_rates,
            build_building_scenario(other, 0).wifi_rates)


class TestHealthKnobs:
    def test_new_health_keys_parse(self):
        spec = parse_fleet_spec(
            "buildings:\n  - {name: x, extenders: 2, users: 3}\n"
            "health:\n"
            "  shard_timeout_s: 45.0\n"
            "  retry_budget: 2\n"
            "  breaker_strikes: 4\n"
            "  breaker_probation_epochs: 3\n")
        assert spec.health.shard_timeout_s == 45.0
        assert spec.health.retry_budget == 2
        assert spec.health.breaker_strikes == 4
        assert spec.health.breaker_probation_epochs == 3

    def test_shard_timeout_defaults_to_none(self):
        spec = parse_fleet_spec(
            "buildings:\n  - {name: x, extenders: 2, users: 3}\n")
        assert spec.health.shard_timeout_s is None
        assert spec.health.retry_budget == 1

    @pytest.mark.parametrize("line,match", [
        ("shard_timeout_s: 0", "shard_timeout_s"),
        ("shard_timeout_s: -3", "shard_timeout_s"),
        ("retry_budget: -1", "retry_budget"),
        ("breaker_strikes: 0", "breaker_strikes"),
        ("breaker_probation_epochs: 0", "breaker_probation_epochs"),
    ])
    def test_bad_health_knobs_rejected(self, line, match):
        with pytest.raises(ValueError, match=match):
            parse_fleet_spec(
                "buildings:\n  - {name: x, extenders: 2, users: 3}\n"
                f"health: {{{line}}}\n")

    def test_breaker_knobs_are_fingerprinted(self):
        base = parse_fleet_spec(
            "buildings:\n  - {name: x, extenders: 2, users: 3}\n")
        params = base.params()
        assert params["health"]["breaker_strikes"] == 3
        assert params["health"]["breaker_probation_epochs"] == 2
        # Operational knobs stay out of the experiment identity.
        assert "shard_timeout_s" not in params["health"]
        assert "retry_budget" not in params["health"]


class TestChaosBlock:
    BASE = "buildings:\n  - {name: x, extenders: 2, users: 3}\n"

    def test_absent_block_means_no_model(self):
        assert parse_fleet_spec(self.BASE).chaos is None

    def test_level_shorthand(self):
        spec = parse_fleet_spec(
            self.BASE + "chaos: {level: 0.6, until_epoch: 5}\n")
        assert spec.chaos is not None
        assert spec.chaos.blackout_prob == pytest.approx(0.15)
        assert spec.chaos.crash_prob == pytest.approx(0.2)
        assert spec.chaos.hang_prob == pytest.approx(0.1)
        assert spec.chaos.until_epoch == 5

    def test_explicit_rates(self):
        spec = parse_fleet_spec(
            self.BASE + "chaos:\n"
            "  blackout_prob: 0.1\n"
            "  crash_prob: 0.2\n"
            "  crash_attempts: 3\n"
            "  hang_prob: 0.05\n"
            "  hang_s: 30.0\n")
        assert spec.chaos is not None
        assert spec.chaos.crash_attempts == 3
        assert spec.chaos.hang_s == 30.0
        assert spec.chaos.until_epoch is None

    def test_level_mixed_with_rates_rejected(self):
        with pytest.raises(ValueError, match="shorthand"):
            parse_fleet_spec(
                self.BASE + "chaos: {level: 0.5, crash_prob: 0.1}\n")

    def test_unknown_chaos_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_fleet_spec(self.BASE + "chaos: {intensity: 0.5}\n")

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            parse_fleet_spec(self.BASE + "chaos: {crash_prob: 1.5}\n")

    def test_nontrivial_chaos_reaches_params(self):
        stormy = parse_fleet_spec(
            self.BASE + "chaos: {crash_prob: 0.2}\n")
        assert stormy.params()["chaos"]["crash_prob"] == 0.2
        # An all-zero model is identical to no model at all.
        calm = parse_fleet_spec(
            self.BASE + "chaos: {blackout_prob: 0.0}\n")
        assert "chaos" not in calm.params()
        assert calm.params() == parse_fleet_spec(self.BASE).params()
