"""Fleet directive scoring: the incremental path against a scalar oracle.

``repro.fleet.service.score_directives`` scores each epoch's directives
with one :class:`~repro.net.engine.DeltaEvaluator` per building, seeded
with the old association (its aggregate is the baseline, with no
scalar ``evaluate``), and one commit per moved user.
``tests.oracles.score_directives_scalar`` is the loop it replaced (one
full ``evaluate`` per moved user); the property below asserts ``==`` on
the baseline, the final aggregate and every directive, and the engine
counters show no scalar pass and one delta move per moved user.

The service-level test then checks the fleet invariants the scoring
feeds, over seeded specs with quarantine and chaos shard failures: each
building's aggregate is a full ``evaluate`` of its applied assignment
under the epoch's effective scenario, bit for bit, and its directive
deltas sum to its building delta.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import UNASSIGNED, Scenario
from repro.fleet import parse_fleet_spec
from repro.fleet.chaos import FleetFaultModel
from repro.fleet.service import FleetService, score_directives
from repro.net.engine import count_engine_calls, evaluate
from repro.plc.sharing import PLC_MODES

from .conftest import max_examples, random_scenario
from .oracles import score_directives_scalar


def _masked(scenario: Scenario, quarantined: np.ndarray) -> Scenario:
    """Zero quarantined extenders the way ``FleetService._observe`` does."""
    wifi = scenario.wifi_rates.copy()
    plc = scenario.plc_rates.copy()
    wifi[:, quarantined] = 0.0
    plc[quarantined] = 0.0
    return Scenario(wifi_rates=wifi, plc_rates=plc)


def _draw(rng: np.random.Generator, scenario: Scenario,
          unassigned_share: float) -> np.ndarray:
    """A per-user assignment over ``scenario``'s reachable extenders."""
    out = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    for user in range(scenario.n_users):
        reachable = scenario.reachable(user)
        if reachable.size and rng.random() >= unassigned_share:
            out[user] = int(rng.choice(reachable))
    return out


class TestScoreDirectivesOracle:
    @given(st.integers(1, 14), st.integers(1, 5), st.integers(0, 2**31 - 1),
           st.sampled_from(PLC_MODES), st.sampled_from([0.0, 0.3, 1.0]),
           st.integers(0, 2))
    @settings(max_examples=max_examples(120), deadline=None)
    def test_matches_one_evaluate_per_move(self, n_users, n_ext, seed,
                                           plc_mode, unassigned_share,
                                           n_quarantined):
        rng = np.random.default_rng(seed)
        built = random_scenario(rng, n_users=n_users, n_extenders=n_ext,
                                reachable_prob=0.7)
        # ``old`` was decided before this epoch's quarantine, so some of
        # its users sit on extenders the effective scenario masks out.
        old = _draw(rng, built, unassigned_share)
        quarantined = rng.choice(n_ext, size=min(n_quarantined, n_ext - 1),
                                 replace=False)
        scenario = _masked(built, quarantined)
        new = _draw(rng, scenario, rng.choice([0.0, 0.3]))
        got = score_directives(scenario, old, new, plc_mode, "b")
        want = score_directives_scalar(scenario, old, new, plc_mode, "b")
        assert got == want  # baseline, aggregate, every delta: bitwise
        _, aggregate, directives = got
        assert [d.user for d in directives] == \
            np.flatnonzero(new != old).tolist()
        assert aggregate == evaluate(scenario, new,
                                     plc_mode=plc_mode).aggregate

    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_no_scalar_pass_and_one_delta_move_per_moved_user(
            self, rng, plc_mode):
        scenario = random_scenario(rng, n_users=12, n_extenders=4,
                                   reachable_prob=0.7)
        old = _draw(rng, scenario, 0.3)
        new = _draw(rng, scenario, 0.0)
        moved = int(np.count_nonzero(new != old))
        assert moved > 0
        with count_engine_calls() as stats:
            _, _, directives = score_directives(scenario, old, new,
                                                plc_mode, "b")
        assert len(directives) == moved
        assert (stats.scalar_calls, stats.batch_calls,
                stats.delta_moves) == (0, 0, moved)

    def test_no_moves_scores_the_servable_baseline(self, rng):
        scenario = random_scenario(rng, n_users=6, n_extenders=3)
        old = np.array([0, 1, 2, 0, 1, 2])
        baseline, aggregate, directives = score_directives(
            scenario, old, old.copy(), "redistribute", "b")
        assert directives == ()
        assert baseline == aggregate == evaluate(scenario, old).aggregate


SPEC = """
fleet: {{name: audit, seed: {seed}, plc_mode: {plc_mode}}}
buildings:
  - {{name: hq, extenders: 4, users: 9, circuits: [a, a, b, b]}}
generate:
  - {{prefix: w, count: 2, extenders: 3, users: 6}}
telemetry: {{wifi_jitter: 0.05, plc_jitter: 0.6, dropout: 0.25}}
"""


class TestFleetInvariants:
    def test_aggregates_are_full_evaluates_of_the_applied_assignment(self):
        quarantines = failures = 0
        for seed, plc_mode in ((3, "redistribute"), (11, "active"),
                               (29, "fixed")):
            spec = parse_fleet_spec(SPEC.format(seed=seed,
                                                plc_mode=plc_mode))
            service = FleetService(replace(
                spec, chaos=FleetFaultModel.from_level(0.4)))
            for _ in range(5):
                report = service.run_epoch()
                failures += report.n_shard_failures
                for bstate, b in zip(service._buildings, report.buildings):
                    quarantines += len(b.quarantined)
                    scenario, _ = bstate.last_observed
                    applied = evaluate(scenario, bstate.assignment,
                                       plc_mode=plc_mode).aggregate
                    assert b.aggregate_mbps == applied
                    moved = sum(d.delta_mbps for d in b.directives)
                    assert math.isclose(
                        moved, b.delta_mbps, rel_tol=1e-9,
                        abs_tol=1e-9 * max(1.0, b.aggregate_mbps))
        # The specs really exercise both degraded paths.
        assert quarantines > 0
        assert failures > 0
