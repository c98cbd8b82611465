"""Tests for the Monte-Carlo and online trial runners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import UNASSIGNED
from repro.sim.runner import run_online_comparison, run_policy, run_trials

from .conftest import random_scenario


class TestRunPolicy:
    def test_all_policies_produce_complete_assignments(self, rng):
        scenario = random_scenario(rng, 12, 4)
        for policy in ("wolt", "greedy", "rssi", "random"):
            outcome = run_policy(scenario, policy, rng)
            assert outcome.policy == policy
            assert np.all(outcome.assignment != UNASSIGNED)
            assert outcome.aggregate_throughput > 0
            assert 0 < outcome.jain_fairness <= 1
            assert outcome.user_throughputs.sum() == pytest.approx(
                outcome.aggregate_throughput)

    def test_unknown_policy_rejected(self, rng):
        scenario = random_scenario(rng, 4, 2)
        with pytest.raises(ValueError):
            run_policy(scenario, "magic")

    def test_plc_mode_changes_scoring(self, rng):
        scenario = random_scenario(rng, 10, 4)
        fixed = run_policy(scenario, "rssi", plc_mode="fixed")
        phys = run_policy(scenario, "rssi", plc_mode="redistribute")
        assert fixed.assignment.tolist() == phys.assignment.tolist()
        assert fixed.aggregate_throughput <= phys.aggregate_throughput


class TestRunTrials:
    def test_trial_structure(self):
        trials = run_trials(3, 4, 8, seed=0)
        assert len(trials) == 3
        for trial in trials:
            assert set(trial.outcomes) == {"wolt", "greedy", "rssi"}
            assert trial.scenario.n_users == 8

    def test_deterministic_given_seed(self):
        a = run_trials(2, 3, 6, seed=5)
        b = run_trials(2, 3, 6, seed=5)
        for ta, tb in zip(a, b):
            for policy in ta.outcomes:
                assert ta.aggregate(policy) == pytest.approx(
                    tb.aggregate(policy))

    def test_different_seeds_differ(self):
        a = run_trials(1, 3, 6, seed=1)[0].aggregate("wolt")
        b = run_trials(1, 3, 6, seed=2)[0].aggregate("wolt")
        assert a != pytest.approx(b)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policies"):
            run_trials(1, 3, 6, policies=("wolt", "magic"))

    def test_paper_shape_wolt_wins_under_fixed_model(self):
        trials = run_trials(5, 15, 36, seed=0, plc_mode="fixed")
        for trial in trials:
            assert trial.aggregate("wolt") > trial.aggregate("greedy")


class TestOnlineComparison:
    def test_histories_cover_policies(self):
        histories = run_online_comparison(2, 4, 5, seed=0)
        assert set(histories) == {"wolt", "greedy"}
        for history in histories.values():
            assert len(history) == 2

    def test_policies_see_identical_arrival_process(self):
        histories = run_online_comparison(2, 4, 5, seed=3,
                                          policies=("wolt", "rssi"))
        wolt = histories["wolt"]
        rssi = histories["rssi"]
        assert [e.arrivals for e in wolt] == [e.arrivals for e in rssi]
        assert [e.n_users for e in wolt] == [e.n_users for e in rssi]
