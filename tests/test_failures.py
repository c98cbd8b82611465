"""Tests for failure injection and recovery."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.core.problem import Scenario, UNASSIGNED, fail_extenders
from repro.sim.failures import (FailureSimulation, flip_extenders,
                                reassociate_orphans)

from .conftest import random_scenario


class TestFailExtenders:
    def test_masks_columns(self, rng):
        sc = random_scenario(rng, 5, 3)
        dead = fail_extenders(sc, [1])
        assert np.all(dead.wifi_rates[:, 1] == 0.0)
        assert dead.plc_rates[1] == 0.0
        # Other columns untouched.
        assert np.allclose(dead.wifi_rates[:, 0], sc.wifi_rates[:, 0])

    def test_no_failures_is_copy(self, rng):
        sc = random_scenario(rng, 4, 2)
        same = fail_extenders(sc, [])
        assert np.allclose(same.wifi_rates, sc.wifi_rates)

    def test_out_of_range_rejected(self, rng):
        sc = random_scenario(rng, 4, 2)
        with pytest.raises(ValueError):
            fail_extenders(sc, [5])

    def test_all_dead_rejected_by_default(self, rng):
        """Killing every extender is almost always a caller bug."""
        sc = random_scenario(rng, 4, 3)
        with pytest.raises(ValueError, match="allow_all_failed"):
            fail_extenders(sc, [0, 1, 2])
        # Duplicate indices covering every extender count too.
        with pytest.raises(ValueError, match="allow_all_failed"):
            fail_extenders(sc, [0, 1, 2, 2, 0])

    def test_duplicates_count_distinct_extenders(self, rng):
        sc = random_scenario(rng, 4, 3)
        # Four indices, two extenders: one survives, so no error.
        dead = fail_extenders(sc, [2, 0, 2, 0])
        assert np.all(dead.wifi_rates[:, [0, 2]] == 0.0)
        assert np.array_equal(dead.wifi_rates[:, 1], sc.wifi_rates[:, 1])
        with pytest.raises(ValueError, match="allow_all_failed"):
            fail_extenders(sc, [1, 1, 0, 2, 2, 1])

    def test_leaves_numpy_ma_unimported(self):
        # The first quarantine of a fleet epoch calls fail_extenders;
        # a lazy numpy.ma import there costs that epoch ~10 ms.
        code = ("import sys, numpy as np\n"
                "from repro.core.problem import Scenario, fail_extenders\n"
                "sc = Scenario(wifi_rates=np.ones((3, 3)),"
                " plc_rates=np.ones(3))\n"
                "fail_extenders(sc, [1, 1])\n"
                "try:\n"
                "    fail_extenders(sc, [0, 1, 2, 2])\n"
                "except ValueError:\n"
                "    pass\n"
                "else:\n"
                "    raise AssertionError('all dead must raise')\n"
                "assert 'numpy.ma' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_all_dead_opt_in(self, rng):
        sc = random_scenario(rng, 4, 3)
        dead = fail_extenders(sc, [0, 1, 2], allow_all_failed=True)
        assert np.all(dead.wifi_rates == 0.0)
        assert np.all(dead.plc_rates == 0.0)


class TestReassociateOrphans:
    def test_orphans_move_to_strongest_survivor(self, rng):
        sc = random_scenario(rng, 6, 3)
        dead = fail_extenders(sc, [0])
        assignment = np.zeros(6, dtype=int)  # everyone on the dead one
        recovered = reassociate_orphans(dead, assignment)
        for user in range(6):
            j = recovered[user]
            assert j in (1, 2)
            assert dead.wifi_rates[user, j] == pytest.approx(
                dead.wifi_rates[user, 1:].max())

    def test_survivor_users_stay_put(self, rng):
        sc = random_scenario(rng, 6, 3)
        dead = fail_extenders(sc, [0])
        assignment = np.full(6, 2, dtype=int)
        recovered = reassociate_orphans(dead, assignment)
        assert recovered.tolist() == [2] * 6

    def test_total_blackout_goes_offline(self):
        sc = Scenario(wifi_rates=np.array([[10.0, 20.0]]),
                      plc_rates=np.array([50.0, 50.0]))
        dead = fail_extenders(sc, [0, 1], allow_all_failed=True)
        recovered = reassociate_orphans(dead, [0])
        assert recovered.tolist() == [UNASSIGNED]


class TestFaultLayerInteraction:
    """fail_extenders / reassociate_orphans driven by explicit brown-out
    epochs (the deterministic counterpart of FailureSimulation's random
    outages)."""

    def test_orphan_accounting_across_consecutive_failures(self, rng):
        sc = random_scenario(rng, 8, 4)
        assignment = np.zeros(8, dtype=int)  # everyone starts on 0
        # Epoch 0: extender 0 browns out; all 8 users are orphaned once.
        dead = fail_extenders(sc, (0,))
        assignment = reassociate_orphans(dead, assignment)
        assert np.all(assignment != 0)
        # Epoch 1: extender 1 joins the outage; only the users that
        # landed on it are orphaned again — survivors are not touched,
        # so nobody is double-counted.
        dead = fail_extenders(sc, (0, 1))
        on_one = int(np.sum(assignment == 1))
        moved = reassociate_orphans(dead, assignment)
        assert int(np.sum(moved != assignment)) == on_one
        assert np.all((moved >= 2) | (moved == UNASSIGNED))

    def test_all_extenders_down_guard(self, rng):
        sc = random_scenario(rng, 5, 3)
        dead = fail_extenders(sc, (0, 1, 2), allow_all_failed=True)
        recovered = reassociate_orphans(dead, np.zeros(5, dtype=int))
        assert recovered.tolist() == [UNASSIGNED] * 5
        # Epochs without a brown-out leave the scenario whole.
        same = fail_extenders(sc, ())
        assert np.allclose(same.wifi_rates, sc.wifi_rates)

    def test_recovery_after_blackout_reattaches_users(self, rng):
        sc = random_scenario(rng, 5, 2)
        dead = fail_extenders(sc, (0, 1), allow_all_failed=True)
        offline = reassociate_orphans(dead, np.zeros(5, dtype=int))
        assert np.all(offline == UNASSIGNED)
        # Extender 0 comes back in epoch 1: offline users reattach.
        partial = fail_extenders(sc, (1,))
        back = reassociate_orphans(partial, offline)
        assert back.tolist() == [0] * 5


class TestFlipExtenders:
    def test_does_not_mutate_its_input(self):
        down = np.array([True, True, True])
        flip_extenders(down, np.random.default_rng(0), 0.0, 0.0)
        assert down.tolist() == [True, True, True]

    def test_failure_simulation_draws_the_same_flips(self, rng):
        sc = random_scenario(rng, 8, 4)
        sim = FailureSimulation(sc, "rssi", np.random.default_rng(5),
                                fail_prob=0.4, recover_prob=0.3)
        replay = np.random.default_rng(5)
        down = np.zeros(4, dtype=bool)
        for _ in range(6):
            sim.run_epoch()
            down = flip_extenders(down, replay, 0.4, 0.3)
            assert sim.down.tolist() == down.tolist()


class TestFailureSimulation:
    def _sim(self, policy="wolt", seed=0, **kwargs):
        sc_seq, fail_seq = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(sc_seq)
        sc = random_scenario(rng, 15, 5)
        return FailureSimulation(sc, policy,
                                 rng=np.random.default_rng(fail_seq),
                                 **kwargs)

    def test_history_grows(self):
        sim = self._sim()
        history = sim.run(5)
        assert [e.epoch for e in history] == [1, 2, 3, 4, 5]

    def test_never_total_blackout(self):
        sim = self._sim(fail_prob=1.0, recover_prob=0.0)
        for _ in range(5):
            sim.run_epoch()
            assert not sim.down.all()

    def test_throughput_positive_with_survivors(self):
        sim = self._sim(fail_prob=0.3)
        for stats in sim.run(6):
            assert stats.aggregate_throughput > 0

    def test_orphans_counted_on_failure(self):
        sim = self._sim(policy="rssi", fail_prob=0.9, recover_prob=0.0)
        stats = sim.run_epoch()
        if stats.failed_extenders:
            assert stats.orphaned_users >= 0

    def test_wolt_recovers_at_least_rssi_throughput(self):
        """Global re-solve recovers at least the orphan-fallback level
        on average (fixed-model scoring)."""
        means = {}
        for policy in ("wolt", "rssi"):
            sim = self._sim(policy=policy, seed=5, fail_prob=0.25,
                            plc_mode="fixed")
            means[policy] = np.mean(
                [e.aggregate_throughput for e in sim.run(8)])
        assert means["wolt"] >= means["rssi"] - 1e-6

    def test_no_failures_full_throughput(self):
        sim = self._sim(fail_prob=0.0)
        first = sim.run_epoch()
        assert first.failed_extenders == ()
        assert first.orphaned_users == 0
        assert first.offline_users == 0

    def test_validation(self, rng):
        sc = random_scenario(rng, 4, 2)
        with pytest.raises(ValueError):
            FailureSimulation(sc, "magic", rng)
        with pytest.raises(ValueError):
            FailureSimulation(sc, "wolt", rng, fail_prob=1.5)
        with pytest.raises(ValueError):
            FailureSimulation(sc, "wolt", rng).run(0)

    @pytest.mark.parametrize("policy", ["wolt", "rssi"])
    def test_capacitated_floor_rejected_up_front(self, policy):
        # The controller places users without B_j; such a floor used to
        # crash mid-run with "constraint (8) violated".
        sc = random_scenario(np.random.default_rng(3), 12, 4,
                             capacities=True)
        with pytest.raises(ValueError, match=r"constraint \(8\)"):
            FailureSimulation(sc, policy, np.random.default_rng(4),
                              fail_prob=0.3)


class TestFailExtendersHome:
    def test_sim_exports_the_core_mask(self):
        import repro.core.problem
        import repro.sim

        assert repro.sim.fail_extenders is repro.core.problem.fail_extenders

    def test_keeps_users_and_capacities_and_leaves_input_alone(self, rng):
        sc = random_scenario(rng, 5, 3)
        sc = Scenario(wifi_rates=sc.wifi_rates, plc_rates=sc.plc_rates,
                      capacities=np.array([4, 4, 4]),
                      user_ids=np.arange(10, 15))
        wifi, plc = sc.wifi_rates.copy(), sc.plc_rates.copy()
        dead = fail_extenders(sc, [2])
        np.testing.assert_array_equal(sc.wifi_rates, wifi)
        np.testing.assert_array_equal(sc.plc_rates, plc)
        np.testing.assert_array_equal(dead.user_ids, sc.user_ids)
        np.testing.assert_array_equal(dead.capacities, sc.capacities)
