"""Tests for the online arrival/departure dynamics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import UNASSIGNED
from repro.sim.dynamics import OnlineSimulation
from repro.net.topology import sample_floor_plan


def _sim(policy="wolt", seed=0, **kwargs) -> OnlineSimulation:
    plan_seq, arrival_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(plan_seq)
    plan = sample_floor_plan(5, rng)
    return OnlineSimulation(plan, policy,
                            rng=np.random.default_rng(arrival_seq),
                            **kwargs)


class TestConstruction:
    def test_invalid_policy(self):
        rng = np.random.default_rng(0)
        plan = sample_floor_plan(3, rng)
        with pytest.raises(ValueError):
            OnlineSimulation(plan, "magic", rng=rng)

    def test_invalid_rates(self):
        rng = np.random.default_rng(0)
        plan = sample_floor_plan(3, rng)
        with pytest.raises(ValueError):
            OnlineSimulation(plan, "wolt", rng=rng, arrival_rate=0.0)


class TestPopulation:
    def test_seed_users(self):
        sim = _sim()
        sim.seed_users(10)
        assert sim.n_users == 10
        # Seeded users are all associated somewhere.
        assert all(j != UNASSIGNED for j in sim.assignment.values())

    def test_population_grows_at_expected_rate(self):
        """λ=3, μ=1 over 16.5 time units: net +33 on average."""
        growths = []
        for seed in range(5):
            sim = _sim(seed=seed)
            sim.seed_users(3)
            before = sim.n_users
            sim.run_epoch()
            growths.append(sim.n_users - before)
        assert 20 <= np.mean(growths) <= 46

    def test_departures_remove_users(self):
        sim = _sim(policy="rssi", arrival_rate=0.001, departure_rate=5.0,
                   epoch_duration=10.0)
        sim.seed_users(20)
        stats = sim.run_epoch()
        assert stats.departures > 0
        assert sim.n_users < 20


class TestEpochStats:
    def test_epoch_numbering_and_history(self):
        sim = _sim(policy="rssi")
        sim.seed_users(5)
        history = sim.run(3)
        assert [e.epoch for e in history] == [1, 2, 3]
        assert sim.history == history

    def test_invalid_epoch_count(self):
        with pytest.raises(ValueError):
            _sim().run(0)

    def test_wolt_reassigns_greedy_does_not(self):
        for policy, expect_reassign in (("wolt", True), ("greedy", False),
                                        ("rssi", False)):
            sim = _sim(policy=policy, seed=3)
            sim.seed_users(12)
            stats = sim.run_epoch()
            if expect_reassign:
                assert stats.reassignments > 0
            else:
                assert stats.reassignments == 0

    def test_aggregate_positive_with_users(self):
        sim = _sim(policy="greedy", seed=2)
        sim.seed_users(6)
        stats = sim.run_epoch()
        assert stats.aggregate_throughput > 0
        assert 0 < stats.jain_fairness <= 1

    def test_wolt_scores_at_least_rssi_under_fixed_model(self):
        """At the epoch boundary WOLT's reconfiguration must beat the
        stay-on-strongest policy it starts from."""
        agg = {}
        for policy in ("wolt", "rssi"):
            sim = _sim(policy=policy, seed=4, plc_mode="fixed")
            sim.seed_users(15)
            agg[policy] = sim.run_epoch().aggregate_throughput
        assert agg["wolt"] >= agg["rssi"] - 1e-6


class TestDeterminism:
    def test_same_seed_same_history(self):
        runs = []
        for _ in range(2):
            sim = _sim(policy="wolt", seed=9)
            sim.seed_users(8)
            runs.append([(e.n_users, e.arrivals, e.reassignments,
                          round(e.aggregate_throughput, 6))
                         for e in sim.run(2)])
        assert runs[0] == runs[1]


def _logged(sim: OnlineSimulation) -> list:
    """Wrap the simulation's two event handlers so each firing is
    logged as ``(kind, clock)``."""
    log = []
    arrive, depart = sim._arrive, sim._depart

    def logged_arrive():
        log.append(("arrival", sim.now))
        arrive()

    def logged_depart():
        log.append(("departure", sim.now))
        depart()

    sim._arrive, sim._depart = logged_arrive, logged_depart
    return log


class TestTimers:
    def test_events_fire_in_time_order(self):
        sim = _sim(policy="rssi", seed=1)
        sim.seed_users(10)
        log = _logged(sim)
        sim.run_epoch()
        times = [t for _, t in log]
        assert times == sorted(times)
        assert all(0.0 < t <= sim.epoch_duration for t in times)
        # Each firing schedules its timer's next event, which fires in
        # the same epoch when it is due.
        kinds = [kind for kind, _ in log]
        assert kinds.count("arrival") > 1 and kinds.count("departure") > 1

    def test_clock_ends_at_the_epoch_boundary(self):
        sim = _sim(policy="rssi", seed=2)
        sim.seed_users(4)
        sim.run_epoch()
        assert sim.now == sim.epoch_duration
        sim.run_epoch()
        assert sim.now == 2 * sim.epoch_duration

    def test_pending_events_lie_beyond_the_clock(self):
        sim = _sim(policy="rssi", seed=3)
        sim.seed_users(4)
        for _ in range(2):
            sim.run_epoch()
            assert sim._next_arrival[0] > sim.now
            assert sim._next_departure[0] > sim.now

    def test_event_due_at_the_boundary_fires(self):
        sim = _sim(policy="rssi", seed=4)
        sim.seed_users(4)
        log = _logged(sim)
        sim._next_arrival = (5.0, sim._next_arrival[1])
        sim._next_departure = (9.0, sim._next_departure[1])
        sim._run_until(5.0)
        assert log[0] == ("arrival", 5.0)
        assert ("departure", 9.0) not in log
        assert sim.now == 5.0

    @pytest.mark.parametrize("first", ["arrival", "departure"])
    def test_simultaneous_events_fire_in_scheduling_order(self, first):
        sim = _sim(policy="rssi", seed=5)
        sim.seed_users(4)
        log = _logged(sim)
        tickets = {"arrival": 1, "departure": 2}
        if first == "departure":
            tickets = {"arrival": 2, "departure": 1}
        sim._next_arrival = (1.0, tickets["arrival"])
        sim._next_departure = (1.0, tickets["departure"])
        sim._run_until(1.0)
        second = "departure" if first == "arrival" else "arrival"
        assert log == [(first, 1.0), (second, 1.0)]

    def test_zero_departure_rate_never_fires_and_draws_nothing(self):
        plan_seq, arrival_seq = np.random.SeedSequence(6).spawn(2)
        plan = sample_floor_plan(5, np.random.default_rng(plan_seq))
        sim = OnlineSimulation(plan, "rssi",
                               rng=np.random.default_rng(arrival_seq),
                               departure_rate=0.0)
        # Construction drew the first arrival gap and nothing else.
        reference = np.random.default_rng(arrival_seq)
        reference.exponential(1.0 / sim.arrival_rate)
        assert sim.rng.bit_generator.state == \
            reference.bit_generator.state
        assert sim._next_departure[0] == np.inf
        sim.seed_users(6)
        log = _logged(sim)
        stats = sim.run_epoch()
        assert stats.departures == 0
        assert all(kind == "arrival" for kind, _ in log)
        assert sim._next_departure[0] == np.inf
