"""Differential test wall for delta evaluation.

The PR-6 contract: every incremental scoring path must make the exact
same decisions as the full evaluation it replaces.

* :class:`repro.net.engine.DeltaEvaluator` scores a single-user move by
  recomputing only the two touched cells — the resulting aggregate must
  be **bit-identical** to a full scalar :func:`~repro.net.engine.evaluate`
  of the moved assignment, and within 1e-9 of the batched kernel.  That
  holds for partial seeds (``UNASSIGNED`` users) too.
* ``solve_phase2`` maintains the insertion-gains matrix incrementally —
  its final assignment must be bit-identical to the full-rebuild batch
  reference and to the scalar reference (both in ``tests/oracles.py``).
* ``CentralController``'s hysteresis bar scores moves with a
  ``DeltaEvaluator`` and must apply the exact same moves as the batched
  scoring reference on seeded churn sequences.

All of it is parametrized over topology/demand seeds so the wall covers
a spread of scenarios, not one lucky instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import CentralController, ScanReport
from repro.core.phase1 import solve_phase1
from repro.core.phase2 import solve_phase2
from repro.core.problem import UNASSIGNED
from repro.core.wolt import solve_wolt
from repro.net.engine import (DeltaEvaluator, count_engine_calls,
                              evaluate, evaluate_batch)

from .conftest import random_scenario
from .oracles import (reconfigure_batch, solve_phase2_batch,
                      solve_phase2_scalar)


def _assert_cache_is_evaluate(scenario, ev, plc_mode="redistribute"):
    """The evaluator's cached WiFi vector and aggregate, bit for bit,
    are what a full evaluate of its assignment computes."""
    ref = evaluate(scenario, ev.assignment, plc_mode=plc_mode)
    assert np.array_equal(ev.wifi_throughputs, ref.wifi_throughputs)
    assert ev.aggregate == ref.aggregate

ATOL = 1e-9

TOPOLOGY_SEEDS = [0, 1, 7, 42, 1337]
PLC_MODES = ("redistribute", "active", "fixed")


def _random_move_sequence(rng, scenario, assignment, n_moves):
    """Yield ``(user, dest)`` candidate moves over reachable extenders."""
    moves = []
    for _ in range(n_moves):
        user = int(rng.integers(scenario.n_users))
        reachable = scenario.reachable(user)
        if rng.random() < 0.1:
            moves.append((user, UNASSIGNED))
        else:
            moves.append((user, int(rng.choice(reachable))))
    return moves


class TestDeltaEvaluatorDifferential:
    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_random_move_sequence_matches_full_evaluate(self, seed,
                                                        plc_mode):
        """Seeded random moves: delta score == scalar evaluate, bitwise."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users=20, n_extenders=6,
                                   reachable_prob=0.8)
        assignment = np.array([int(rng.choice(scenario.reachable(u)))
                               for u in range(scenario.n_users)])
        ev = DeltaEvaluator(scenario, assignment, plc_mode=plc_mode)
        assert ev.aggregate == evaluate(scenario, assignment,
                                        plc_mode=plc_mode).aggregate
        working = assignment.copy()
        for user, dest in _random_move_sequence(rng, scenario,
                                                working, 50):
            moved = working.copy()
            moved[user] = dest
            got = ev.score_move(user, dest)
            want = evaluate(scenario, moved, plc_mode=plc_mode).aggregate
            assert got == want  # bit-identical, not approx
            batched = evaluate_batch(
                scenario, moved[np.newaxis, :],
                plc_mode=plc_mode).aggregates[0]
            assert got == pytest.approx(want, abs=ATOL)
            assert abs(got - float(batched)) <= ATOL
            if rng.random() < 0.5:
                assert ev.commit(user, dest) == want
                working = moved
        # After the whole sequence the incremental cache has zero drift.
        _assert_cache_is_evaluate(scenario, ev, plc_mode)

    def test_score_move_counts_delta_not_scalar(self, rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        ev = DeltaEvaluator(scenario, np.zeros(8, dtype=int))
        with count_engine_calls() as stats:
            ev.score_move(0, 1)
            ev.score_move(1, 2)
        assert stats.delta_moves == 2
        assert stats.scalar_calls == 0
        assert stats.batch_rows == 0

    def test_report_matches_full_evaluate(self, rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        assignment = np.array([int(rng.choice(scenario.reachable(u)))
                               for u in range(8)])
        ev = DeltaEvaluator(scenario, assignment)
        ev.commit(0, int(scenario.reachable(0)[-1]))
        ref = evaluate(scenario, ev.assignment)
        got = ev.report()
        assert np.array_equal(got.assignment, ref.assignment)
        assert got.aggregate == ref.aggregate


def _partial_assignment(rng, scenario, unassigned_share):
    """A reachable assignment with about ``unassigned_share`` detached."""
    assignment = np.array([int(rng.choice(scenario.reachable(u)))
                           for u in range(scenario.n_users)])
    assignment[rng.random(scenario.n_users) < unassigned_share] = \
        UNASSIGNED
    return assignment


class TestPartialSeeds:
    """Seeds with UNASSIGNED users, as the fleet service scores them."""

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    @pytest.mark.parametrize("share", [0.0, 0.4, 1.0])
    def test_attach_detach_move_matches_full_evaluate(self, seed, plc_mode,
                                                      share):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users=16, n_extenders=5,
                                   reachable_prob=0.7)
        working = _partial_assignment(rng, scenario, share)
        ev = DeltaEvaluator(scenario, working, plc_mode=plc_mode)
        assert ev.aggregate == evaluate(scenario, working,
                                        plc_mode=plc_mode).aggregate
        for user, dest in _random_move_sequence(rng, scenario,
                                                working, 40):
            moved = working.copy()
            moved[user] = dest
            want = evaluate(scenario, moved, plc_mode=plc_mode).aggregate
            assert ev.score_move(user, dest) == want
            assert ev.commit(user, dest) == want
            working = moved
        assert np.array_equal(ev.assignment, working)
        _assert_cache_is_evaluate(scenario, ev, plc_mode)

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    @pytest.mark.parametrize("share", [0.0, 0.4, 1.0])
    def test_aggregate_is_evaluate_aggregate(self, seed, plc_mode, share):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users=12, n_extenders=4,
                                   reachable_prob=0.7)
        assignment = _partial_assignment(rng, scenario, share)
        ev = DeltaEvaluator(scenario, assignment, plc_mode=plc_mode)
        assert ev.aggregate == evaluate(scenario, assignment,
                                        plc_mode=plc_mode).aggregate

    def test_constructor_makes_no_scalar_pass(self, rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        with count_engine_calls() as stats:
            DeltaEvaluator(scenario, np.zeros(8, dtype=int))
        assert (stats.scalar_calls, stats.batch_rows,
                stats.delta_moves) == (0, 0, 0)

    def test_rejects_unknown_plc_mode(self, rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        with pytest.raises(ValueError, match="plc_mode"):
            DeltaEvaluator(scenario, np.zeros(8, dtype=int),
                           plc_mode="bogus")

    @pytest.mark.parametrize("shape", [(9, 3), (8, 4), (7, 2)])
    def test_rejects_a_seed_of_another_scenario(self, rng, shape):
        """A seed sized for another floor (more or fewer users, or an
        extender this one lacks) raises instead of being read."""
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        seed = np.full(shape[0], shape[1] - 1, dtype=int)
        with pytest.raises(ValueError, match="entries|out of range"):
            DeltaEvaluator(scenario, seed)


class TestMoveCounting:
    """``commit`` counts one delta move per applied move, as
    ``score_move`` counts one per scored move; staying put counts none."""

    @pytest.mark.parametrize("user, dest, moves", [
        (0, 1, 1),             # relocate
        (0, UNASSIGNED, 1),    # detach
        (7, 2, 1),             # attach
        (0, 0, 0),             # stay
    ], ids=["relocate", "detach", "attach", "stay"])
    def test_commit_counts_like_score_move(self, rng, user, dest, moves):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        seed = np.zeros(8, dtype=int)
        seed[7] = UNASSIGNED
        ev = DeltaEvaluator(scenario, seed)
        with count_engine_calls() as scored:
            want = ev.score_move(user, dest)
        with count_engine_calls() as committed:
            got = ev.commit(user, dest)
        assert got == want
        assert (committed.scalar_calls, committed.batch_rows,
                committed.delta_moves) == (0, 0, moves)
        assert scored.delta_moves == moves
        _assert_cache_is_evaluate(scenario, ev)


class TestMoveRangeChecks:
    """Out-of-range moves raise instead of wrapping around."""

    @staticmethod
    def _evaluator(rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        return scenario, DeltaEvaluator(scenario, np.zeros(8, dtype=int))

    @pytest.mark.parametrize("method", ["score_move", "commit"])
    @pytest.mark.parametrize("dest", [-2, 3, 99])
    def test_bad_extender_raises(self, rng, method, dest):
        scenario, ev = self._evaluator(rng)
        before = ev.aggregate
        with pytest.raises(ValueError,
                           match="extender index out of range"):
            getattr(ev, method)(0, dest)
        assert np.array_equal(ev.assignment, np.zeros(8, dtype=int))
        assert ev.aggregate == before
        _assert_cache_is_evaluate(scenario, ev)

    @pytest.mark.parametrize("method", ["score_move", "commit"])
    @pytest.mark.parametrize("user", [-1, 8, 100])
    def test_bad_user_raises(self, rng, method, user):
        scenario, ev = self._evaluator(rng)
        with pytest.raises(ValueError, match="user index"):
            getattr(ev, method)(user, 1)
        assert np.array_equal(ev.assignment, np.zeros(8, dtype=int))
        _assert_cache_is_evaluate(scenario, ev)

    def test_unassigned_dest_is_a_detach(self, rng):
        scenario, ev = self._evaluator(rng)
        moved = np.zeros(8, dtype=int)
        moved[0] = UNASSIGNED
        assert ev.commit(0, UNASSIGNED) == evaluate(scenario,
                                                    moved).aggregate


class TestPhase2DeltaDifferential:
    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("n_users,n_ext", [(10, 3), (24, 6),
                                               (40, 8)])
    def test_delta_insertion_bit_identical(self, seed, n_users, n_ext):
        """Phase-2 assignments identical across delta/batch/scalar."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users, n_ext,
                                   reachable_prob=0.75)
        p1 = solve_phase1(scenario)
        delta = solve_phase2(scenario, p1.assignment)
        batch = solve_phase2_batch(scenario, p1.assignment)
        scalar = solve_phase2_scalar(scenario, p1.assignment)
        assert np.array_equal(delta.assignment, batch.assignment)
        assert np.array_equal(delta.assignment, scalar.assignment)
        assert delta.objective == batch.objective
        assert delta.iterations == batch.iterations

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_delta_with_capacities_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, 18, 5, capacities=True)
        p1 = solve_phase1(scenario)
        delta = solve_phase2(scenario, p1.assignment)
        batch = solve_phase2_batch(scenario, p1.assignment)
        assert np.array_equal(delta.assignment, batch.assignment)

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_full_wolt_unchanged_by_delta_default(self, seed):
        """solve_wolt's decisions are the same as the pre-delta code."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, 20, 5, reachable_prob=0.8)
        got = solve_wolt(scenario)
        # The oracle: full-rebuild batch insertion.
        p1 = solve_phase1(scenario)
        oracle = solve_phase2_batch(scenario, p1.assignment)
        assert np.array_equal(got.assignment, oracle.assignment)

    def test_unplaceable_user_still_raises(self, rng):
        scenario = random_scenario(rng, 6, 2)
        wifi = scenario.wifi_rates.copy()
        wifi[3, :] = 0.0  # user 3 hears nothing
        from repro.core.problem import Scenario
        dead = Scenario(wifi_rates=wifi, plc_rates=scenario.plc_rates)
        start = np.full(6, UNASSIGNED)
        with pytest.raises(ValueError, match="cannot be attached"):
            solve_phase2(dead, start)


class TestHysteresisDelta:
    @staticmethod
    def _churned_controller(seed, n_ext=4, n_users=14, **kwargs):
        rng = np.random.default_rng(seed)
        # Backhaul-rich, so target moves carry WiFi gains: behind 20-200
        # Mbps links every greedy gain of these floors is 0.
        plc = rng.uniform(200.0, 600.0, size=n_ext)
        cc = CentralController(plc, **kwargs)
        for uid in range(n_users):
            cc.receive_scan_report(
                ScanReport(uid, rng.uniform(6.5, 144.0, size=n_ext)))
        return cc, rng

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    def test_delta_reconfigure_matches_batched_oracle(self, seed):
        """Identical churn -> identical moves, delta vs batched scoring."""
        a, rng_a = self._churned_controller(seed, min_gain_mbps=0.5)
        b, rng_b = self._churned_controller(seed, min_gain_mbps=0.5)
        a.reconfigure()
        reconfigure_batch(b)
        assert a.associations == b.associations
        assert a.stats == b.stats
        # Churn a little and reconfigure again.
        for cc, rng in ((a, rng_a), (b, rng_b)):
            cc.disconnect(0)
            cc.receive_scan_report(ScanReport(
                100, rng.uniform(6.5, 144.0, size=cc.n_extenders)))
        a.reconfigure()
        reconfigure_batch(b)
        assert a.associations == b.associations
        assert a.stats == b.stats

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_delta_respects_hysteresis(self, seed):
        a, _ = self._churned_controller(seed, min_gain_mbps=2.0)
        b, _ = self._churned_controller(seed, min_gain_mbps=2.0)
        a.reconfigure()
        reconfigure_batch(b)
        assert a.associations == b.associations
        assert a.stats == b.stats
