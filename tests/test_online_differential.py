"""Differential wall: CC-backed online loops vs their references.

Every online association decision goes through a
:class:`repro.core.CentralController`.  The loops it replaced live on
in :mod:`tests.oracles`, and for any seed both must agree bitwise:

* :class:`repro.sim.dynamics.OnlineSimulation` vs
  :class:`tests.oracles.OnlineSimulationReference` (admission over a
  rebuilt rate matrix, epoch-boundary re-solve): every
  :class:`~repro.sim.dynamics.EpochStats` field and every user's
  extender;
* :class:`repro.sim.failures.FailureSimulation` vs
  :class:`tests.oracles.FailureSimulationReference` (WOLT subset
  re-solve, RSSI orphan fallback): failed set, orphans, offline users
  and aggregate, epoch by epoch;
* the CC's ``min_gain_mbps`` hysteresis bar vs
  :class:`tests.oracles.IncrementalWoltReference`: moves, assignment
  and aggregate.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import POLICIES, CentralController, ScanReport
from repro.net.engine import evaluate
from repro.net.topology import enterprise_floor
from repro.sim.dynamics import OnlineSimulation
from repro.sim.failures import FailureSimulation
from repro.net.topology import sample_floor_plan

from .conftest import max_examples, random_scenario
from .oracles import (FailureSimulationReference, IncrementalWoltReference,
                      OnlineSimulationReference)


def _history(cls, seed, policy, n_extenders, initial_users, n_epochs,
             **kwargs):
    plan_seq, arrival_seq = np.random.SeedSequence(seed).spawn(2)
    plan = sample_floor_plan(n_extenders, np.random.default_rng(plan_seq))
    sim = cls(plan, policy, rng=np.random.default_rng(arrival_seq),
              **kwargs)
    sim.seed_users(initial_users)
    return sim.run(n_epochs), sim.assignment


def _bits(history):
    """Each epoch's fields; ``repr`` pins every float to the bit."""
    return [tuple(repr(value) for value in astuple(stats))
            for stats in history]


@settings(max_examples=max_examples(40), deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       policy=st.sampled_from(POLICIES),
       n_extenders=st.integers(2, 6),
       initial_users=st.integers(0, 8),
       arrival_rate=st.floats(0.25, 3.0),
       departure_rate=st.floats(0.0, 2.0),
       plc_mode=st.sampled_from(("redistribute", "active", "fixed")),
       n_epochs=st.integers(1, 4))
def test_cc_backed_history_matches_reference(seed, policy, n_extenders,
                                             initial_users, arrival_rate,
                                             departure_rate, plc_mode,
                                             n_epochs):
    kwargs = dict(arrival_rate=arrival_rate, departure_rate=departure_rate,
                  epoch_duration=5.0, plc_mode=plc_mode)
    args = (seed, policy, n_extenders, initial_users, n_epochs)
    history, assignment = _history(OnlineSimulation, *args, **kwargs)
    ref_history, ref_assignment = _history(OnlineSimulationReference,
                                           *args, **kwargs)
    assert history == ref_history
    assert _bits(history) == _bits(ref_history)
    assert assignment == ref_assignment


def test_paper_scale_run_matches_reference():
    """One Fig. 6b/6c-sized run (15 extenders, 36 seeded users, default
    λ=3, μ=1 and epoch length) through every policy."""
    for policy in POLICIES:
        history, assignment = _history(OnlineSimulation, 3, policy, 15,
                                       36, 2)
        ref_history, ref_assignment = _history(OnlineSimulationReference,
                                               3, policy, 15, 36, 2)
        assert _bits(history) == _bits(ref_history)
        assert assignment == ref_assignment


def _failure_history(cls, seed, policy, n_extenders, n_users, reach,
                     n_epochs, **kwargs):
    floor_seq, flip_seq = np.random.SeedSequence(seed).spawn(2)
    scenario = random_scenario(np.random.default_rng(floor_seq), n_users,
                               n_extenders, reachable_prob=reach)
    sim = cls(scenario, policy, np.random.default_rng(flip_seq), **kwargs)
    return sim.run(n_epochs), sim.assignment


def _assert_failure_runs_match(*args, **kwargs):
    history, assignment = _failure_history(FailureSimulation, *args,
                                           **kwargs)
    ref_history, ref_assignment = _failure_history(
        FailureSimulationReference, *args, **kwargs)
    assert _bits(history) == _bits(ref_history)
    assert assignment.tolist() == ref_assignment.tolist()
    return history


@settings(max_examples=max_examples(40), deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       policy=st.sampled_from(("wolt", "rssi")),
       n_extenders=st.integers(2, 9),
       n_users=st.integers(1, 20),
       reach=st.floats(0.3, 1.0),
       fail_prob=st.floats(0.1, 0.6),
       recover_prob=st.floats(0.1, 0.9),
       plc_mode=st.sampled_from(("redistribute", "active", "fixed")),
       n_epochs=st.integers(1, 6))
def test_failure_history_matches_reference(seed, policy, n_extenders,
                                           n_users, reach, fail_prob,
                                           recover_prob, plc_mode,
                                           n_epochs):
    _assert_failure_runs_match(seed, policy, n_extenders, n_users, reach,
                               n_epochs, fail_prob=fail_prob,
                               recover_prob=recover_prob,
                               plc_mode=plc_mode)


@pytest.mark.parametrize("plc_mode", ["fixed", "redistribute"])
@pytest.mark.parametrize("policy", ["wolt", "rssi"])
def test_offline_heavy_failures_match_reference(policy, plc_mode):
    """Few extenders that fail often and recover slowly, on sparsely
    covered floors: users go offline and come back."""
    offline = 0
    for seed in range(12):
        history = _assert_failure_runs_match(
            seed, policy, 2 + seed % 3, 12, 0.5, 8, fail_prob=0.6,
            recover_prob=0.3, plc_mode=plc_mode)
        offline += sum(epoch.offline_users for epoch in history)
    assert offline > 0, "precondition: some users must go offline"


def _hysteresis_outcome(scenario, threshold):
    """The CC's ``(moves, assignment, aggregate)`` at ``threshold``."""
    cc = CentralController(scenario.plc_rates, min_gain_mbps=threshold)
    for uid in range(scenario.n_users):
        cc.receive_scan_report(ScanReport(uid, scenario.wifi_rates[uid]))
    parked = cc.associations
    cc.reconfigure()
    after = cc.associations
    moves = sorted((uid, parked[uid], j) for uid, j in after.items()
                   if parked[uid] != j)
    aggregate = evaluate(scenario, [after[uid] for uid
                                    in range(scenario.n_users)]).aggregate
    return moves, after, aggregate


def _reference_outcome(scenario, threshold):
    ref = IncrementalWoltReference(scenario.plc_rates, threshold)
    for uid in range(scenario.n_users):
        ref.add_user(uid, scenario.wifi_rates[uid])
    return ref.reconfigure(), ref.assignment


@settings(max_examples=max_examples(20), deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_extenders=st.integers(2, 10),
       n_users=st.integers(1, 40))
def test_hysteresis_matches_reference(seed, n_extenders, n_users):
    scenario = enterprise_floor(n_extenders, n_users,
                                np.random.default_rng(seed))
    thresholds = [0.0, 1.0, 5.0, 20.0]
    greedy, _ = _reference_outcome(scenario, 0.0)
    if len(greedy.gains) >= 2 and greedy.gains[1] > 0:
        thresholds.append(greedy.gains[1])  # the exact second gain
    for threshold in thresholds:
        moves, assignment, aggregate = _hysteresis_outcome(scenario,
                                                           threshold)
        ref, ref_assignment = _reference_outcome(scenario, threshold)
        assert moves == sorted(ref.moves)
        assert assignment == ref_assignment
        assert repr(aggregate) == repr(ref.aggregate_after)
