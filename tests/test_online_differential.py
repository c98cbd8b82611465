"""Differential wall: the CC-backed online simulation vs its reference.

:class:`repro.sim.dynamics.OnlineSimulation` makes every association
decision through a lossless :class:`repro.core.CentralController`.  The
loops it replaced — admission over a rebuilt rate matrix and the
epoch-boundary re-solve — live on in
:class:`tests.oracles.OnlineSimulationReference`.  For any seed, policy,
arrival/departure rates and scoring law, both must produce the same
epoch histories with every :class:`~repro.sim.dynamics.EpochStats`
field bitwise equal, and leave every user on the same extender.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import POLICIES
from repro.sim.dynamics import OnlineSimulation
from repro.sim.runner import sample_floor_plan

from .conftest import max_examples
from .oracles import OnlineSimulationReference


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
