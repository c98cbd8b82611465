"""Seeding a ``DeltaEvaluator`` against the scalar engine, bit for bit.

``DeltaEvaluator(scenario, assignment, plc_mode)`` fills its WiFi cache
with its own per-cell expression instead of calling
``cell_throughputs``, and the fleet's directive scorer takes its
aggregate as the baseline instead of a scalar ``evaluate``.  The
properties here pin the seed to the scalar engine:

* the cached WiFi vector has ``cell_throughputs``' bytes and the
  aggregate is ``evaluate(...).aggregate``, over partial and
  quarantined seeds, all three PLC modes, and cells of 8 or more
  members, where numpy's sum leaves its plain loop for the unrolled
  pairwise one (and past 128 members, recurses);
* an invalid seed raises ``validate_assignment``'s ``ValueError``,
  text included, although the seed pass skips ``cell_throughputs``'
  own member check;
* ``validate_assignment`` makes the checks of
  :func:`tests.oracles.validate_assignment_reference`, with the same
  result bytes or the same message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import UNASSIGNED, Scenario, validate_assignment
from repro.net.engine import DeltaEvaluator, evaluate
from repro.plc.sharing import PLC_MODES
from repro.wifi.sharing import cell_throughputs

from .conftest import max_examples, random_scenario
from .oracles import validate_assignment_reference


def _masked(scenario: Scenario, quarantined: np.ndarray) -> Scenario:
    """Zero quarantined extenders the way ``FleetService._observe`` does."""
    wifi = scenario.wifi_rates.copy()
    plc = scenario.plc_rates.copy()
    wifi[:, quarantined] = 0.0
    plc[quarantined] = 0.0
    return Scenario(wifi_rates=wifi, plc_rates=plc)


def _seed(rng: np.random.Generator, scenario: Scenario,
          unassigned_share: float, crowd: bool) -> np.ndarray:
    """A seed over reachable links; ``crowd`` packs every user who can
    reach the most-heard extender onto it."""
    reach = scenario.wifi_rates > 0
    busiest = int(np.argmax(reach.sum(axis=0)))
    out = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    for user in range(scenario.n_users):
        if rng.random() < unassigned_share:
            continue
        if crowd and reach[user, busiest]:
            out[user] = busiest
        elif reach[user].any():
            out[user] = int(rng.choice(np.flatnonzero(reach[user])))
    return out


def _assert_seed_is_scalar_engine(scenario: Scenario, seed: np.ndarray,
                                  plc_mode: str) -> None:
    ev = DeltaEvaluator(scenario, seed, plc_mode=plc_mode)
    wifi = cell_throughputs(scenario.wifi_rates, seed, scenario.n_extenders)
    assert ev.wifi_throughputs.dtype == wifi.dtype
    assert ev.wifi_throughputs.tobytes() == wifi.tobytes()
    want = evaluate(scenario, seed, plc_mode=plc_mode).aggregate
    assert ev.aggregate.hex() == want.hex()
    assert np.array_equal(ev.assignment, seed)


class TestSeedPass:
    @given(n_users=st.integers(1, 48), n_ext=st.integers(1, 6),
           seed=st.integers(0, 2**31 - 1),
           plc_mode=st.sampled_from(PLC_MODES),
           share=st.sampled_from([0.0, 0.3, 1.0]),
           n_quarantined=st.integers(0, 2), crowd=st.booleans())
    @settings(max_examples=max_examples(150), deadline=None)
    def test_cache_and_aggregate_are_the_scalar_engines(
            self, n_users: int, n_ext: int, seed: int, plc_mode: str,
            share: float, n_quarantined: int, crowd: bool) -> None:
        rng = np.random.default_rng(seed)
        built = random_scenario(rng, n_users=n_users, n_extenders=n_ext,
                                reachable_prob=0.7)
        quarantined = rng.choice(n_ext, size=min(n_quarantined, n_ext - 1),
                                 replace=False)
        scenario = _masked(built, quarantined)
        _assert_seed_is_scalar_engine(
            scenario, _seed(rng, scenario, share, crowd), plc_mode)

    @pytest.mark.parametrize("members", [1, 7, 8, 9, 16, 127, 128, 129,
                                         300])
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_crowded_cell(self, members: int, plc_mode: str) -> None:
        rng = np.random.default_rng(members)
        scenario = random_scenario(rng, n_users=members + 3, n_extenders=3)
        seed = np.zeros(members + 3, dtype=int)
        seed[members:] = [1, 2, UNASSIGNED]
        _assert_seed_is_scalar_engine(scenario, seed, plc_mode)

    @pytest.mark.parametrize("form", [
        list, tuple,
        lambda seed: np.asarray(seed, dtype=np.int8),
        lambda seed: np.asarray(seed, dtype=np.int32),
        lambda seed: np.asarray(seed, dtype=np.int64),
    ], ids=["list", "tuple", "int8", "int32", "int64"])
    def test_seed_form_does_not_matter(self, form) -> None:
        """Any integer sequence seeds the same cache as an int array."""
        rng = np.random.default_rng(11)
        scenario = random_scenario(rng, n_users=12, n_extenders=4,
                                   reachable_prob=0.7)
        seed = _seed(rng, scenario, 0.3, crowd=True)
        ev = DeltaEvaluator(scenario, form(seed.tolist()))
        assert ev.assignment.dtype == np.dtype(int)
        _assert_seed_is_scalar_engine(scenario, seed, "redistribute")
        ref = DeltaEvaluator(scenario, seed)
        assert ev.wifi_throughputs.tobytes() == ref.wifi_throughputs.tobytes()
        assert ev.aggregate.hex() == ref.aggregate.hex()
        assert np.array_equal(ev.assignment, seed)

    def test_seed_array_is_not_aliased(self, rng) -> None:
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        seed = np.zeros(8, dtype=int)
        ev = DeltaEvaluator(scenario, seed)
        ev.commit(0, 1)
        ev.commit(1, UNASSIGNED)
        assert np.array_equal(seed, np.zeros(8, dtype=int))


#: A 5-user, 3-extender floor: user 2 cannot hear extender 1, and user
#: 3 hears extender 2 at 5e-10 Mbps, below ``MIN_USABLE_RATE`` (1e-9)
#: but above the 1e-12 ``cell_throughputs`` itself rejects.
FLOOR = Scenario(
    wifi_rates=np.array([[30.0, 20.0, 10.0],
                         [12.0, 40.0, 8.0],
                         [25.0, 0.0, 6.5],
                         [18.0, 9.0, 5e-10],
                         [7.0, 11.0, 60.0]]),
    plc_rates=np.array([80.0, 60.0, 40.0]))


class TestInvalidSeeds:
    @pytest.mark.parametrize("seed", [
        [0, 1, 2, 3, 0],
        [0, 1, -2, 0, 1],
        [9, 1, 0, 0, -5],
        [0, 1, 1, 0, 2],
        [0, 1, 0, 2, 2],
        [0, 1, 1, 2, UNASSIGNED],
        [0, 1],
        [0, 1, 0, 0, 2, 1],
    ], ids=["past-last", "below-unassigned", "two-out-of-range",
            "unreachable", "below-min-usable", "both-unusable", "short",
            "long"])
    def test_raises_validate_assignments_text(self, seed) -> None:
        with pytest.raises(ValueError) as want:
            validate_assignment(FLOOR, seed, require_complete=False)
        with pytest.raises(ValueError) as got:
            DeltaEvaluator(FLOOR, seed)
        assert str(got.value) == str(want.value)


class TestValidateAssignment:
    @given(n_users=st.integers(0, 12), n_ext=st.integers(1, 5),
           seed=st.integers(0, 2**31 - 1),
           require_complete=st.booleans(), capacities=st.booleans(), reachable_only=st.booleans(),
           length_offset=st.sampled_from([0, 0, 0, -1, 1]))
    @settings(max_examples=max_examples(300), deadline=None)
    def test_matches_the_reference(self, n_users: int, n_ext: int,
                                   seed: int, require_complete: bool,
                                   capacities: bool, reachable_only: bool,
                                   length_offset: int) -> None:
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users=n_users, n_extenders=n_ext,
                                   reachable_prob=0.6,
                                   capacities=capacities and n_users >= 2)
        if reachable_only:
            # Every link heard, so the capacity check is reached.
            assignment = _seed(rng, scenario, 0.2, rng.random() < 0.5)
        else:
            # Mostly in range, sometimes unassigned or past either end.
            length = max(n_users + length_offset, 0)
            assignment = rng.integers(-1, n_ext, size=length)
            stray = rng.random(length) < 0.1
            assignment[stray] = rng.choice([-3, -2, n_ext, n_ext + 2],
                                           size=int(stray.sum()))
        outcomes = []
        for check in (validate_assignment, validate_assignment_reference):
            try:
                out = check(scenario, assignment,
                            require_complete=require_complete)
            except ValueError as exc:
                outcomes.append(("raised", str(exc)))
            else:
                outcomes.append(("returned", out.dtype, out.tobytes()))
        assert outcomes[0] == outcomes[1]
