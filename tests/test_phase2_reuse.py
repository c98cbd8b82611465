"""Tests for Phase-II reuse in :func:`repro.core.wolt.solve_wolt`.

Problem 2 reads only the WiFi rates, the capacities and the Phase-I
anchors, so a result kept in a :class:`~repro.core.phase2.Phase2Memo`
can stand in for Phase II when all three match bit for bit.  The
property re-solves a scenario next to a memoised solve of its
predecessor: a PLC redraw reuses exactly when the anchors repeat, a
WiFi or capacity change never does, and every re-solve equals a fresh
solve to the bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.wolt as wolt_module
from repro.core.phase2 import Phase2Memo
from repro.core.problem import Scenario
from repro.core.wolt import WoltResult, solve_wolt

from .conftest import max_examples, random_scenario

#: How the re-solved scenario differs from the memoised one.
CHANGES = ("plc", "wifi_bit", "signed_zero", "capacities")


@contextmanager
def phase2_calls() -> Iterator[List[int]]:
    """Count the Phase-II solves ``solve_wolt`` runs."""
    calls = [0]
    real = wolt_module.solve_phase2

    def counted(*args: Any, **kwargs: Any) -> Any:
        calls[0] += 1
        return real(*args, **kwargs)

    with mock.patch.object(wolt_module, "solve_phase2", counted):
        yield calls


def memo_of(result: WoltResult) -> Phase2Memo:
    """A memo holding ``result``'s Phase II."""
    scenario = result.scenario
    return Phase2Memo(scenario.wifi_rates, scenario.capacities).remember(
        result.phase1.assignment, result.phase2, keep=4)


def assert_same_solve(got: WoltResult, want: WoltResult) -> None:
    assert got.assignment.dtype == want.assignment.dtype
    assert got.assignment.tobytes() == want.assignment.tobytes()
    assert got.phase1.assignment.tobytes() == want.phase1.assignment.tobytes()
    assert got.phase2.objective.hex() == want.phase2.objective.hex()
    assert got.phase2.iterations == want.phase2.iterations


@st.composite
def resolves(draw: st.DrawFn) -> Tuple[Scenario, Scenario, str]:
    """``(before, after, change)``: a scenario and its changed twin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_users = draw(st.integers(2, 12))
    n_extenders = draw(st.integers(1, 5))
    before = random_scenario(
        rng, n_users, n_extenders,
        reachable_prob=draw(st.sampled_from([0.5, 1.0])),
        capacities=draw(st.booleans()))
    change = draw(st.sampled_from(CHANGES))
    wifi, plc, caps = (before.wifi_rates, before.plc_rates,
                       before.capacities)
    user = draw(st.integers(0, n_users - 1))
    extender = draw(st.integers(0, n_extenders - 1))
    if change == "plc":
        plc = rng.uniform(20.0, 200.0, size=n_extenders)
    elif change == "wifi_bit":
        wifi = wifi.copy()
        bit = np.uint64(1) << np.uint64(draw(st.integers(0, 51)))
        wifi.view(np.uint64)[user, extender] ^= bit
    elif change == "signed_zero":
        zeros = np.argwhere(wifi == 0.0)
        assume(zeros.size)
        wifi = wifi.copy()
        wifi[tuple(zeros[draw(st.integers(0, len(zeros) - 1))])] = -0.0
    elif caps is None:
        caps = np.full(n_extenders, n_users)
    else:
        caps = caps.copy()
        caps[extender] += 1
    return before, Scenario(wifi_rates=wifi, plc_rates=plc,
                            capacities=caps), change


class TestReuseEqualsAFreshSolve:
    @given(case=resolves())
    @settings(max_examples=max_examples(120), deadline=None)
    def test_property(self, case: Tuple[Scenario, Scenario, str]) -> None:
        before, after, change = case
        try:
            old = solve_wolt(before)
        except ValueError:
            assume(False)
        memo = memo_of(old)
        try:
            fresh = solve_wolt(after)
        except ValueError:
            with pytest.raises(ValueError):
                solve_wolt(after, reuse=memo)
            return
        with phase2_calls() as calls:
            got = solve_wolt(after, reuse=memo)
        assert_same_solve(got, fresh)
        same_anchors = (fresh.phase1.assignment.tobytes()
                        == old.phase1.assignment.tobytes())
        # Only a PLC change with repeated anchors may skip Phase II.
        assert calls == [0 if change == "plc" and same_anchors else 1]

    def test_plc_change_that_keeps_the_anchors_reuses(self) -> None:
        # c_j/|A| exceeds every r_ij on both sides, so Phase I sees the
        # WiFi rates alone and returns the same anchors.
        wifi = random_scenario(np.random.default_rng(7), 12, 4).wifi_rates
        before = Scenario(wifi_rates=wifi, plc_rates=np.full(4, 5000.0))
        after = Scenario(wifi_rates=wifi,
                         plc_rates=np.array([6000.0, 5000.0, 7000.0, 900.0]))
        old = solve_wolt(before)
        with phase2_calls() as calls:
            got = solve_wolt(after, reuse=memo_of(old))
        assert calls == [0]
        assert got.phase2 is old.phase2
        assert_same_solve(got, solve_wolt(after))


class TestPhase2Memo:
    def test_remember_keeps_the_newest_distinct_anchors(self) -> None:
        scenario = random_scenario(np.random.default_rng(3), 6, 3)
        result = solve_wolt(scenario).phase2
        memo = Phase2Memo(scenario.wifi_rates, scenario.capacities)
        for label in (0, 1, 2, 1, 3):
            memo = memo.remember(np.full(6, label), result, keep=3)
        assert [int(anchors[0]) for anchors, _ in memo.entries] == [3, 1, 2]

    @pytest.mark.parametrize("change", ["signed_zero", "capacities",
                                        "anchors"])
    def test_lookup_keys_are_bitwise(self, change: str) -> None:
        wifi = np.array([[20.0, 0.0], [0.0, 30.0]])
        scenario = Scenario(wifi_rates=wifi, plc_rates=np.array([50.0,
                                                                 60.0]))
        solved = solve_wolt(scenario)
        anchors = solved.phase1.assignment
        memo = memo_of(solved)
        assert memo.lookup(scenario, anchors) is solved.phase2
        if change == "signed_zero":
            other = Scenario(wifi_rates=np.where(wifi == 0, -0.0, wifi),
                             plc_rates=scenario.plc_rates)
        elif change == "capacities":
            other = Scenario(wifi_rates=wifi, plc_rates=scenario.plc_rates,
                             capacities=np.array([2, 2]))
        else:
            other, anchors = scenario, anchors[::-1].copy()
        assert memo.lookup(other, anchors) is None
