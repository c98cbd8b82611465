"""Tests for the end-to-end concatenated-link throughput engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import UNASSIGNED, Scenario
from repro.net.engine import evaluate
from repro.plc.sharing import PLC_MODES

from .conftest import random_scenario
from .oracles import evaluate_aggregate_reference


class TestFig3CaseStudy:
    """The engine must reproduce every number in Fig. 3 exactly."""

    def test_rssi_assignment_yields_22(self, fig3_scenario):
        report = evaluate(fig3_scenario, [0, 0])
        assert report.aggregate == pytest.approx(2 / (1 / 15 + 1 / 40))
        assert report.aggregate == pytest.approx(21.82, abs=0.01)
        assert report.user_throughputs == pytest.approx([10.91, 10.91],
                                                        abs=0.01)

    def test_greedy_assignment_yields_30(self, fig3_scenario):
        report = evaluate(fig3_scenario, [0, 1])
        assert report.aggregate == pytest.approx(30.0)
        # User 2's extender-2 PLC grant grows to 15 via redistribution.
        assert report.user_throughputs == pytest.approx([15.0, 15.0])
        assert report.bottleneck_is_plc.tolist() == [False, True]

    def test_greedy_without_redistribution_yields_25(self, fig3_scenario):
        report = evaluate(fig3_scenario, [0, 1], plc_mode="active")
        assert report.aggregate == pytest.approx(25.0)
        assert report.user_throughputs == pytest.approx([15.0, 10.0])

    def test_optimal_assignment_yields_40(self, fig3_scenario):
        report = evaluate(fig3_scenario, [1, 0])
        assert report.aggregate == pytest.approx(40.0)
        assert report.user_throughputs == pytest.approx([10.0, 30.0])
        # User 2 is PLC-bottlenecked at 30 despite a 40 Mbps WiFi link.
        assert report.bottleneck_is_plc.tolist() == [True, False]


class TestEvaluateSemantics:
    def test_empty_assignment(self, fig3_scenario):
        report = evaluate(fig3_scenario, [UNASSIGNED, UNASSIGNED])
        assert report.aggregate == 0.0
        assert np.all(report.user_throughputs == 0.0)

    def test_require_complete_raises(self, fig3_scenario):
        with pytest.raises(ValueError):
            evaluate(fig3_scenario, [0, UNASSIGNED], require_complete=True)

    def test_single_user_single_extender_bottleneck(self):
        sc = Scenario(wifi_rates=np.array([[100.0]]),
                      plc_rates=np.array([40.0]))
        report = evaluate(sc, [0])
        assert report.aggregate == pytest.approx(40.0)
        assert report.bottleneck_is_plc.tolist() == [True]

    def test_wifi_bottleneck(self):
        sc = Scenario(wifi_rates=np.array([[20.0]]),
                      plc_rates=np.array([100.0]))
        report = evaluate(sc, [0])
        assert report.aggregate == pytest.approx(20.0)
        assert report.bottleneck_is_plc.tolist() == [False]

    def test_idle_extender_frees_plc_time(self):
        """An extender without users must not eat into medium time."""
        sc = Scenario(wifi_rates=np.array([[100.0, 1.0]]),
                      plc_rates=np.array([50.0, 50.0]))
        report = evaluate(sc, [0])
        assert report.aggregate == pytest.approx(50.0)


class TestEngineInvariants:
    @given(st.integers(2, 12), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_physical_feasibility(self, n_users, n_ext, seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        assignment = rng.integers(0, n_ext, size=n_users)
        report = evaluate(sc, assignment)
        # Per-extender throughput never exceeds either link segment.
        assert np.all(report.extender_throughputs
                      <= report.wifi_throughputs + 1e-9)
        assert np.all(report.extender_throughputs
                      <= report.plc_time_shares * sc.plc_rates + 1e-9)
        # PLC medium time is a single contention domain.
        assert report.plc_time_shares.sum() <= 1.0 + 1e-9
        # Per-user throughputs sum back to the aggregate.
        assert report.user_throughputs.sum() == pytest.approx(
            report.aggregate)

    @given(st.integers(2, 10), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_redistribution_dominates(self, n_users, n_ext, seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        assignment = rng.integers(0, n_ext, size=n_users)
        with_r = evaluate(sc, assignment,
                          plc_mode="redistribute").aggregate
        without = evaluate(sc, assignment, plc_mode="active").aggregate
        assert with_r >= without - 1e-9

    @given(st.integers(2, 10), st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_users_on_same_extender_get_equal_shares(self, n_users, n_ext,
                                                     seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        assignment = rng.integers(0, n_ext, size=n_users)
        report = evaluate(sc, assignment)
        for j in range(n_ext):
            members = np.flatnonzero(assignment == j)
            if members.size > 1:
                shares = report.user_throughputs[members]
                assert np.allclose(shares, shares[0])

    @given(st.integers(2, 10), st.integers(1, 6), st.integers(0, 2**31 - 1),
           st.sampled_from(PLC_MODES))
    @settings(max_examples=100, deadline=None)
    def test_aggregate_reference_is_bit_identical(self, n_users, n_ext,
                                                  seed, mode):
        """The scalar yardstick of the engine benchmark scores what
        ``evaluate`` scores, unassigned users included."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext, reachable_prob=0.7)
        best = np.argmax(sc.wifi_rates, axis=1)
        assignment = np.where(rng.random(n_users) < 0.2, UNASSIGNED, best)
        assert evaluate_aggregate_reference(sc, assignment, mode) == \
            evaluate(sc, assignment, plc_mode=mode).aggregate


class TestFixedSharingMode:
    """The Problem-1 law: idle extenders waste their 1/|A| slice."""

    def test_idle_extender_wastes_its_slice(self):
        sc = Scenario(wifi_rates=np.array([[100.0, 100.0]]),
                      plc_rates=np.array([50.0, 50.0]))
        report = evaluate(sc, [0], plc_mode="fixed")
        # Only extender 0 carries traffic, capped at c/|A| = 25.
        assert report.aggregate == pytest.approx(25.0)
        assert report.plc_time_shares[1] == 0.0

    def test_full_coverage_harvests_every_slice(self):
        sc = Scenario(wifi_rates=np.full((2, 2), 100.0),
                      plc_rates=np.array([50.0, 30.0]))
        report = evaluate(sc, [0, 1], plc_mode="fixed")
        assert report.aggregate == pytest.approx((50.0 + 30.0) / 2)

    def test_wifi_still_caps_fixed_slices(self):
        sc = Scenario(wifi_rates=np.array([[10.0, 0.0], [0.0, 100.0]]),
                      plc_rates=np.array([60.0, 60.0]))
        report = evaluate(sc, [0, 1], plc_mode="fixed")
        # Ext 0 is WiFi-bound at 10 < 30; ext 1 PLC-bound at 30.
        assert report.extender_throughputs == pytest.approx([10.0, 30.0])
        assert report.bottleneck_is_plc.tolist() == [False, True]

    def test_unknown_mode_rejected(self, fig3_scenario):
        with pytest.raises(ValueError, match="mode"):
            evaluate(fig3_scenario, [0, 1], plc_mode="magic")

    @given(st.integers(2, 10), st.integers(2, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fixed_never_beats_active(self, n_users, n_ext, seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        assignment = rng.integers(0, n_ext, size=n_users)
        fixed = evaluate(sc, assignment, plc_mode="fixed").aggregate
        active = evaluate(sc, assignment, plc_mode="active").aggregate
        assert fixed <= active + 1e-9

    @given(st.integers(2, 10), st.integers(2, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fixed_equals_active_at_full_coverage(self, n_users, n_ext,
                                                  seed):
        """When every extender has a user, the two laws coincide."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, max(n_users, n_ext), n_ext)
        assignment = np.concatenate([
            np.arange(n_ext),
            rng.integers(0, n_ext, size=sc.n_users - n_ext)])
        fixed = evaluate(sc, assignment, plc_mode="fixed").aggregate
        active = evaluate(sc, assignment, plc_mode="active").aggregate
        assert fixed == pytest.approx(active)
