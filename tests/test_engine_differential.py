"""Differential harness: ``evaluate_batch`` vs per-row scalar ``evaluate``.

Property-based generation of random scenarios and batches of *partial*
assignments (unassigned users and empty extenders included); every field
of the batched report must match the scalar engine to 1e-9 across all
three PLC sharing laws.  This suite is the contract that lets every
search algorithm trust the batched hot path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import UNASSIGNED, Scenario
from repro.net.engine import (BatchThroughputReport, evaluate,
                              evaluate_batch)
from repro.plc.sharing import (PLC_MODES, allocate_backhaul,
                               allocate_backhaul_batch,
                               max_min_time_shares,
                               max_min_time_shares_batch)
from repro.wifi.sharing import cell_throughputs, cell_throughputs_batch

ATOL = 1e-9

_FIELDS = ("wifi_throughputs", "plc_throughputs", "plc_time_shares",
           "extender_throughputs", "user_throughputs")


def _random_scenario(rng: np.random.Generator, n_users: int,
                     n_extenders: int) -> Scenario:
    """A scenario with dead links, dead backhauls, and optional caps."""
    wifi = rng.uniform(1.0, 150.0, size=(n_users, n_extenders))
    wifi = np.where(rng.random((n_users, n_extenders)) < 0.3, 0.0, wifi)
    plc = rng.uniform(0.0, 200.0, size=n_extenders)
    plc = np.where(rng.random(n_extenders) < 0.15, 0.0, plc)
    return Scenario(wifi_rates=wifi, plc_rates=plc)


def _random_batch(rng: np.random.Generator, scenario: Scenario,
                  n_batch: int) -> np.ndarray:
    """Partial assignments: unassigned users and empty extenders happen."""
    batch = np.full((n_batch, scenario.n_users), UNASSIGNED, dtype=int)
    for b in range(n_batch):
        for i in range(scenario.n_users):
            options = scenario.reachable(i)
            if options.size and rng.random() < 0.8:
                batch[b, i] = rng.choice(options)
    return batch


class TestEvaluateBatchDifferential:
    @given(st.integers(0, 8), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_rows(self, n_users, n_ext, n_batch, seed):
        rng = np.random.default_rng(seed)
        scenario = _random_scenario(rng, n_users, n_ext)
        batch = _random_batch(rng, scenario, n_batch)
        for mode in PLC_MODES:
            report = evaluate_batch(scenario, batch, plc_mode=mode)
            assert isinstance(report, BatchThroughputReport)
            assert len(report) == n_batch
            for b in range(n_batch):
                ref = evaluate(scenario, batch[b], plc_mode=mode)
                assert np.array_equal(report.assignments[b], ref.assignment)
                for name in _FIELDS:
                    got = getattr(report, name)[b]
                    want = getattr(ref, name)
                    assert np.allclose(got, want, atol=ATOL, rtol=0.0), (
                        f"{name} mismatch in row {b} under {mode}: "
                        f"{got} != {want}")
                assert np.array_equal(report.bottleneck_is_plc[b],
                                      ref.bottleneck_is_plc)
                assert report.aggregates[b] == pytest.approx(
                    ref.aggregate, abs=ATOL)

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_all_unassigned_rows_score_zero(self, n_users, n_ext, seed):
        rng = np.random.default_rng(seed)
        scenario = _random_scenario(rng, n_users, n_ext)
        batch = np.full((3, n_users), UNASSIGNED, dtype=int)
        for mode in PLC_MODES:
            report = evaluate_batch(scenario, batch, plc_mode=mode)
            assert np.all(report.aggregates == 0.0)
            assert np.all(report.user_throughputs == 0.0)

    def test_best_breaks_ties_to_first(self):
        scenario = Scenario(wifi_rates=np.array([[40.0, 40.0]]),
                            plc_rates=np.array([100.0, 100.0]))
        report = evaluate_batch(scenario, [[0], [1]])
        assert report.best() == 0

    def test_empty_batch_best_raises(self):
        scenario = Scenario(wifi_rates=np.array([[40.0]]),
                            plc_rates=np.array([100.0]))
        report = evaluate_batch(scenario, np.empty((0, 1), dtype=int))
        assert len(report) == 0
        with pytest.raises(ValueError, match="empty batch"):
            report.best()

    def test_capacity_violations_rejected(self):
        scenario = Scenario(wifi_rates=np.full((2, 1), 40.0),
                            plc_rates=np.array([100.0]),
                            capacities=[1])
        with pytest.raises(ValueError, match="constraint \\(8\\)"):
            evaluate_batch(scenario, [[0, 0]])

    def test_incomplete_rows_rejected_when_required(self):
        scenario = Scenario(wifi_rates=np.full((2, 1), 40.0),
                            plc_rates=np.array([100.0]))
        with pytest.raises(ValueError, match="constraint \\(7\\)"):
            evaluate_batch(scenario, [[0, UNASSIGNED]],
                           require_complete=True)

    def test_unreachable_assignment_rejected(self):
        scenario = Scenario(wifi_rates=np.array([[0.0, 40.0]]),
                            plc_rates=np.array([100.0, 100.0]))
        with pytest.raises(ValueError, match="unreachable"):
            evaluate_batch(scenario, [[0]])


class TestWifiBatchDifferential:
    @given(st.integers(0, 8), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar(self, n_users, n_ext, n_batch, seed):
        rng = np.random.default_rng(seed)
        scenario = _random_scenario(rng, n_users, n_ext)
        batch = _random_batch(rng, scenario, n_batch)
        got = cell_throughputs_batch(scenario.wifi_rates, batch, n_ext)
        for b in range(n_batch):
            want = cell_throughputs(scenario.wifi_rates, batch[b], n_ext)
            assert np.allclose(got[b], want, atol=ATOL, rtol=0.0)

    def test_dead_link_rejected(self):
        rates = np.array([[0.0, 40.0]])
        with pytest.raises(ValueError, match="non-positive"):
            cell_throughputs_batch(rates, np.array([[0]]), 2)


class TestPlcBatchDifferential:
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_allocation_matches_scalar(self, n_ext, n_batch, seed):
        rng = np.random.default_rng(seed)
        rates = np.where(rng.random(n_ext) < 0.15, 0.0,
                         rng.uniform(0.0, 200.0, n_ext))
        demands = np.where(rng.random((n_batch, n_ext)) < 0.3, 0.0,
                           rng.uniform(0.0, 250.0, (n_batch, n_ext)))
        for mode in PLC_MODES:
            got = allocate_backhaul_batch(rates, demands, mode=mode)
            for b in range(n_batch):
                want = allocate_backhaul(rates, demands[b], mode=mode)
                assert np.allclose(got.time_shares[b], want.time_shares,
                                   atol=ATOL, rtol=0.0)
                assert np.allclose(got.throughputs[b], want.throughputs,
                                   atol=ATOL, rtol=0.0)
                assert np.array_equal(got.saturated[b], want.saturated)

    @given(st.integers(1, 7), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_max_min_matches_scalar(self, n_ext, n_batch, seed):
        rng = np.random.default_rng(seed)
        demands = rng.uniform(0.0, 0.8, (n_batch, n_ext))
        demands = np.where(rng.random((n_batch, n_ext)) < 0.2, 0.0, demands)
        demands = np.where(rng.random((n_batch, n_ext)) < 0.1, np.inf,
                           demands)
        got = max_min_time_shares_batch(demands)
        for b in range(n_batch):
            want = max_min_time_shares(demands[b])
            assert np.allclose(got[b], want, atol=ATOL, rtol=0.0)
