"""Unit and property tests for the PLC medium-sharing laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.plc.sharing import (_EPS, allocate_backhaul, max_min_time_shares,
                               max_min_time_shares_batch,
                               time_fair_throughputs)

from .conftest import max_examples


class TestTimeFairThroughputs:
    def test_single_extender_gets_full_rate(self):
        out = time_fair_throughputs([100.0])
        assert out == pytest.approx([100.0])

    def test_equal_split_matches_fig2c(self):
        """Fig. 2c: with k active extenders each delivers 1/k of isolation."""
        rates = np.array([60.0, 90.0, 120.0, 160.0])
        for k in (2, 3, 4):
            active = np.zeros(4, dtype=bool)
            active[:k] = True
            out = time_fair_throughputs(rates, active)
            assert out[:k] == pytest.approx(rates[:k] / k)
            assert np.all(out[k:] == 0.0)

    def test_inactive_extenders_do_not_consume_time(self):
        out = time_fair_throughputs([100.0, 50.0], active=[True, False])
        assert out[0] == pytest.approx(100.0)
        assert out[1] == 0.0

    def test_no_active_extenders(self):
        out = time_fair_throughputs([100.0, 50.0], active=[False, False])
        assert np.all(out == 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            time_fair_throughputs([-1.0])

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            time_fair_throughputs([1.0, 2.0], active=[True])


class TestMaxMinTimeShares:
    def test_all_saturated_split_equally(self):
        shares = max_min_time_shares([np.inf, np.inf, np.inf])
        assert shares == pytest.approx([1 / 3] * 3)

    def test_small_demand_fully_served(self):
        shares = max_min_time_shares([0.1, np.inf])
        assert shares == pytest.approx([0.1, 0.9])

    def test_fig3c_greedy_redistribution(self):
        """Ext 1 needs 15/60 = 0.25 time; ext 2 takes the leftover 0.75."""
        shares = max_min_time_shares([15 / 60, np.inf])
        assert shares == pytest.approx([0.25, 0.75])

    def test_zero_demand_gets_zero(self):
        shares = max_min_time_shares([0.0, 0.5])
        assert shares == pytest.approx([0.0, 0.5])

    def test_total_demand_below_one_leaves_idle_time(self):
        shares = max_min_time_shares([0.2, 0.3])
        assert shares == pytest.approx([0.2, 0.3])

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            max_min_time_shares([-0.1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            max_min_time_shares([np.nan])

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1,
                    max_size=12))
    @settings(max_examples=max_examples(200))
    def test_feasibility_and_demand_caps(self, demands):
        shares = max_min_time_shares(demands)
        assert shares.sum() <= 1.0 + 1e-9
        assert np.all(shares >= 0.0)
        assert np.all(shares <= np.asarray(demands) + 1e-9)

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1,
                    max_size=12))
    @example(demands=[1e-12, 1e-12])
    @settings(max_examples=max_examples(200))
    def test_work_conserving(self, demands):
        """Either all active demand is served or the full time is used.

        A demand of at most ``_EPS`` is inactive and gets exactly zero.
        """
        demands_arr = np.asarray(demands)
        shares = max_min_time_shares(demands_arr)
        inactive = demands_arr <= _EPS
        assert np.all(shares[inactive] == 0.0)
        total_demand = float(demands_arr[~inactive].sum())
        if total_demand <= 1.0:
            assert shares.sum() == pytest.approx(total_demand)
        else:
            assert shares.sum() == pytest.approx(1.0)

    @given(st.lists(st.sampled_from([0.0, 1e-13, 1e-12, 2e-12, 0.3, 0.7,
                                     5.0, np.inf]),
                    min_size=1, max_size=8))
    @example(demands=[1e-12, 1e-12])
    @settings(max_examples=max_examples(200))
    def test_batch_agrees_on_inactive_demands(self, demands):
        """The batch kernel grants what the scalar one does, sub-_EPS too."""
        shares = max_min_time_shares(demands)
        batch = max_min_time_shares_batch(np.array([demands, demands]))
        assert np.array_equal(batch[0], shares)
        assert np.array_equal(batch[1], shares)
        assert np.all(shares[np.asarray(demands) <= _EPS] == 0.0)

    @given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=2,
                    max_size=10))
    @settings(max_examples=max_examples(200))
    def test_max_min_property(self, demands):
        """No unsatisfied extender gets less than a satisfied-or-equal peer."""
        demands_arr = np.asarray(demands)
        shares = max_min_time_shares(demands_arr)
        unsatisfied = shares < demands_arr - 1e-9
        if np.any(unsatisfied):
            floor = shares[unsatisfied].min()
            # Everyone else either got its full demand or at least the floor.
            ok = (shares >= demands_arr - 1e-9) | (shares >= floor - 1e-9)
            assert np.all(ok)


class TestAllocateBackhaul:
    def test_isolation_throughput(self):
        alloc = allocate_backhaul([160.0], [1000.0])
        assert alloc.throughputs == pytest.approx([160.0])
        assert alloc.saturated.tolist() == [True]

    def test_fig2c_time_fair_when_all_saturated(self):
        rates = np.array([60.0, 90.0, 120.0, 160.0])
        alloc = allocate_backhaul(rates, [1e9] * 4)
        assert alloc.throughputs == pytest.approx(rates / 4)

    def test_fig3c_leftover_redistribution(self):
        alloc = allocate_backhaul([60.0, 20.0], [15.0, 1e9])
        assert alloc.throughputs == pytest.approx([15.0, 15.0])
        assert alloc.saturated.tolist() == [False, True]

    def test_no_redistribution_matches_eq2(self):
        alloc = allocate_backhaul([60.0, 20.0], [15.0, 1e9],
                                  mode="active")
        assert alloc.throughputs == pytest.approx([15.0, 10.0])

    def test_inactive_extender_frees_the_medium(self):
        alloc = allocate_backhaul([60.0, 20.0], [0.0, 1e9])
        assert alloc.throughputs == pytest.approx([0.0, 20.0])

    def test_dead_plc_link_contends_without_progress(self):
        alloc = allocate_backhaul([0.0, 100.0], [10.0, 1e9])
        assert alloc.throughputs[0] == 0.0
        # The dead link still occupies contention time.
        assert alloc.throughputs[1] < 100.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allocate_backhaul([60.0], [15.0, 20.0])

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            allocate_backhaul([-60.0], [15.0])
        with pytest.raises(ValueError):
            allocate_backhaul([60.0], [-15.0])

    @given(st.integers(min_value=1, max_value=10), st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_throughput_never_exceeds_demand_or_share(self, n, seed):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(1.0, 200.0, n)
        demands = rng.uniform(0.0, 300.0, n)
        alloc = allocate_backhaul(rates, demands)
        assert np.all(alloc.throughputs <= demands + 1e-9)
        assert np.all(alloc.throughputs <= alloc.time_shares * rates + 1e-9)
        assert alloc.time_shares.sum() <= 1.0 + 1e-9

    @given(st.integers(min_value=1, max_value=10), st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_redistribution_never_hurts(self, n, seed):
        """Max-min redistribution dominates plain time-fair sharing."""
        rng = np.random.default_rng(seed)
        rates = rng.uniform(1.0, 200.0, n)
        demands = rng.uniform(0.0, 300.0, n)
        with_redist = allocate_backhaul(rates, demands,
                                        mode="redistribute")
        without = allocate_backhaul(rates, demands, mode="active")
        assert (with_redist.throughputs.sum()
                >= without.throughputs.sum() - 1e-9)
