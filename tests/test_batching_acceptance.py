"""Acceptance: batching changes the cost of the search, not its answer.

On the paper's Fig. 6 floor (15 extenders, ~124 users) the batched
solvers must return bit-identical assignments to their scalar references
in ``tests/oracles.py`` while issuing at least 5x fewer scalar engine
calls (measured via :func:`repro.net.engine.count_engine_calls`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import (greedy_assignment,
                                  selfish_greedy_assignment)
from repro.core.wolt import solve_wolt
from repro.net.engine import count_engine_calls
from repro.net.topology import enterprise_floor

from .oracles import (greedy_assignment_scalar,
                      selfish_greedy_assignment_scalar, solve_wolt_scalar)


@pytest.fixture(scope="module")
def fig6_floor():
    rng = np.random.default_rng(2020)
    return enterprise_floor(15, 124, rng)


class TestSolveWoltBatched:
    def test_bit_identical_with_5x_fewer_scalar_calls(self, fig6_floor):
        with count_engine_calls() as scalar_stats:
            ref = solve_wolt_scalar(fig6_floor)
        with count_engine_calls() as batched_stats:
            got = solve_wolt(fig6_floor)

        assert np.array_equal(got.assignment, ref.assignment)
        assert got.phase2.objective == ref.phase2.objective
        assert got.report.aggregate == ref.report.aggregate

        assert batched_stats.scalar_calls * 5 <= scalar_stats.scalar_calls, (
            f"batched path issued {batched_stats.scalar_calls} scalar "
            f"engine calls vs {scalar_stats.scalar_calls} unbatched")

    def test_bit_identical_across_seeds(self):
        for seed in (0, 7, 99):
            floor = enterprise_floor(15, 124,
                                     np.random.default_rng(seed))
            ref = solve_wolt_scalar(floor)
            got = solve_wolt(floor)
            assert np.array_equal(got.assignment, ref.assignment), seed
            assert got.report.aggregate == ref.report.aggregate


class TestBaselinesBatched:
    def test_greedy_bit_identical_with_5x_fewer_scalar_calls(
            self, fig6_floor):
        with count_engine_calls() as scalar_stats:
            ref = greedy_assignment_scalar(fig6_floor)
        with count_engine_calls() as batched_stats:
            got = greedy_assignment(fig6_floor)

        assert np.array_equal(got, ref)
        assert batched_stats.scalar_calls * 5 <= scalar_stats.scalar_calls

    def test_selfish_greedy_bit_identical(self, fig6_floor):
        ref = selfish_greedy_assignment_scalar(fig6_floor)
        got = selfish_greedy_assignment(fig6_floor)
        assert np.array_equal(got, ref)


class TestCallCounter:
    def test_nested_counters_both_record(self, fig6_floor):
        from repro.net.engine import evaluate, evaluate_batch
        assignment = greedy_assignment(fig6_floor)
        with count_engine_calls() as outer:
            evaluate(fig6_floor, assignment)
            with count_engine_calls() as inner:
                evaluate_batch(fig6_floor, np.tile(assignment, (3, 1)))
        assert outer.scalar_calls == 1
        assert outer.batch_calls == 1
        assert outer.batch_rows == 3
        assert inner.scalar_calls == 0
        assert inner.batch_rows == 3
        assert inner.delta_moves == outer.delta_moves == 0
