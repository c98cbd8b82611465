"""The summary arithmetic of ``scripts/bench_pairs.py`` on canned runs."""

from __future__ import annotations

import pytest

from benchmarks.fleetbench.metrics import GATED, Metric
from scripts.bench_pairs import format_summary, summarize_pairs

LOWER = Metric("epoch_s_p50", "s", "lower", 0.2)
HIGHER = Metric("users_per_s", "users/s", "higher", 0.2)


def _runs(name, values):
    return [{name: v} for v in values]


class TestSummarizePairs:
    def test_lower_is_better(self):
        parent = _runs("epoch_s_p50", [0.08, 0.09, 0.07, 0.10, 0.085])
        change = _runs("epoch_s_p50", [0.06, 0.095, 0.05, 0.06, 0.06])
        (row,) = summarize_pairs(parent, change, [LOWER])
        # Inclusive quartiles of 0.07, 0.08, 0.085, 0.09, 0.10.
        assert row.parent == pytest.approx((0.08, 0.085, 0.09))
        assert row.change == pytest.approx((0.06, 0.06, 0.06))
        assert row.delta == pytest.approx(0.06 / 0.085 - 1)
        assert row.won == 4  # pair 2 is lost
        assert row.pairs == 5
        assert row.parent_iqr == pytest.approx(0.09 - 0.08)

    def test_higher_is_better(self):
        parent = _runs("users_per_s", [100.0, 200.0, 300.0, 400.0])
        change = _runs("users_per_s", [150.0, 150.0, 300.0, 500.0])
        (row,) = summarize_pairs(parent, change, [HIGHER])
        assert row.won == 2  # a tie is not a win
        assert row.parent == pytest.approx((175.0, 250.0, 325.0))
        assert row.change[1] == 225.0
        assert row.delta == pytest.approx(-0.1)
        assert row.parent_iqr == pytest.approx(325.0 - 175.0)

    def test_one_pair_has_no_spread(self):
        (row,) = summarize_pairs(_runs("epoch_s_p50", [0.1]),
                                 _runs("epoch_s_p50", [0.05]), [LOWER])
        assert row.parent == (0.1, 0.1, 0.1)
        assert row.parent_iqr == 0.0
        assert row.won == 1

    def test_defaults_to_every_gated_metric(self):
        run = {m.name: 1.0 for m in GATED}
        rows = summarize_pairs([run], [run])
        assert [r.metric for r in rows] == list(GATED)
        assert all(r.won == 0 and r.delta == 0.0 for r in rows)

    @pytest.mark.parametrize("parent,change", [([], []), ([{}], [])])
    def test_rejects_unpaired_runs(self, parent, change):
        with pytest.raises(ValueError, match="same, nonzero"):
            summarize_pairs(parent, change, [LOWER])


def test_format_summary_states_the_cpus():
    rows = summarize_pairs(_runs("epoch_s_p50", [0.1, 0.2, 0.3]),
                           _runs("epoch_s_p50", [0.05, 0.1, 0.15]), [LOWER])
    text = format_summary("towers", rows, 2)
    lines = text.splitlines()
    assert lines[0] == "towers: 3 pairs, change vs parent"
    assert lines[2].split() == ["epoch_s_p50", "0.2", "[0.15,", "0.25]",
                                "0.1", "[0.075,", "0.125]", "-50.0%",
                                "0.1", "3/3"]
    assert lines[-1] == "meta.cpus: 2"
