"""Metric definitions of fleetbench and the end-to-end arithmetic.

``END_TO_END`` metrics come from the untraced pass.  Those with a
``bound`` are the regression-gated ones listed in ``BENCHMARK.json``;
the others are checked exactly instead (``aggregate_mbps`` and
``directives_per_epoch`` repeat bit for bit under one seed, and
``error_rate`` must be 0), so they carry no bound.  ``PER_LAYER``
metrics come from the traced pass; README.md maps each to the layer
module it times and the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = ["END_TO_END", "GATED", "Metric", "PER_LAYER", "end_to_end"]


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    Attributes:
        name: metric name.
        unit: unit string.
        better: ``"lower"`` or ``"higher"``.
        bound: share of the parent's median by which a gated end-to-end
            metric may worsen; ``None`` when the metric is not gated.
    """

    name: str
    unit: str
    better: str
    bound: Optional[float] = None


# Bounds come from the spread (IQR over the median) across 10 seeds:
# about three times the worst seen while the shared host was busy (see
# README.md).  setup_s, which the bootstrap solve makes seed-dependent,
# gets the largest.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("epoch_s_p50", "s", "lower", 0.20),
    Metric("epoch_s_p75", "s", "lower", 0.25),
    Metric("users_per_s", "users/s", "higher", 0.20),
    Metric("resume_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("aggregate_mbps", "Mbps", "higher"),
    Metric("directives_per_epoch", "count", "lower"),
    Metric("error_rate", "ratio", "lower"),
)

#: The end-to-end metrics with a regression bound.
GATED = tuple(m for m in END_TO_END if m.bound is not None)

PER_LAYER = tuple(Metric(name, unit, better) for name, unit, better in (
    ("ingest.load_s", "s", "lower"),
    ("ingest.observe_ms", "ms", "lower"),
    ("ingest.rejected_per_epoch", "count", "lower"),
    ("ingest.unchanged_share", "ratio", "higher"),
    ("health.observe_ms", "ms", "lower"),
    ("health.quarantined_per_epoch", "count", "lower"),
    ("sharding.split_ms", "ms", "lower"),
    ("sharding.segments_per_building", "count", "higher"),
    ("dispatch.wall_ms", "ms", "lower"),
    ("dispatch.shards_per_epoch", "count", "lower"),
    ("dispatch.failed_per_epoch", "count", "lower"),
    ("solve.wolt_ms", "ms", "lower"),
    ("solve.phase1_ms", "ms", "lower"),
    ("solve.hungarian_ms", "ms", "lower"),
    ("solve.final_evaluate_ms", "ms", "lower"),
    ("solve.users_per_shard", "count", "lower"),
    ("solve.phase2_ms", "ms", "lower"),
    ("solve.phase2_rounds_per_shard", "count", "lower"),
    ("engine.scalar_calls_per_epoch", "count", "lower"),
    ("engine.batch_rows_per_epoch", "count", "lower"),
    ("engine.delta_moves_per_epoch", "count", "lower"),
    ("directives.evaluate_ms", "ms", "lower"),
    ("directives.evaluate_calls_per_epoch", "count", "lower"),
    ("directives.evals_per_directive", "ratio", "lower"),
    ("guard.repair_ms", "ms", "lower"),
    ("journal.append_ms", "ms", "lower"),
    ("journal.bytes_per_epoch", "bytes", "lower"),
    ("journal.snapshot_ms", "ms", "lower"),
    ("journal.recover_ms", "ms", "lower"),
    ("service.self_ms", "ms", "lower"),
    ("render.format_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
))


def end_to_end(result: Mapping[str, Any]) -> Dict[str, float]:
    """Every end-to-end metric of one untraced pass result."""
    epochs = result["epoch_s"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "epoch_s_p50": statistics.median(epochs),
        # The highest percentile with >= 10 of the 40 samples beyond it.
        "epoch_s_p75": statistics.quantiles(epochs, n=4)[2],
        "users_per_s": result["n_users"] * len(epochs) / sum(epochs),
        "resume_s": statistics.median(result["resume_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "aggregate_mbps": result["aggregate_mbps"],
        "directives_per_epoch": result["directives_per_epoch"],
        "error_rate": result["failed"] / result["attempted"],
    }
