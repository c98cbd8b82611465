"""Time the checkout against a parent commit in alternating fleetbench runs.

Run it from the repository root::

    PYTHONPATH=src python -m scripts.bench_pairs PARENT [--workload NAME]
        [--pairs N] [--seed S]

``PARENT`` is any git ref.  It is checked out as a temporary
``git worktree``, removed again when the script ends, also on failure.
Each pair runs ``python -m benchmarks.fleetbench --workload NAME`` once
in the worktree and once in this checkout; the side that goes first
alternates from pair to pair, so a drift in the machine's speed hits
both sides alike.  Both sides run fleetbench's default length.  For
each gated end-to-end metric the script prints each side's median and
quartiles, the checkout's change against the parent and the pairs the
checkout won, then the digests and ``meta.cpus`` of the runs.  A
fleetbench run that exits non-zero (a failed pass or an incorrect
result) stops the script with that run's standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from benchmarks.fleetbench.metrics import GATED, Metric

__all__ = ["PairSummary", "format_summary", "main", "summarize_pairs"]

#: The checkout this script belongs to: the change side of each pair.
ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class PairSummary:
    """One metric over the pairs.

    Attributes:
        metric: the fleetbench metric.
        parent / change: each side's ``(q1, median, q3)`` (inclusive
            quartiles).
        delta: ``change median / parent median - 1``.
        won: pairs in which the change was strictly better.
        pairs: number of pairs.
    """

    metric: Metric
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    delta: float
    won: int
    pairs: int

    @property
    def parent_iqr(self) -> float:
        """The parent's interquartile range."""
        return self.parent[2] - self.parent[0]


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize_pairs(parent: Sequence[Mapping[str, float]],
                    change: Sequence[Mapping[str, float]],
                    metrics: Sequence[Metric] = GATED
                    ) -> List[PairSummary]:
    """Summarize paired runs: ``parent[i]`` and ``change[i]`` are pair i.

    Each run maps metric names to values.  A pair is won when the
    change's value is strictly better in the metric's direction.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of runs per side")
    out = []
    for metric in metrics:
        p = [run[metric.name] for run in parent]
        c = [run[metric.name] for run in change]
        sign = 1.0 if metric.better == "higher" else -1.0
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        parent_q, change_q = _quartiles(p), _quartiles(c)
        out.append(PairSummary(metric=metric, parent=parent_q,
                               change=change_q,
                               delta=change_q[1] / parent_q[1] - 1.0,
                               won=won, pairs=len(p)))
    return out


def format_summary(workload: str, rows: Sequence[PairSummary],
                   cpus: Any) -> str:
    """The summary table, one line per metric, then ``meta.cpus``.

    Each side reads ``median [q1, q3]``.
    """
    def side(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{workload}: {rows[0].pairs} pairs, change vs parent",
             f"  {'metric':<14} {'parent':>28} {'change':>28} "
             f"{'delta':>8} {'parent IQR':>11} {'won':>7}"]
    for row in rows:
        lines.append(
            f"  {row.metric.name:<14} {side(row.parent):>28} "
            f"{side(row.change):>28} {row.delta:>+8.1%} "
            f"{row.parent_iqr:>11.3g} {row.won:>3}/{row.pairs}")
    lines.append(f"meta.cpus: {cpus}")
    return "\n".join(lines)


def _fleetbench(checkout: Path, workload: str, seed: int,
                out: Path) -> Dict[str, Any]:
    """One fleetbench run in ``checkout``; returns its ``--out`` report."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), str(checkout)]))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.fleetbench", "--workload",
         workload, "--seed", str(seed), "--out", str(out)],
        cwd=checkout, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"fleetbench in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(out.read_text())
    out.unlink()
    return report


def _run_pairs(worktree: Path, workload: str, pairs: int, seed: int,
               scratch: Path) -> Dict[str, List[Dict[str, Any]]]:
    sides = {"parent": worktree, "change": ROOT}
    runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_fleetbench(sides[side], workload, seed,
                                          scratch / f"{side}.json"))
            print(f"pair {i + 1}/{pairs}: {side} done", file=sys.stderr,
                  flush=True)
    return runs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m scripts.bench_pairs",
        description="Alternating fleetbench runs of a parent commit and "
                    "this checkout.")
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--workload", default="towers")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2020)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    worktree = scratch / "parent"
    try:
        subprocess.run(["git", "worktree", "add", "--detach",
                        str(worktree), args.parent], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        runs = _run_pairs(worktree, args.workload, args.pairs, args.seed,
                          scratch)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(worktree)], cwd=ROOT, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    reports = {side: [run["workloads"][args.workload] for run in side_runs]
               for side, side_runs in runs.items()}
    rows = summarize_pairs(*[[r["metrics"] for r in reports[side]]
                             for side in ("parent", "change")])
    print(format_summary(args.workload, rows,
                         runs["change"][0]["meta"]["cpus"]))
    for side in ("parent", "change"):
        digests = sorted({r["digest"] for r in reports[side]})
        print(f"{side} digests: {', '.join(d[:12] for d in digests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
