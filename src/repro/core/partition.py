"""The Theorem-1 NP-hardness reduction, made executable.

Theorem 1 of the paper proves Problem 1 NP-hard by reducing the
PARTITION problem to a family of Problem-1 instances with two extenders
of unbounded PLC rate.  The construction in the proof uses negative
"rates", which is a formal device; the *executable* essence is the
equivalence it rests on:

    maximizing  |N1| / sum_{i in N1} a_i  +  |N2| / sum_{i in N2} a_i
    over balanced bipartitions of positive weights is achieved when the
    two sides' weight sums are as equal as possible,

where each user's "airtime" ``a_i = 1/r_i`` plays the role of a
PARTITION weight.  This module builds that bridge in both directions:

* :func:`partition_to_scenario` encodes a PARTITION instance as a
  two-extender Problem-1 scenario whose *airtime-balanced* optimal
  association corresponds to an optimal partition;
* :func:`balanced_partition_value` recovers the partition imbalance
  from an association;
* :func:`solve_partition_by_association` runs the reduction end to end
  on small instances, enumerating every two-sided association.

It exists to *test* the hardness construction, and as documentation of
why no polynomial exact algorithm should be expected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import itertools

import numpy as np

from .problem import Scenario

__all__ = ["partition_to_scenario", "balanced_partition_value",
           "solve_partition_by_association", "PartitionResult"]

#: PLC rate standing in for the proof's "very good" (infinite) links.
_HUGE_PLC_RATE = 1e9


def partition_to_scenario(weights: Sequence[float]) -> Scenario:
    """Encode a PARTITION instance as a two-extender scenario.

    Each element of weight ``w_i`` becomes a user whose WiFi *airtime*
    per bit is ``w_i`` toward both extenders (rate ``1/w_i``); both
    extenders have effectively unbounded PLC backhaul, so Problem 1's
    objective reduces to the pure WiFi term the proof of Theorem 1
    analyzes.
    """
    w = np.asarray(list(weights), dtype=float)
    if w.size < 2:
        raise ValueError("PARTITION needs at least two weights")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    rates = np.repeat((1.0 / w)[:, np.newaxis], 2, axis=1)
    return Scenario(wifi_rates=rates,
                    plc_rates=np.array([_HUGE_PLC_RATE, _HUGE_PLC_RATE]))


def balanced_partition_value(weights: Sequence[float],
                             assignment: Sequence[int]) -> float:
    """Imbalance ``|sum(side 0) - sum(side 1)|`` of an association."""
    w = np.asarray(list(weights), dtype=float)
    assign = np.asarray(list(assignment), dtype=int)
    if assign.shape != w.shape:
        raise ValueError("one side per weight is required")
    if not set(np.unique(assign)) <= {0, 1}:
        raise ValueError("assignment must be binary (two extenders)")
    side0 = float(w[assign == 0].sum())
    return abs(side0 - (float(w.sum()) - side0))


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of solving PARTITION through Problem 1.

    Attributes:
        assignment: side (extender) of each element.
        imbalance: ``|W0 - W1|`` of the produced partition.
        is_perfect: the instance admits — and we found — a perfect
            (zero-imbalance) balanced partition.
    """

    assignment: np.ndarray
    imbalance: float
    is_perfect: bool


def solve_partition_by_association(weights: Sequence[float]
                                   ) -> PartitionResult:
    """Solve PARTITION on a small instance via Problem-1 associations.

    Following the proof of Theorem 1: padding each side with zero-weight
    dummy users equalizes the member counts, after which the Problem-1
    objective under the reduction is ``C/W0 + C/W1`` for a constant
    ``C`` — a convex function of the side weight ``W0`` whose *minimum*
    sits at the balanced split ``W0 = W/2``.  (The proof's negative
    rates turn Problem 1's maximization into exactly this minimization;
    we work with positive airtimes and minimize directly over every
    dummy-padded split.)  Exponential, as it must be.
    """
    w = np.asarray(list(weights), dtype=float)
    if w.size < 2:
        raise ValueError("PARTITION needs at least two weights")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if w.size > 20:
        raise ValueError("instance too large for the exact reduction")
    best_assignment = None
    best_objective = np.inf
    n = w.size
    for k in range(1, n):
        for side0 in itertools.combinations(range(n), k):
            assign = np.ones(n, dtype=int)
            assign[list(side0)] = 0
            w0 = float(w[assign == 0].sum())
            w1 = float(w.sum()) - w0
            # Dummy-padded Problem-1 objective (the constant C divides
            # out): minimized at the weight-balanced split.
            objective = 1.0 / w0 + 1.0 / w1
            if objective < best_objective:
                best_objective = objective
                best_assignment = assign
    imbalance = balanced_partition_value(w, best_assignment)
    # A perfect partition is only detectable when the total is even
    # (for integer weights); report exactness by imbalance.
    return PartitionResult(assignment=best_assignment,
                           imbalance=imbalance,
                           is_perfect=bool(imbalance < 1e-9))
