"""Analytic medium-sharing laws for the PLC backhaul.

The measurement study in Section III of the WOLT paper establishes that the
IEEE 1901 PLC backhaul, as shipped by commodity HomePlug AV2 extenders, is
shared in a *time-fair* manner: with ``k`` extenders actively receiving
saturated traffic, each extender is granted roughly ``1/k`` of the medium
time, so its throughput is ``c_j / k`` where ``c_j`` is its PHY rate
(isolation throughput).

Crucially, the paper's greedy case study (Fig. 3c) also shows that an
extender whose WiFi-side demand is *below* its time-fair PLC share does not
waste the medium: the leftover time is re-allocated among the extenders that
still have unserved demand.  That behaviour is exactly a *max-min fair*
allocation of the unit medium time, where each active extender has a demand
cap equal to the time fraction it needs to fully serve its WiFi throughput.

This module implements both the plain time-fair law (Eq. (2) of the paper)
and the max-min redistribution used by the end-to-end throughput engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = [
    "time_fair_throughputs",
    "max_min_time_shares",
    "max_min_time_shares_batch",
    "PlcAllocation",
    "BatchPlcAllocation",
    "allocate_backhaul",
    "allocate_backhaul_batch",
    "backhaul_throughputs",
    "PLC_MODES",
]

#: Tolerance used when comparing time fractions for saturation.  A demand
#: of at most ``_EPS`` is below the resolution of the time accounting: the
#: extender counts as inactive and is granted zero time.
_EPS = 1e-12


def time_fair_throughputs(plc_rates: Sequence[float],
                          active: Sequence[bool] | None = None) -> np.ndarray:
    """Plain time-fair PLC throughputs, Eq. (2) of the paper.

    Each *active* extender receives an equal ``1/A`` share of the medium
    time, where ``A`` is the number of active extenders, and therefore a
    throughput of ``c_j / A``.  Inactive extenders receive zero.

    Args:
        plc_rates: per-extender PLC PHY rates ``c_j`` (Mbps).
        active: optional boolean mask of active extenders.  When omitted,
            every extender is considered active.

    Returns:
        Array of per-extender PLC throughputs (Mbps).
    """
    rates = np.asarray(plc_rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("PLC rates must be non-negative")
    if active is None:
        mask = np.ones(rates.shape, dtype=bool)
    else:
        mask = np.asarray(active, dtype=bool)
        if mask.shape != rates.shape:
            raise ValueError("active mask must match plc_rates shape")
    n_active = int(mask.sum())
    out = np.zeros_like(rates)
    if n_active == 0:
        return out
    out[mask] = rates[mask] / n_active
    return out


def max_min_time_shares(demand_fractions: Sequence[float]) -> np.ndarray:
    """Max-min fair allocation of the unit medium time.

    Each entry of ``demand_fractions`` is the fraction of medium time an
    extender needs to fully serve its demand (``d_j / c_j``).  The total
    available time is 1.  The allocation is the classic progressive-filling
    water level: every unsatisfied extender receives an equal share of the
    remaining time; extenders whose demand lies below the water level are
    capped at their demand and the surplus is re-distributed.

    Extenders whose demand is at most ``_EPS`` (1e-12) are inactive and
    receive zero time, exactly as in :func:`max_min_time_shares_batch`.

    Args:
        demand_fractions: per-extender required time fraction (``>= 0``;
            ``np.inf`` means "unbounded demand").

    Returns:
        Array of granted time fractions, summing to at most 1 (exactly 1
        when total demand is at least 1).
    """
    demands = np.asarray(demand_fractions, dtype=float)
    if np.any(demands < 0) or np.any(np.isnan(demands)):
        raise ValueError("demand fractions must be non-negative numbers")
    return np.array(_progressive_fill(demands.tolist()))


def _progressive_fill(demands: List[float]) -> List[float]:
    """Water-filling core of :func:`max_min_time_shares` (pre-validated).

    Runs on Python floats.  The demands a water level saturates are
    summed by numpy's ``add.reduce``, in ascending extender order, so
    every grant is bit-identical to the array form in
    ``tests/oracles.py``.
    """
    granted = [0.0] * len(demands)
    unsatisfied = [j for j, d in enumerate(demands) if d > _EPS]
    remaining = 1.0
    while unsatisfied and remaining > _EPS:
        level = remaining / len(unsatisfied)
        bar = level + _EPS
        below = [j for j in unsatisfied if demands[j] <= bar]
        if not below:
            # Nobody's demand fits under the water level: split equally.
            for j in unsatisfied:
                granted[j] = level
            break
        saturated = [demands[j] for j in below]
        for j, d in zip(below, saturated):
            granted[j] = d
        remaining -= float(np.add.reduce(saturated))
        unsatisfied = [j for j in unsatisfied if demands[j] > bar]
    return granted


def max_min_time_shares_batch(demand_fractions: np.ndarray) -> np.ndarray:
    """Row-wise max-min fair time allocation for a batch of demand vectors.

    Vectorized counterpart of :func:`max_min_time_shares`: every row of
    ``demand_fractions`` is an independent progressive-filling problem, and
    all rows advance through the water-filling iterations simultaneously.
    Each iteration either saturates at least one extender per still-active
    row or finishes the row, so the loop runs at most ``n_extenders + 1``
    times regardless of the batch size.

    Args:
        demand_fractions: ``(B, n_extenders)`` matrix of required time
            fractions (``>= 0``; ``np.inf`` means unbounded demand).

    Returns:
        ``(B, n_extenders)`` array of granted time fractions; each row sums
        to at most 1.  Demands of at most ``_EPS`` are inactive and get
        zero time, as in :func:`max_min_time_shares`.
    """
    demands = np.atleast_2d(np.asarray(demand_fractions, dtype=float))
    if np.any(demands < 0) or np.any(np.isnan(demands)):
        raise ValueError("demand fractions must be non-negative numbers")
    n_batch = demands.shape[0]
    granted = np.zeros_like(demands)
    remaining = np.ones(n_batch)
    unsat = demands > _EPS
    active_rows = unsat.any(axis=1) & (remaining > _EPS)
    while np.any(active_rows):
        n_unsat = unsat.sum(axis=1)
        level = np.zeros(n_batch)
        level[active_rows] = (remaining[active_rows]
                              / n_unsat[active_rows])
        below = unsat & (demands <= level[:, np.newaxis] + _EPS)
        below &= active_rows[:, np.newaxis]
        has_below = below.any(axis=1)
        # Rows where nobody's demand fits under the water level: split the
        # remaining time equally and finish the row.
        split = active_rows & ~has_below
        if np.any(split):
            sel = split[:, np.newaxis] & unsat
            granted = np.where(sel, level[:, np.newaxis], granted)
            remaining[split] = 0.0
        # Rows with saturated extenders: grant their demands exactly and
        # redistribute the surplus in the next iteration.
        if np.any(has_below):
            granted = np.where(below, demands, granted)
            remaining = remaining - np.where(below, demands, 0.0).sum(axis=1)
            unsat &= ~below
        active_rows = unsat.any(axis=1) & (remaining > _EPS)
    return granted


@dataclass(frozen=True)
class PlcAllocation:
    """Result of allocating the PLC backhaul among extenders.

    Attributes:
        time_shares: fraction of the medium time granted to each extender.
        throughputs: resulting backhaul throughput of each extender (Mbps),
            i.e. ``time_share * c_j`` capped at the extender's demand.
        saturated: whether the extender's demand exceeded its grant (its
            backhaul is the bottleneck of the concatenated link).
    """

    time_shares: np.ndarray
    throughputs: np.ndarray
    saturated: np.ndarray


#: Valid PLC medium-sharing modes (see :func:`allocate_backhaul`).
PLC_MODES = ("redistribute", "active", "fixed")


def allocate_backhaul(plc_rates: Sequence[float],
                      demands: Sequence[float],
                      mode: str = "redistribute") -> PlcAllocation:
    """Allocate PLC medium time to extenders with given WiFi-side demands.

    Three sharing laws are supported, reflecting the three models that
    appear in the paper:

    * ``"redistribute"`` — time-fair with max-min re-allocation of
      leftover time from under-loaded extenders.  This is the behaviour
      *measured on the testbed* (Fig. 3c) and the default.
    * ``"active"`` — plain time-fair among the extenders that currently
      carry traffic, Eq. (2) with ``A`` = active count (the Fig. 2c
      reading); surplus time of an under-loaded active extender is
      wasted.
    * ``"fixed"`` — time-fair over *all* extenders, loaded or idle:
      ``T_PLC_j = c_j / |A|`` exactly as written in constraint (4) of
      Problem 1.  This is the model the paper's large-scale simulator
      optimizes and reports, and the reason Phase I insists on putting a
      user on every extender.

    Args:
        plc_rates: per-extender PLC PHY rates ``c_j`` (Mbps).
        demands: per-extender offered load from the WiFi side (Mbps);
            zero marks an inactive extender.
        mode: one of :data:`PLC_MODES`.

    Returns:
        A :class:`PlcAllocation` with per-extender time shares and
        achieved backhaul throughputs.
    """
    if mode not in PLC_MODES:
        raise ValueError(f"mode must be one of {PLC_MODES}, got {mode!r}")
    rates = np.asarray(plc_rates, dtype=float)
    load = np.asarray(demands, dtype=float)
    if rates.shape != load.shape:
        raise ValueError("plc_rates and demands must have the same shape")
    if not (np.all(rates >= 0) and np.all(load >= 0)):
        raise ValueError("rates and demands must be non-negative numbers")

    shares = np.array(_time_shares(rates.tolist(), load.tolist(), mode))
    throughputs = np.minimum(shares * rates, load)
    saturated = (load > _EPS) & (throughputs + _EPS < load)
    return PlcAllocation(time_shares=shares, throughputs=throughputs,
                         saturated=saturated)


def _time_shares(rates: List[float], load: List[float],
                 mode: str) -> List[float]:
    """Per-extender time shares for pre-validated rates and loads."""
    if mode == "redistribute":
        # An active extender with a dead PLC link (rate 0) needs infinite
        # time but can never carry traffic; give it an unbounded demand
        # so it still takes part in contention (it occupies the medium
        # without progress).
        return _progressive_fill([
            (math.inf if r <= _EPS else x / r) if x > _EPS else 0.0
            for r, x in zip(rates, load)])
    active = [x > _EPS for x in load]
    # "active" shares among the loaded extenders, "fixed" among all.
    n = sum(active) if mode == "active" else len(rates)
    return [1.0 / n if on else 0.0 for on in active]


def backhaul_throughputs(plc_rates: List[float], demands: List[float],
                         mode: str = "redistribute") -> List[float]:
    """Fast path: per-extender backhaul throughputs only, no validation.

    Bit-identical to ``allocate_backhaul(plc_rates, demands, mode)
    .throughputs`` — it runs the exact same share computation
    (:func:`_time_shares`) and cap — but takes and returns lists of
    Python floats and skips input validation, the saturation mask, and
    the :class:`PlcAllocation` construction.  The caller must guarantee
    what :func:`allocate_backhaul` would have checked: both arguments
    have the same length and finite non-negative entries, and ``mode``
    is one of :data:`PLC_MODES`.  This is the per-move hot path of
    :class:`repro.net.engine.DeltaEvaluator`, where those invariants
    are established once at construction instead of on every move.
    """
    shares = _time_shares(plc_rates, demands, mode)
    return [min(s * r, x) for s, r, x in zip(shares, plc_rates, demands)]


@dataclass(frozen=True)
class BatchPlcAllocation:
    """PLC backhaul allocations for a batch of demand vectors.

    Same semantics as :class:`PlcAllocation` with a leading batch axis:
    every array is ``(B, n_extenders)``.
    """

    time_shares: np.ndarray
    throughputs: np.ndarray
    saturated: np.ndarray


def allocate_backhaul_batch(plc_rates: Sequence[float],
                            demands: np.ndarray,
                            mode: str = "redistribute"
                            ) -> BatchPlcAllocation:
    """Allocate the PLC backhaul for a batch of WiFi-side demand vectors.

    Vectorized counterpart of :func:`allocate_backhaul`: ``demands`` is a
    ``(B, n_extenders)`` matrix and every row is allocated independently
    under the same sharing law, without a Python loop over candidates.

    Args:
        plc_rates: per-extender PLC PHY rates ``c_j`` (Mbps).
        demands: ``(B, n_extenders)`` matrix of WiFi-side offered loads.
        mode: one of :data:`PLC_MODES`.

    Returns:
        A :class:`BatchPlcAllocation`.
    """
    if mode not in PLC_MODES:
        raise ValueError(f"mode must be one of {PLC_MODES}, got {mode!r}")
    rates = np.asarray(plc_rates, dtype=float)
    load = np.atleast_2d(np.asarray(demands, dtype=float))
    if load.ndim != 2 or load.shape[1] != rates.shape[0]:
        raise ValueError(
            "demands must be a (B, n_extenders) matrix matching plc_rates")
    if np.any(rates < 0) or np.any(load < 0):
        raise ValueError("rates and demands must be non-negative")

    active = load > _EPS
    rates_row = rates[np.newaxis, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        needed = np.where(active & (rates_row > 0),
                          load / np.maximum(rates_row, _EPS), 0.0)
    needed = np.where(active & (rates_row <= _EPS), np.inf, needed)

    if mode == "redistribute":
        shares = max_min_time_shares_batch(needed)
    elif mode == "active":
        shares = np.zeros_like(load)
        n_active = active.sum(axis=1)
        rows = n_active > 0
        shares[rows] = active[rows] / n_active[rows, np.newaxis]
    else:  # fixed
        shares = np.zeros_like(load)
        if rates.size > 0:
            shares[active] = 1.0 / rates.size
    throughputs = np.minimum(shares * rates_row, load)
    saturated = active & (throughputs + _EPS < load)
    return BatchPlcAllocation(time_shares=shares, throughputs=throughputs,
                              saturated=saturated)
