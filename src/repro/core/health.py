"""Extender health monitoring: quarantine and probation.

The Central Controller's PLC capacities come from offline iperf
measurements (§V-A) refreshed by telemetry.  Real power-line links lie:
capacities go NaN when a probe fails, read zero while the extender is
visibly carrying traffic, and flap by an order of magnitude between
probes (see the enterprise-PLC measurement study in PAPERS.md).  An
extender whose reported capacity cannot be trusted should not receive
users just because one probe looked great.

:class:`HealthMonitor` watches one capacity observation per extender
per epoch and drives a small quarantine state machine:

* **healthy -> quarantined** when the reported capacity is non-finite,
  zero while the extender carries traffic, or has been *flapping* —
  swinging by more than ``flap_band`` (relative) against the previous
  finite observation for ``flap_strikes`` consecutive epochs (a single
  swing is a legitimate capacity change; a sustained oscillation is a
  sick link).
* **quarantined -> healthy** after ``probation_epochs`` consecutive
  clean observations (finite, non-negative, inside the flap band).

Quarantined extenders are masked out of the solve exactly like dead
ones (the controller and the fleet service both apply
:func:`repro.core.problem.fail_extenders`: zero WiFi column, zero PLC
rate), so no user is ever *commanded* onto one.  The
monitor never quarantines the last healthy extender — serving users on
a suspect link beats serving nobody.

:meth:`HealthMonitor.observe` returns each epoch's transitions as
:class:`HealthEvent` records (the monitor keeps no log of them), and
:meth:`HealthMonitor.effective_rates` supplies last-known-good
capacities for solving while telemetry is garbage;
:func:`sanitize_rates` does the same for a client's scan report.

:meth:`HealthMonitor.state` and :meth:`HealthMonitor.restore` carry the
machine across a process restart as strict JSON (NaN becomes ``null``);
the fleet service journals one state per building per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["HealthEvent", "HealthMonitor", "sanitize_rates"]

#: Relative swing below which two finite capacity observations are
#: considered consistent (no flap strike, clean probation epoch).
_EPS = 1e-12


def sanitize_rates(rates: Sequence[float],
                   fallback: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, int]:
    """Replace non-finite / negative telemetry entries.

    Non-finite entries take the corresponding ``fallback``
    (last-known-good) value when one is provided and finite, else
    ``0.0`` (unreachable); negative entries are clamped to ``0.0``.

    Returns:
        ``(clean_rates, n_replaced)`` — a new array (the input is not
        mutated) and the number of entries replaced.

    Raises:
        ValueError: ``fallback`` does not match the shape of ``rates``.
    """
    arr = np.array(rates, dtype=float)
    nonfinite = ~np.isfinite(arr)
    negative = np.isfinite(arr) & (arr < 0)
    n_replaced = int(nonfinite.sum() + negative.sum())
    if n_replaced == 0:
        return arr, 0
    if fallback is not None:
        fb = np.asarray(fallback, dtype=float)
        if fb.shape != arr.shape:
            raise ValueError("fallback shape must match rates")
        safe_fb = np.where(np.isfinite(fb) & (fb >= 0), fb, 0.0)
        arr[nonfinite] = safe_fb[nonfinite]
    else:
        arr[nonfinite] = 0.0
    arr[negative] = 0.0
    return arr, n_replaced


def _floats_or_null(values: np.ndarray) -> List[Optional[float]]:
    """``values`` as JSON-ready floats, NaN as ``None``."""
    return [None if math.isnan(v) else v for v in values.tolist()]


@dataclass(frozen=True)
class HealthEvent:
    """One quarantine state-machine transition.

    Attributes:
        epoch: observation epoch (0-based) the transition happened in.
        extender: extender index.
        event: ``"quarantine"``, ``"readmit"`` or
            ``"quarantine-skipped"`` (the last healthy extender is
            never quarantined).
        reason: diagnostic — ``"nonfinite-capacity"``,
            ``"zero-capacity-under-traffic"``, ``"capacity-flapping"``
            or ``"probation-complete"``.
    """

    epoch: int
    extender: int
    event: str
    reason: str


class HealthMonitor:
    """Per-extender capacity health tracking with quarantine.

    Args:
        n_extenders: number of extenders watched.
        flap_band: relative swing between consecutive finite
            observations above which an epoch counts as a flap strike
            (``0.5`` = a 50 % move).
        flap_strikes: consecutive flap strikes that trigger quarantine.
        probation_epochs: consecutive clean observations a quarantined
            extender must deliver before re-admission.

    Attributes:
        epoch: observations processed so far.
    """

    def __init__(self, n_extenders: int, flap_band: float = 0.5,
                 flap_strikes: int = 2,
                 probation_epochs: int = 3) -> None:
        if n_extenders < 1:
            raise ValueError("n_extenders must be positive")
        if flap_band <= 0:
            raise ValueError("flap_band must be positive")
        if flap_strikes < 1 or probation_epochs < 1:
            raise ValueError(
                "flap_strikes and probation_epochs must be positive")
        self.n_extenders = n_extenders
        self.flap_band = flap_band
        self.flap_strikes = flap_strikes
        self.probation_epochs = probation_epochs
        self.epoch = 0
        self._quarantined = np.zeros(n_extenders, dtype=bool)
        self._flap_count = np.zeros(n_extenders, dtype=int)
        self._clean_streak = np.zeros(n_extenders, dtype=int)
        self._last_seen = np.full(n_extenders, np.nan)
        self._last_good = np.full(n_extenders, np.nan)

    # ------------------------------------------------------------------
    # queries

    @property
    def quarantined(self) -> np.ndarray:
        """Boolean quarantine mask (a copy)."""
        return self._quarantined.copy()

    def quarantined_extenders(self) -> Tuple[int, ...]:
        """Indices currently quarantined, ascending."""
        return tuple(int(j)
                     for j in np.flatnonzero(self._quarantined))

    def is_quarantined(self, extender: int) -> bool:
        """Whether one extender is currently quarantined."""
        return bool(self._quarantined[extender])

    def effective_rates(self,
                        reported: Sequence[float]) -> np.ndarray:
        """Finite capacities usable by a solver.

        Finite non-negative reports pass through; anything else takes
        the last *clean* finite non-negative observation — one
        :meth:`observe` found no fault with (suspect readings such as
        zero-under-traffic never become the fallback) — or ``0.0`` when
        there never was one.  (Quarantine is a separate concern — mask
        with :attr:`quarantined` / ``fail_extenders``.)
        """
        arr = np.asarray(reported, dtype=float).ravel()
        if arr.shape[0] != self.n_extenders:
            raise ValueError("reported must cover every extender")
        good = np.isfinite(arr) & (arr >= 0)
        fallback = np.where(np.isfinite(self._last_good),
                            self._last_good, 0.0)
        return np.where(good, arr, fallback)

    # ------------------------------------------------------------------
    # persistence

    def state(self) -> Dict[str, Any]:
        """The state machine's counters and memory as strict JSON.

        Covers everything :meth:`observe` reads except the quarantine
        mask, which callers already persist as
        :meth:`quarantined_extenders`.  ``observations`` is
        :attr:`epoch`.
        """
        return {"observations": self.epoch,
                "flap_count": self._flap_count.tolist(),
                "clean_streak": self._clean_streak.tolist(),
                "last_seen": _floats_or_null(self._last_seen),
                "last_good": _floats_or_null(self._last_good)}

    def restore(self, state: Dict[str, Any],
                quarantined: Sequence[int]) -> None:
        """Load a :meth:`state` plus the quarantined extenders' indices.

        The restored monitor observes on bit-identically to the one the
        state was taken from.

        Raises:
            KeyError: a field is missing.
            ValueError: a field does not cover every extender.
        """
        arrays: Dict[str, np.ndarray] = {}
        for name, dtype in (("flap_count", int), ("clean_streak", int),
                            ("last_seen", float), ("last_good", float)):
            values = state[name]
            if len(values) != self.n_extenders:
                raise ValueError(f"{name} must cover every extender")
            arrays[name] = np.array(
                [np.nan if v is None else v for v in values], dtype=dtype)
        mask = np.zeros(self.n_extenders, dtype=bool)
        mask[np.asarray(quarantined, dtype=int)] = True
        self.epoch = int(state["observations"])
        self._quarantined = mask
        self._flap_count = arrays["flap_count"]
        self._clean_streak = arrays["clean_streak"]
        self._last_seen = arrays["last_seen"]
        self._last_good = arrays["last_good"]

    # ------------------------------------------------------------------
    # the state machine

    def observe(self, plc_rates: Sequence[float],
                carrying_traffic: Optional[Sequence[bool]] = None
                ) -> Tuple[HealthEvent, ...]:
        """Fold in one epoch of capacity telemetry.

        Args:
            plc_rates: reported per-extender PLC capacity (Mbps); may
                contain NaN/inf (that is the point).
            carrying_traffic: per-extender flag — does the extender
                currently serve at least one user?  A zero (or
                negative) capacity report is only damning while the
                extender demonstrably carries traffic.

        Returns:
            This epoch's transitions, in extender order (empty when
            nothing changed state).
        """
        rates = np.asarray(plc_rates, dtype=float).ravel()
        if rates.shape[0] != self.n_extenders:
            raise ValueError("plc_rates must cover every extender")
        if carrying_traffic is None:
            traffic = np.zeros(self.n_extenders, dtype=bool)
        else:
            traffic = np.asarray(carrying_traffic, dtype=bool).ravel()
            if traffic.shape[0] != self.n_extenders:
                raise ValueError(
                    "carrying_traffic must cover every extender")

        events: List[HealthEvent] = []
        for j in range(self.n_extenders):
            reason = self._suspect_reason(j, float(rates[j]),
                                          bool(traffic[j]))
            if self._quarantined[j]:
                if reason is None:
                    self._clean_streak[j] += 1
                    if self._clean_streak[j] >= self.probation_epochs:
                        self._quarantined[j] = False
                        self._clean_streak[j] = 0
                        self._flap_count[j] = 0
                        events.append(HealthEvent(
                            epoch=self.epoch, extender=j,
                            event="readmit",
                            reason="probation-complete"))
                else:
                    self._clean_streak[j] = 0
            elif reason is not None:
                if np.count_nonzero(~self._quarantined) <= 1:
                    events.append(HealthEvent(
                        epoch=self.epoch, extender=j,
                        event="quarantine-skipped", reason=reason))
                else:
                    self._quarantined[j] = True
                    self._clean_streak[j] = 0
                    events.append(HealthEvent(
                        epoch=self.epoch, extender=j,
                        event="quarantine", reason=reason))
            if np.isfinite(rates[j]):
                self._last_seen[j] = float(rates[j])
                # Only a *clean* observation may become the last-known-
                # good fallback.  A damning one (zero capacity while the
                # extender demonstrably carries traffic, or a flapping
                # epoch) passes the ``>= 0`` test yet is exactly the
                # reading quarantine distrusts; folding it in would let
                # ``effective_rates`` starve the extender with its own
                # indictment long after telemetry recovers.
                if rates[j] >= 0 and reason is None:
                    self._last_good[j] = float(rates[j])
        self.epoch += 1
        return tuple(events)

    def _suspect_reason(self, j: int, rate: float,
                        traffic: bool) -> Optional[str]:
        """Why this epoch's observation is suspect (None = clean).

        Also advances the per-extender flap counter: a finite
        observation swinging more than ``flap_band`` (relative to the
        larger of the two values) against the previous finite
        observation is a strike; a consistent observation resets the
        counter.
        """
        if not np.isfinite(rate):
            return "nonfinite-capacity"
        if rate <= 0 and traffic:
            self._flap_count[j] = 0
            return "zero-capacity-under-traffic"
        prev = self._last_seen[j]
        if np.isfinite(prev):
            scale = max(abs(prev), abs(rate), _EPS)
            if abs(rate - prev) > self.flap_band * scale:
                self._flap_count[j] += 1
            else:
                self._flap_count[j] = 0
        if self._flap_count[j] >= self.flap_strikes:
            return "capacity-flapping"
        return None
