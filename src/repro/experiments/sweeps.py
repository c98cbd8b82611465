"""Parameter sweeps: where WOLT's advantage grows, shrinks, and crosses.

The paper evaluates two operating points (3 ext / 7 users and 15 ext /
36-124 users).  These sweeps chart the space between and around them:

* :func:`sweep_extenders` — WOLT/Greedy ratio vs extender count (the
  advantage grows with |A| under the fixed law: more time slices for
  Greedy to strand).
* :func:`sweep_users` — ratio vs population at fixed |A| (the paper's
  Fig. 6b trajectory, generalized).
* :func:`sweep_plc_quality` — ratio vs the PLC capacity range: when the
  backhaul stops being the bottleneck, association stops mattering and
  the policies converge (the crossover).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.problem import Scenario
from ..net.topology import enterprise_floor
from ..sim.checkpoint import TrialStore, fingerprint
from ..sim.runner import COMPARED_POLICIES, run_policy
from ..testbed.calibration import sample_isolation_capacities
from ..wifi.phy import WifiPhy
from .common import format_rows

__all__ = ["SweepResult", "sweep_extenders", "sweep_users",
           "sweep_plc_quality", "main"]


@dataclass(frozen=True)
class SweepResult:
    """One sweep's series.

    Attributes:
        parameter: the swept parameter's name.
        values: the parameter values.
        ratio_wolt_greedy: mean WOLT/Greedy aggregate ratio per value.
        ratio_wolt_rssi: mean WOLT/RSSI aggregate ratio per value.
    """

    parameter: str
    values: Tuple[float, ...]
    ratio_wolt_greedy: Tuple[float, ...]
    ratio_wolt_rssi: Tuple[float, ...]


def _sweep(parameter: str, values: Sequence[float],
           scenario_for: Callable[[Any, np.random.Generator], Scenario],
           n_trials: int, seed: int) -> SweepResult:
    """Mean WOLT/Greedy and WOLT/RSSI aggregate ratios per swept value.

    ``scenario_for(value, rng)`` draws one trial's scenario at
    ``value``.  Two sets of per-trial child streams, one for scenarios
    and one for arrival orders, are spawned from one
    ``SeedSequence(seed)`` root (spawn state advances between the two
    calls, so the sets are disjoint).  Every value reuses the same
    children, keeping the design paired: value ``k`` and value ``k+1``
    see the same scenario randomness, so their ratio difference is
    attributable to the parameter.

    Raises:
        ValueError: ``values`` is empty or ``n_trials`` is not positive.
    """
    if len(values) == 0:
        raise ValueError(f"sweep over {parameter} needs at least one value")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    root = np.random.SeedSequence(seed)
    scenario_seqs, order_seqs = root.spawn(n_trials), root.spawn(n_trials)
    wg_series, wr_series = [], []
    for value in values:
        wg, wr = [], []
        for scenario_seq, order_seq in zip(scenario_seqs, order_seqs):
            scenario = scenario_for(value,
                                    np.random.default_rng(scenario_seq))
            rng = np.random.default_rng(order_seq)
            wolt, greedy, rssi = (
                run_policy(scenario, policy, rng,
                           "fixed").aggregate_throughput
                for policy in COMPARED_POLICIES)
            wg.append(wolt / greedy)
            wr.append(wolt / rssi)
        wg_series.append(float(np.mean(wg)))
        wr_series.append(float(np.mean(wr)))
    return SweepResult(parameter=parameter,
                       values=tuple(float(x) for x in values),
                       ratio_wolt_greedy=tuple(wg_series),
                       ratio_wolt_rssi=tuple(wr_series))


def sweep_extenders(extender_counts: Sequence[int] = (3, 6, 9, 12, 15),
                    n_users: int = 36, n_trials: int = 6,
                    seed: int = 0) -> SweepResult:
    """WOLT's advantage vs extender count."""
    return _sweep("n_extenders", extender_counts,
                  lambda n_ext, rng: enterprise_floor(n_ext, n_users, rng),
                  n_trials, seed)


def sweep_users(user_counts: Sequence[int] = (15, 36, 60, 90, 124),
                n_extenders: int = 15, n_trials: int = 6,
                seed: int = 0) -> SweepResult:
    """WOLT's advantage vs population size (generalized Fig. 6b)."""
    return _sweep("n_users", user_counts,
                  lambda n_users, rng: enterprise_floor(n_extenders,
                                                        n_users, rng),
                  n_trials, seed)


def sweep_plc_quality(capacity_scales: Sequence[float] = (0.5, 1.0, 2.0,
                                                          4.0, 8.0),
                      n_extenders: int = 10, n_users: int = 30,
                      n_trials: int = 6, seed: int = 0) -> SweepResult:
    """WOLT's advantage vs backhaul quality — the crossover sweep.

    Capacities are drawn from the calibrated 60-160 Mbps range, then
    scaled; at large scales the PLC stops binding (Ethernet-like
    backhaul) and the association policies converge toward parity.
    """
    phy = WifiPhy()

    def scenario_for(scale: float, rng: np.random.Generator) -> Scenario:
        base = enterprise_floor(n_extenders, n_users, rng, phy=phy)
        caps = sample_isolation_capacities(n_extenders, rng) * scale
        return Scenario(wifi_rates=base.wifi_rates, plc_rates=caps)

    return _sweep("plc_capacity_scale", capacity_scales, scenario_for,
                  n_trials, seed)


def main(seed: int = 0, n_trials: int = 6,
         checkpoint: Optional[Union[str, Path]] = None,
         resume: bool = False) -> str:
    """Run all three sweeps and format the series.

    With ``checkpoint`` set, each finished sweep is journaled to a
    crash-consistent :class:`~repro.sim.checkpoint.TrialStore` as one
    record (index 0, 1 and 2 for the extender, user and PLC-scale
    sweeps), and the store is snapshotted once all three are done.
    With ``resume`` the journaled sweeps are merged instead of
    recomputed, so a killed run only repeats its unfinished sweeps and
    prints what a cold run prints.  A checkpoint from another seed or
    trial count is rejected with
    :class:`~repro.sim.checkpoint.FingerprintMismatch`.
    """
    if n_trials < 1:  # before any write
        raise ValueError("n_trials must be positive")
    store: Optional[TrialStore] = None
    if checkpoint is not None:
        params = {"kind": "sweeps", "seed": int(seed),
                  "n_trials": int(n_trials)}
        store = TrialStore(checkpoint, fingerprint(params),
                           params=params, resume=resume)
    sweep_fns = (("extender count", sweep_extenders),
                 ("user count", sweep_users),
                 ("PLC capacity scale", sweep_plc_quality))
    out = []
    try:
        for index, (name, sweep_fn) in enumerate(sweep_fns):
            if store is not None and index in store:
                sweep = SweepResult(**{
                    key: value if key == "parameter" else tuple(value)
                    for key, value in store.records[index].items()})
            else:
                sweep = sweep_fn(seed=seed, n_trials=n_trials)
                if store is not None:
                    store.append(index, asdict(sweep))
            out.append(f"Sweep over {name} "
                       "(mean aggregate ratios, paper-model scoring)")
            out.append(format_rows(
                [sweep.parameter, "WOLT/Greedy", "WOLT/RSSI"],
                [(v, wg, wr) for v, wg, wr in
                 zip(sweep.values, sweep.ratio_wolt_greedy,
                     sweep.ratio_wolt_rssi)]))
            out.append("")
        if store is not None:
            store.snapshot()
    finally:
        if store is not None:
            store.close()
    return "\n".join(out)
