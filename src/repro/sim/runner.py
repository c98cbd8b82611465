"""Trial runners for the large-scale simulation experiments (Fig. 6).

These helpers wrap topology sampling, policy execution, and metric
collection behind seeded, reproducible entry points used by the
benchmarks and examples.  :func:`run_policy` is the one way a static
experiment (Figs. 4a, 4b, 5 and 6a, the sweeps, ``wolt solve``) runs
and scores a policy.

Durability (see ``docs/ROBUSTNESS.md``): ``run_trials`` can journal
every completed trial to a crash-consistent
:class:`~repro.sim.checkpoint.TrialStore`, resume an interrupted sweep
bit-identically, enforce per-trial deadlines with hung-worker reaping,
and convert pool crashes and SIGINT/SIGTERM into explicit partial
results instead of run loss.

The chunked warm-pool machinery itself (supervision, pool leases,
deadline reaping, broken-pool quarantine) lives in
:mod:`repro.sim.dispatch`; this module supplies the trial-shaped work
(specs, solvers, checkpoint codec) and is dispatch's canonical client.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..core.baselines import (greedy_assignment, random_assignment,
                              rssi_assignment)
from ..core.controller import POLICIES as CONTROLLER_POLICIES
from ..core.problem import Scenario
from ..core.wolt import solve_wolt
from ..net.engine import evaluate
from ..net.metrics import jain_fairness
from ..net.topology import enterprise_floor, sample_floor_plan
from .checkpoint import TrialStore, fingerprint
from .dispatch import (POOL_ERROR_TYPE, TIMEOUT_ERROR_TYPE,
                       InterruptState, SignalGuard, WorkFailure,
                       dispatch_chunked, shutdown_warm_pools)
from .dynamics import EpochStats, OnlineSimulation

__all__ = ["PolicyOutcome", "TrialResult", "TrialRunResult",
           "check_policies", "run_policy", "run_trials",
           "run_online_comparison", "shutdown_warm_pools"]

#: The association policies known to the runner.
POLICY_NAMES = ("wolt", "greedy", "rssi", "random")

#: The policies the static experiments compare, in run order: greedy's
#: arrival permutation is then the only draw on a shared generator.
COMPARED_POLICIES = ("wolt", "greedy", "rssi")

#: A fault hook called as ``hook(trial_index, attempt)`` at the start of
#: every trial attempt; it may raise to simulate a worker crash (see
#: :class:`repro.sim.faults.CrashSchedule`).  Must be picklable when
#: ``workers`` is used.
FaultHook = Callable[[int, int], None]


@dataclass(frozen=True)
class PolicyOutcome:
    """One policy's result on one scenario.

    Attributes:
        policy: policy name.
        aggregate_throughput: total end-to-end throughput (Mbps).
        jain_fairness: Jain index over per-user throughputs.
        user_throughputs: per-user throughputs (Mbps), scenario order.
        assignment: the chosen per-user extender indices.
    """

    policy: str
    aggregate_throughput: float  # woltlint: disable=W005 — established result API; value is Mbps
    jain_fairness: float
    user_throughputs: np.ndarray
    assignment: np.ndarray


@dataclass(frozen=True)
class TrialResult:
    """All policies' outcomes on one sampled scenario."""

    scenario: Scenario
    outcomes: Dict[str, PolicyOutcome]

    def aggregate(self, policy: str) -> float:
        return self.outcomes[policy].aggregate_throughput


class TrialRunResult(List[Union[TrialResult, WorkFailure]]):
    """The list of per-trial results plus run-level durability markers.

    Behaves exactly like the plain list older callers expect, with
    three extra attributes:

    Attributes:
        interrupted: ``None`` for a run that finished, else the name of
            the signal (``"SIGINT"``/``"SIGTERM"``) that stopped it; an
            interrupted run returns only the trials completed so far.
        resumed: number of trials merged from the checkpoint instead of
            recomputed.
        checkpoint: the journal path, when checkpointing was active.
    """

    def __init__(self,
                 items: Sequence[Union[TrialResult, WorkFailure]] = (),
                 interrupted: Optional[str] = None, resumed: int = 0,
                 checkpoint: Optional[str] = None) -> None:
        super().__init__(items)
        self.interrupted = interrupted
        self.resumed = resumed
        self.checkpoint = checkpoint


def check_policies(policies: Sequence[str]) -> None:
    """Raise ``ValueError`` unless every name is in
    :data:`POLICY_NAMES` and none repeats."""
    unknown = set(policies) - set(POLICY_NAMES)
    if unknown:
        raise ValueError(f"unknown policies: {sorted(unknown)}")
    dupes = sorted(name for name, count in Counter(policies).items()
                   if count > 1)
    if dupes:
        raise ValueError(
            f"duplicate policies: {dupes} — outcomes are keyed by "
            "policy name, so a duplicate entry would silently collapse")


def run_policy(scenario: Scenario, policy: str,
               rng: Optional[np.random.Generator] = None,
               plc_mode: str = "redistribute") -> PolicyOutcome:
    """Run one association policy on a scenario and measure it.

    Policies always *decide* against the physically measured network
    behaviour (the redistributing testbed law — that is what a deployed
    controller observes through iperf); ``plc_mode`` selects the law the
    outcome is *evaluated* under, so experiments can score policies with
    the paper's Problem-1 model (``"fixed"``) the way the paper's own
    simulator does.

    Args:
        scenario: the network snapshot.
        policy: one of ``wolt``, ``greedy``, ``rssi``, ``random``.
        rng: generator for the stochastic pieces (random policy, greedy
            arrival order shuffling); deterministic policies ignore it.
        plc_mode: PLC sharing law used for scoring.
    """
    # woltlint: disable=W010 — API-level default for ad-hoc direct
    # calls only; the worker path always passes a generator built from
    # the trial's pre-spawned policy SeedSequence child.
    rng = rng or np.random.default_rng(0)
    if policy == "wolt":
        result = solve_wolt(scenario, plc_mode=plc_mode)
        assignment = result.assignment
        report = result.report
    else:
        if policy == "greedy":
            order = rng.permutation(scenario.n_users)
            assignment = greedy_assignment(scenario, arrival_order=order)
        elif policy == "rssi":
            assignment = rssi_assignment(scenario)
        elif policy == "random":
            assignment = random_assignment(scenario, rng)
        else:
            raise ValueError(f"unknown policy {policy!r}")
        report = evaluate(scenario, assignment, require_complete=True,
                          plc_mode=plc_mode)
    return PolicyOutcome(policy=policy,
                         aggregate_throughput=report.aggregate,
                         jain_fairness=jain_fairness(
                             report.user_throughputs),
                         user_throughputs=report.user_throughputs,
                         assignment=np.asarray(assignment))


@dataclass(frozen=True)
class _RunConfig:
    """The run-level trial parameters every trial of a sweep shares.

    Splitting this static block away from the per-trial seeds is what
    makes chunked dispatch cheap: the config is pickled once per
    *chunk* instead of once per trial, and the per-trial spec shrinks
    to a trial index plus its SeedSequence children.
    """

    n_extenders: int
    n_users: int
    policies: Tuple[str, ...]
    plc_mode: str
    # woltlint: disable=W013 — operational: a fault hook injects faults
    # that the retry machinery must converge through to bit-identical
    # results (enforced by the fault-equivalence tests), so it must not
    # shift the run fingerprint.
    fault_hook: Optional[FaultHook]
    # woltlint: disable=W013 — operational retry budget; changing it
    # cannot change converged trial results, only whether a fault run
    # fails fast.
    max_retries: int


@dataclass(frozen=True)
class _TrialSpec:
    """The per-trial half of the work: index plus seed material.

    ``scenario_seq`` seeds the floor sampling; ``policy_seqs`` holds one
    pre-spawned SeedSequence child *per policy name* (keyed by identity,
    not by position in the ``policies`` tuple), so a policy's stream —
    and therefore its outcome — never depends on which other policies
    run alongside it, on execution order, or on retry attempts.

    ``index`` is the supervisor-facing contract: every work spec the
    chunked dispatch layer handles exposes its 0-based position under
    this name (see :class:`WorkSpec`).
    """

    # woltlint: disable=W013 — derived, not configuration: the index
    # and both SeedSequence children are pure functions of (seed,
    # n_trials, policies), which the fingerprint already covers.
    index: int
    # woltlint: disable=W013 — derived from the fingerprinted seed.
    scenario_seq: np.random.SeedSequence
    # woltlint: disable=W013 — derived from the fingerprinted seed.
    policy_seqs: Dict[str, np.random.SeedSequence]


# ---------------------------------------------------------------------------
# Dispatch work units: the ``fn(config, spec)`` callables the runner
# ships through repro.sim.dispatch.  Module-level so a process pool can
# pickle them.


def _run_single_trial(config: _RunConfig, spec: _TrialSpec,
                      attempt: int = 0) -> TrialResult:
    """Run one Monte-Carlo trial attempt, letting errors propagate.

    The spec carries the trial's own pre-spawned
    :class:`numpy.random.SeedSequence` children, which make the result
    independent of which worker — or how many workers — execute it, and
    bit-identical across retry attempts.
    """
    if config.fault_hook is not None:
        config.fault_hook(spec.index, attempt)
    rng = np.random.default_rng(spec.scenario_seq)
    scenario = enterprise_floor(config.n_extenders, config.n_users, rng)
    outcomes = {}
    for policy in config.policies:
        policy_rng = np.random.default_rng(spec.policy_seqs[policy])
        outcomes[policy] = run_policy(scenario, policy, policy_rng,
                                      plc_mode=config.plc_mode)
    return TrialResult(scenario=scenario, outcomes=outcomes)


def _run_trial_guarded(config: _RunConfig, spec: _TrialSpec
                       ) -> Union[TrialResult, WorkFailure]:
    """Run one trial with bounded retries; never raises on trial errors.

    A crashed attempt is retried with the *same* SeedSequence children
    (a clean retry reproduces the original trial bit-identically); when
    the budget is exhausted the trial is returned as an explicit
    :class:`~repro.sim.dispatch.WorkFailure` instead of destroying the
    whole run.
    """
    last_error: Optional[BaseException] = None
    for attempt in range(config.max_retries + 1):
        try:
            return _run_single_trial(config, spec, attempt)
        except Exception as exc:
            last_error = exc
    return WorkFailure(index=spec.index,
                       attempts=config.max_retries + 1,
                       error_type=type(last_error).__name__,
                       error=repr(last_error))


# ---------------------------------------------------------------------------
# Checkpoint codec: TrialResult / WorkFailure <-> JSON payloads.
#
# Every float goes through Python's shortest-round-trip repr (what
# json emits), so decode(encode(x)) is bit-identical to x — the basis
# of the resume == cold-run contract.  A failure's index is stored
# under "trial_index", the key journals have always used.


def _encode_record(result: Union[TrialResult, WorkFailure]
                   ) -> Dict[str, Any]:
    if isinstance(result, WorkFailure):
        return {"type": "failure", "trial_index": result.index,
                "attempts": result.attempts,
                "error_type": result.error_type, "error": result.error}
    scenario = result.scenario
    return {
        "type": "result",
        "scenario": {
            "wifi_rates": scenario.wifi_rates.tolist(),
            "plc_rates": scenario.plc_rates.tolist(),
            "capacities": (None if scenario.capacities is None
                           else scenario.capacities.tolist()),
            "user_ids": (None if scenario.user_ids is None
                         else np.asarray(scenario.user_ids).tolist()),
        },
        "outcomes": [
            {"policy": o.policy,
             "aggregate_throughput": o.aggregate_throughput,
             "jain_fairness": o.jain_fairness,
             "user_throughputs": o.user_throughputs.tolist(),
             "assignment": o.assignment.tolist()}
            for o in result.outcomes.values()
        ],
    }


def _decode_record(payload: Dict[str, Any]
                   ) -> Union[TrialResult, WorkFailure]:
    if payload["type"] == "failure":
        return WorkFailure(index=int(payload["trial_index"]),
                           attempts=int(payload["attempts"]),
                           error_type=payload["error_type"],
                           error=payload["error"])
    raw = payload["scenario"]
    scenario = Scenario(
        wifi_rates=np.asarray(raw["wifi_rates"], dtype=float),
        plc_rates=np.asarray(raw["plc_rates"], dtype=float),
        capacities=(None if raw["capacities"] is None
                    else np.asarray(raw["capacities"], dtype=int)),
        user_ids=(None if raw["user_ids"] is None
                  else np.asarray(raw["user_ids"])))
    outcomes = {}
    for entry in payload["outcomes"]:
        outcomes[entry["policy"]] = PolicyOutcome(
            policy=entry["policy"],
            aggregate_throughput=entry["aggregate_throughput"],
            jain_fairness=entry["jain_fairness"],
            user_throughputs=np.asarray(entry["user_throughputs"],
                                        dtype=float),
            assignment=np.asarray(entry["assignment"], dtype=int))
    return TrialResult(scenario=scenario, outcomes=outcomes)


def _run_fingerprint(n_trials: int, n_extenders: int, n_users: int,
                     policies: Sequence[str], seed: int,
                     plc_mode: str) -> Tuple[str, Dict[str, Any]]:
    """The checkpoint fingerprint over the run's scientific parameters.

    Operational knobs (workers, retries, timeouts, fault hooks) are
    deliberately excluded: they never change what a completed trial's
    *result* is, so a sweep may be resumed with a different worker
    count or deadline.  Every trial draws the paper's 100 m x 100 m
    floor with the default PHY; the ``width_m``, ``height_m`` and
    ``phy`` keys still record it, so journals written while those were
    settable resume unchanged.
    """
    params = {"kind": "run_trials", "n_trials": int(n_trials),
              "n_extenders": int(n_extenders), "n_users": int(n_users),
              "policies": list(policies), "seed": int(seed),
              "width_m": 100.0, "height_m": 100.0,
              "phy": None, "plc_mode": plc_mode}
    return fingerprint(params), params


def run_trials(n_trials: int,
               n_extenders: int,
               n_users: int,
               policies: Sequence[str] = COMPARED_POLICIES,
               seed: int = 0,
               plc_mode: str = "redistribute",
               workers: Optional[int] = None,
               max_retries: Optional[int] = None,
               fault_hook: Optional[FaultHook] = None,
               checkpoint: Optional[Union[str, Path]] = None,
               resume: bool = False,
               timeout_s: Optional[float] = None) -> TrialRunResult:
    """Monte-Carlo policy comparison over random floors (Fig. 6a).

    Each trial samples a fresh enterprise floor (wiring plant, extender
    and user placement) on the paper's 100 m x 100 m plane with the
    default WiFi PHY, and runs every policy on the same scenario.

    Trials are seeded with per-trial children of
    ``numpy.random.SeedSequence(seed)`` (trial ``t`` gets the ``t``-th
    spawn); each trial additionally pre-spawns one grandchild per
    *policy name*, so every policy owns a stream independent of which
    other policies run alongside it.  Results are therefore
    bit-identical across worker counts, across retry attempts, across
    checkpoint/resume boundaries, and — for any single policy — across
    ``policies`` subsets.

    Durable mode (any of ``checkpoint``/``timeout_s`` set, or
    ``max_retries`` not None) never loses completed work: trial errors
    become :class:`WorkFailure` records, completed trials are
    journaled before the next one starts, and SIGINT/SIGTERM drain
    gracefully instead of destroying the run.

    Args:
        n_trials: number of independent scenarios (paper: 100).
        n_extenders: extenders per floor (paper: 15).
        n_users: users per floor (paper: 36).
        policies: subset of :data:`POLICY_NAMES` to run (no duplicates).
        seed: master seed for the :class:`~numpy.random.SeedSequence`.
        plc_mode: PLC sharing law used for scoring (the paper's
            simulator corresponds to ``"fixed"``).
        workers: number of worker processes; ``None``, 0, or 1 run
            serially in-process (except that ``timeout_s`` promotes
            ``workers=1`` to a supervised single-worker pool — a
            deadline needs a process boundary to reap across).  Pools
            are kept warm and reused by later ``run_trials`` calls with
            the same worker count (see :func:`shutdown_warm_pools`).
            Trials ship in chunks of about two waves per worker
            (:func:`repro.sim.dispatch.dispatch_chunked`); results are
            always re-emitted in trial order regardless of chunk
            completion order.
        max_retries: when ``None`` (default), a trial exception
            propagates to the caller unchanged (unless durable mode is
            active, which implies a budget of 0).  When an int, a
            crashed trial is retried up to ``max_retries`` times with
            the same SeedSequence children and, on exhaustion, returned
            as an explicit :class:`WorkFailure` record — surviving
            trials are never lost.
        fault_hook: optional ``hook(trial_index, attempt)`` run at the
            start of every attempt; may raise to inject trial crashes
            (see :class:`repro.sim.faults.CrashSchedule`).  Must be
            picklable when ``workers`` is used.
        checkpoint: journal path.  Every completed trial is appended to
            a crash-consistent :class:`~repro.sim.checkpoint.TrialStore`
            (flushed + fsynced per record) and the journal is compacted
            to a canonical snapshot when the run finishes.
        resume: continue an existing checkpoint: completed trial
            indices are skipped and their stored results merged, making
            the resumed run bit-identical to a cold run with the same
            seed.  A checkpoint written under different scientific
            parameters is rejected with
            :class:`~repro.sim.checkpoint.FingerprintMismatch`.
        timeout_s: per-trial wall-clock deadline.  A trial that
            outlives it is reaped (its worker killed, the pool
            recycled) and recorded as a :class:`WorkFailure` with
            ``error_type=TIMEOUT_ERROR_TYPE``; remaining trials
            continue.  A chunk gets one trial's deadline and is split
            into single-trial chunks if it overruns it, so the
            deadline contract stays per trial.  Requires
            ``workers >= 1``.

    Returns:
        A :class:`TrialRunResult` (a plain ``list`` plus the
        ``interrupted``/``resumed``/``checkpoint`` markers) holding one
        :class:`TrialResult` — or, in guarded/durable mode, possibly a
        :class:`WorkFailure` — per completed trial, in trial order.
        After an interruption the list covers only the completed
        prefix-set of trials.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    check_policies(policies)
    if max_retries is not None and max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    if timeout_s is not None and (workers is None or workers < 1):
        raise ValueError(
            "timeout_s requires workers >= 1: reaping a hung trial "
            "needs a worker process boundary to kill across")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")

    store: Optional[TrialStore] = None
    if checkpoint is not None:
        digest, params = _run_fingerprint(
            n_trials, n_extenders, n_users, policies, seed, plc_mode)
        store = TrialStore(checkpoint, digest, params=params,
                           resume=resume)

    durable = store is not None or timeout_s is not None
    guarded = max_retries is not None or durable
    config = _RunConfig(
        n_extenders=n_extenders, n_users=n_users,
        policies=tuple(policies), plc_mode=plc_mode,
        fault_hook=fault_hook,
        max_retries=0 if max_retries is None else max_retries)
    children = np.random.SeedSequence(seed).spawn(n_trials)
    specs = []
    for index, child in enumerate(children):
        policy_children = child.spawn(len(POLICY_NAMES))
        policy_seqs = {name: policy_children[k]
                       for k, name in enumerate(POLICY_NAMES)}
        specs.append(_TrialSpec(index=index, scenario_seq=child,
                                policy_seqs=policy_seqs))

    results: Dict[int, Union[TrialResult, WorkFailure]] = {}
    resumed = 0
    if store is not None:
        for index, payload in store.records.items():
            results[index] = _decode_record(payload)
        resumed = len(results)
    pending = [s for s in specs if s.index not in results]

    def record(index: int,
               result: Union[TrialResult, WorkFailure]) -> None:
        results[index] = result
        if store is not None:
            store.append(index, _encode_record(result))

    state = InterruptState()
    try:
        with SignalGuard(state) if store is not None else nullcontext():
            dispatch_chunked(
                pending, config,
                _run_trial_guarded if guarded else _run_single_trial,
                workers=workers, retry_budget=max_retries or 0, timeout_s=timeout_s,
                record=record, state=state)
        if store is not None:
            if state.interrupted:
                # Leave the raw journal in place (marker included) for
                # forensics; the next resume completes and compacts it.
                store.append_event("interrupted",
                                   signal=state.signal_name,
                                   completed=len(results))
            else:
                store.snapshot()
    finally:
        if store is not None:
            store.close()
    return TrialRunResult(
        [results[i] for i in sorted(results)],
        interrupted=state.signal_name, resumed=resumed,
        checkpoint=None if checkpoint is None else str(checkpoint))


def run_online_comparison(n_epochs: int,
                          n_extenders: int,
                          initial_users: int,
                          policies: Sequence[str] = ("wolt", "greedy"),
                          seed: int = 0,
                          arrival_rate: float = 3.0,
                          departure_rate: float = 1.0,
                          epoch_duration: float = 16.5,
                          plc_mode: str = "redistribute"
                          ) -> Dict[str, List[EpochStats]]:
    """Temporal comparison with identical floors per policy (Fig. 6b/6c).

    Every policy sees the same floor plan and its own identically-seeded
    arrival process, so differences are attributable to the policy.

    The floor-plan and arrival-process streams are independent children
    of ``SeedSequence(seed)`` (spawned afresh per policy, so each policy
    replays identical randomness).

    Policy names are validated up front against the controller's
    :data:`~repro.core.controller.POLICIES` — before any floor plan is
    sampled or epoch run — so a typo (or a static-only policy such as
    ``"random"``) fails fast instead of deep inside a simulation.
    """
    unknown = set(policies) - set(CONTROLLER_POLICIES)
    if unknown:
        raise ValueError(f"unknown policies: {sorted(unknown)}")
    histories: Dict[str, List[EpochStats]] = {}
    for policy in policies:
        plan_seq, arrival_seq = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(plan_seq)
        plan = sample_floor_plan(n_extenders, rng)
        sim = OnlineSimulation(plan, policy,
                               rng=np.random.default_rng(arrival_seq),
                               arrival_rate=arrival_rate,
                               departure_rate=departure_rate,
                               epoch_duration=epoch_duration,
                               plc_mode=plc_mode)
        sim.seed_users(initial_users)
        histories[policy] = sim.run(n_epochs)
    return histories
