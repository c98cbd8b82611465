"""Generic chunked warm-pool dispatch: the process-supervision layer.

Extracted from ``repro.sim.runner`` so that *any* batch of picklable
work items — Monte-Carlo trials, fleet shard solves — can ride the
same machinery instead of re-growing its own pool plumbing:

* **Chunked submits** — one future per *chunk* of work amortizes the
  submit/result IPC that made one-future-per-item pools lose to serial
  execution; the batch config rides along in every chunk.
* **Warm pool reuse** — idle executors are cached across dispatch
  calls, so a parameter sweep pays process startup once.
* **Supervision** — per-item deadlines with hung-worker reaping (a
  chunk that overruns one is split, so only a lone item is reaped),
  broken-pool recycling with *serial quarantine* (casualties are
  re-probed one at a time so the true killer is blamed with
  certainty), and graceful SIGINT/SIGTERM draining.

The unit of work is ``fn(config, spec)`` where ``fn`` is a
module-level (picklable) callable, ``config`` is the batch-shared
parameter block, and ``spec`` is the per-item half.  Every spec must
expose an integer ``index`` (its 0-based position in the batch) — use
:class:`WorkSpec` when there is nothing more to say about an item.

:func:`dispatch_chunked` is the one entry point, and it decides pool
vs in-process itself (:func:`uses_pool`): a batch goes to a worker
pool exactly when ``workers >= 1`` and either ``workers > 1`` or a
deadline is set — a deadline needs a process boundary to reap across,
so it promotes one worker to a supervised one-worker pool.  Otherwise
the items run in-process, in spec order, through the same ``record``
callback.

``repro.sim.runner`` remains the canonical client: it supplies trial
specs, a trial-solving ``fn``, and a journaling ``record`` callback,
and keeps the checkpoint/resume and result-codec layers for itself.
"""

from __future__ import annotations

import atexit
import signal
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, List, Optional,
                    Sequence, Tuple)

__all__ = ["WorkSpec", "WorkFailure", "InterruptState", "SignalGuard",
           "dispatch_chunked", "uses_pool", "shutdown_warm_pools",
           "timeout_failure", "TIMEOUT_ERROR_TYPE", "POOL_ERROR_TYPE"]

#: Supervisor wake-up period: the upper bound on how stale the deadline
#: and interrupt checks can be while workers are busy.
_POLL_S = 0.2

#: ``error_type`` recorded for a work item reaped past its deadline.
TIMEOUT_ERROR_TYPE = "TrialTimeout"

#: ``error_type`` recorded for an item whose worker died (pool crash).
POOL_ERROR_TYPE = "BrokenProcessPool"


@dataclass(frozen=True)
class WorkSpec:
    """A minimal work spec: batch position plus the caller's item.

    Callers with richer per-item state (seed material, sub-problems)
    may supply their own spec dataclass instead — the dispatch layer
    only ever touches ``spec.index``.
    """

    index: int
    item: Any


@dataclass(frozen=True)
class WorkFailure:
    """A work item that was given up on: the repo's one give-up record.

    The supervisor produces it for items reaped past their deadline
    (:data:`TIMEOUT_ERROR_TYPE`) or whose worker process died
    repeatedly (:data:`POOL_ERROR_TYPE`) and delivers it through
    ``record`` in place of a result.  Item-level exceptions are *not*
    wrapped — an ``fn`` that raises propagates its exception to the
    caller unchanged — but an ``fn`` may return one itself after its
    own retries (the trial runner's guarded trials, the fleet's shard
    solves).

    Attributes:
        index: 0-based position of the item in the batch.
        attempts: attempts made before giving up.
        error_type: :data:`TIMEOUT_ERROR_TYPE`,
            :data:`POOL_ERROR_TYPE`, or the class name of the last
            exception an ``fn`` caught.
        error: a note describing what happened (for a caught
            exception, its ``repr`` or message).
    """

    index: int
    attempts: int
    error_type: str
    error: str


def timeout_failure(index: int, timeout_s: Optional[float],
                    attempts: int = 1) -> WorkFailure:
    """The canonical deadline-reap :class:`WorkFailure`.

    Both the pool supervisor (an item that alone outlived its
    deadline) and callers that must *synthesize* a reap without a
    process boundary — the fleet layer's serial path applying a
    planned hang fault — build the record here, so journals and
    reports carry one ``error_type`` regardless of how the hang was
    detected.
    """
    detail = (f"exceeded its {timeout_s}s deadline"
              if timeout_s is not None else "hung")
    return WorkFailure(index=index, attempts=attempts,
                       error_type=TIMEOUT_ERROR_TYPE,
                       error=f"work item {detail} and was reaped")


@dataclass(frozen=True)
class _ChunkTask:
    """A batch of work shipped to one worker in a single submit.

    The batch config rides in every chunk: it is a small picklable
    block, and a warm pool's workers outlive the batch that started
    them.
    """

    config: Any
    specs: Tuple[Any, ...]
    fn: Callable[[Any, Any], Any]


def _run_chunk(task: _ChunkTask) -> List[Any]:
    """Execute one chunk inside a worker, preserving spec order.

    The returned list maps 1:1 onto ``task.specs`` — the supervisor
    re-associates results by position, so this invariant (checked
    there) is what keeps chunked results correctly attributed no matter
    which order chunks complete in.
    """
    return [task.fn(task.config, spec) for spec in task.specs]


#: Cap on the chunk size; beyond this the IPC amortization is
#: negligible and large chunks only hurt load balance and durability
#: granularity (a completed chunk journals all its items at once).
_MAX_AUTO_CHUNK = 16

#: Target number of chunk "waves" per worker: small enough to amortize
#: IPC, large enough that one slow chunk cannot idle the other workers
#: for long.
_CHUNK_WAVES = 2


def _auto_chunk_size(n_pending: int, workers: int) -> int:
    """The chunk size: ``_CHUNK_WAVES`` chunks per worker, capped."""
    per_wave = -(-n_pending // (max(workers, 1) * _CHUNK_WAVES))
    return max(1, min(per_wave, _MAX_AUTO_CHUNK))


# ---------------------------------------------------------------------------
# Warm pools and leases.


#: Idle warm pools keyed by worker count, reused across dispatch calls
#: so a parameter sweep pays process startup once, not once per sweep
#: point.  Pools are leased exclusively (popped) while a run is active
#: and returned only when they finished cleanly.
_WARM_POOLS: Dict[int, ProcessPoolExecutor] = {}


def shutdown_warm_pools() -> None:
    """Tear down every idle warm worker pool (also runs at exit).

    Safe to call at any time: pools leased by an in-flight dispatch
    are not in the cache and are unaffected.
    """
    while _WARM_POOLS:
        _, pool = _WARM_POOLS.popitem()
        _kill_pool(pool)


atexit.register(shutdown_warm_pools)


class _PoolLease:
    """Exclusive use of a (possibly warm) process pool for one run.

    Routes the end-of-run decision: a cleanly drained pool goes back to
    the warm cache, an abandoned or broken one is killed.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._dead = False
        cached = _WARM_POOLS.pop(workers, None)
        self.pool = (cached if cached is not None
                     else ProcessPoolExecutor(max_workers=workers))

    def recycle(self) -> None:
        """Kill the current executor and start a fresh one."""
        _kill_pool(self.pool)
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        self._dead = False

    def abandon(self) -> None:
        """Kill the executor without returning it to the cache."""
        self._dead = True
        _kill_pool(self.pool)

    def release(self) -> None:
        """Return a cleanly drained executor to the warm cache."""
        if self._dead:
            return  # already killed by abandon()
        if self.workers in _WARM_POOLS:  # nested/concurrent runs
            self.pool.shutdown(wait=True)
        else:
            _WARM_POOLS[self.workers] = self.pool


# ---------------------------------------------------------------------------
# Supervision: signals, deadlines, pool recycling.


class InterruptState:
    """Mutable flag the signal handlers share with the run loop."""

    def __init__(self) -> None:
        self.signal_name: Optional[str] = None

    @property
    def interrupted(self) -> bool:
        return self.signal_name is not None


class SignalGuard:
    """Install graceful SIGINT/SIGTERM handlers for a durable run.

    The handler records the signal and lets the run loop drain: no
    work item is torn mid-write, journals are flushed, and the partial
    results are returned with ``interrupted`` set.  Outside the main
    thread (where ``signal.signal`` is unavailable) the guard is a
    no-op and the default semantics apply.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, state: InterruptState) -> None:
        self.state = state
        self._saved: List[Tuple[int, Any]] = []

    def __enter__(self) -> "SignalGuard":
        for sig in self._SIGNALS:
            try:
                previous = signal.signal(sig, self._handle)
            except ValueError:  # not the main thread
                continue
            self._saved.append((sig, previous))
        return self

    def _handle(self, signum: int, frame: Any) -> None:
        self.state.signal_name = signal.Signals(signum).name

    def __exit__(self, *exc_info: Any) -> None:
        for sig, previous in self._saved:
            signal.signal(sig, previous)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly reap a pool, hung workers included.

    ``ProcessPoolExecutor`` has no public kill switch — ``shutdown``
    waits for running calls, which is exactly what a hung worker never
    finishes — so the workers are SIGKILLed directly before the
    bookkeeping threads are shut down.
    """
    # _processes is None before the first submit and after shutdown.
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except (OSError, AttributeError):  # already gone
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # the pool may already be broken — that's fine
        pass


def _run_supervised(pending: Sequence[Any], config: Any,
                    lease: _PoolLease,
                    fn: Callable[[Any, Any], Any],
                    retry_budget: int, timeout_s: Optional[float],
                    record: Callable[[int, Any], None],
                    state: InterruptState) -> None:
    """Run work specs on a supervised, chunk-dispatching process pool.

    Unlike a blind ``pool.map``, the supervisor:

    * submits work in *chunks* sized by :func:`_auto_chunk_size` (one
      future per chunk), amortizing the submit/result IPC and the config pickle
      over the whole batch; a chunk's results map positionally onto its
      specs, and that mapping is asserted so chunk completion order can
      never mis-attribute a result;
    * keeps at most ``workers`` chunks in flight, so every submitted
      chunk starts promptly and its deadline is meaningful;
    * gives every chunk, whatever its length, one item's deadline
      (``submit + timeout_s``).  A chunk past it has its pool killed
      (hung workers cannot be joined) and the innocent in-flight items
      resubmitted on a fresh pool (deterministic ``fn``s make the
      rerun bit-identical).  A single-item chunk past its deadline is
      recorded as a :class:`WorkFailure` with
      :data:`TIMEOUT_ERROR_TYPE`; a multi-item one is *split on
      overrun*: its items go back to the front of the queue, and every
      chunk still queued or in flight is re-split, as single-item
      chunks.  So an item is reaped only when it alone outruns the
      deadline, and a hang is reaped within about two deadlines;
    * converts a :class:`BrokenProcessPool` (a worker SIGKILLed / OOMed
      / segfaulted) into a pool recycle with *serial quarantine*: a
      broken pool takes down every in-flight future, so blame cannot be
      attributed while several items share it.  The casualties are
      therefore resubmitted one item at a time on the fresh pool — an
      innocent probe completes and walks free; the true killer dies
      alone, is now blamed with certainty, and is retried up to
      ``max(retry_budget, 1)`` times before being recorded as an
      explicit :class:`WorkFailure`.  One repeatedly-dying item can
      never take a neighbour down with it;
    * drains promptly on interruption: completed results are kept,
      queued chunks are abandoned.

    ``record`` is called exactly once per finished item — in spec
    order within a chunk, in completion order across chunks — and is
    expected to journal durably.  The caller re-emits the collected
    results in submission order regardless of completion order.
    """
    size = _auto_chunk_size(len(pending), lease.workers)
    queue: Deque[Tuple[Any, ...]] = deque(
        tuple(pending[i:i + size]) for i in range(0, len(pending), size))
    pool_attempts: Dict[int, int] = {}
    quarantine: set = set()
    inflight: Dict[Any, Tuple[Tuple[Any, ...],
                              Optional[float]]] = {}

    def settle_chunk(specs: Tuple[Any, ...],
                     results: List[Any]) -> None:
        if len(results) != len(specs):  # pragma: no cover - invariant
            raise RuntimeError(
                f"chunk returned {len(results)} results for "
                f"{len(specs)} items — per-item attribution lost")
        for spec, result in zip(specs, results):
            quarantine.discard(spec.index)
            record(spec.index, result)

    def fail_spec(spec: Any, failure: WorkFailure) -> None:
        quarantine.discard(spec.index)
        record(spec.index, failure)

    def recycle(casualties: List[Tuple[Any, ...]]) -> None:
        """Replace a broken pool; quarantine, retry or fail casualties.

        Blame is only assigned when a single item was in flight (it is
        then certainly the one whose worker died); a multi-casualty
        break quarantines everyone unblamed and lets the serial probes
        sort killer from bystander.  Casualty chunks are always
        requeued as single-item probes so the next break is
        attributable.
        """
        specs = [spec for chunk in casualties for spec in chunk]
        lease.recycle()
        budget = max(retry_budget, 1)
        certain = len(specs) == 1
        for spec in reversed(specs):
            count = pool_attempts.get(spec.index, 0)
            if certain:
                count += 1
                pool_attempts[spec.index] = count
            if count > budget:
                fail_spec(spec, WorkFailure(
                    index=spec.index, attempts=count,
                    error_type=POOL_ERROR_TYPE,
                    error=f"worker process died {count} times while "
                          f"running this work item"))
            else:
                quarantine.add(spec.index)
                queue.appendleft((spec,))

    try:
        while (queue or inflight) and not state.interrupted:
            # Top up the pool, one in-flight chunk per worker — except
            # while quarantined casualties await their serial probes.
            while queue and len(inflight) < (1 if quarantine
                                             else lease.workers):
                specs = queue.popleft()
                deadline = (None if timeout_s is None
                            else time.monotonic() + timeout_s)
                try:
                    future = lease.pool.submit(
                        _run_chunk, _ChunkTask(config, specs, fn))
                except (BrokenProcessPool, RuntimeError):
                    # The pool died between polls; recycle and retry.
                    casualties = [c for c, _ in inflight.values()]
                    casualties.append(specs)
                    inflight.clear()
                    recycle(casualties)
                    break
                inflight[future] = (specs, deadline)
            if not inflight:
                continue
            wait_s = _POLL_S
            deadlines = [d for _, d in inflight.values()
                         if d is not None]
            if deadlines:
                wait_s = min(wait_s,
                             max(0.0, min(deadlines) - time.monotonic()))
            done, _ = wait(set(inflight), timeout=wait_s,
                           return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                specs, _ = inflight.pop(future)
                try:
                    settle_chunk(specs, future.result())
                except BrokenProcessPool:
                    broken = True
                    inflight[future] = (specs, None)
                except Exception:
                    lease.abandon()
                    raise
            if broken:
                casualties = [c for c, _ in inflight.values()]
                inflight.clear()
                recycle(casualties)
                continue
            # Deadline pass: harvest any just-finished stragglers, then
            # reap whatever is genuinely past its deadline.
            now = time.monotonic()
            expired = [future for future, (c, d) in inflight.items()
                       if d is not None and now >= d]
            if not expired:
                continue
            for future in list(expired):
                if future.done():  # finished in the polling gap
                    expired.remove(future)
                    specs, _ = inflight.pop(future)
                    try:
                        settle_chunk(specs, future.result())
                    except BrokenProcessPool:
                        inflight[future] = (specs, None)
            hung = [inflight.pop(future)[0] for future in expired
                    if future in inflight]
            if not hung:
                continue
            for specs in hung:
                if len(specs) == 1:
                    fail_spec(specs[0], timeout_failure(specs[0].index,
                                                        timeout_s))
            # The hung workers must die; innocents rerun unpunished
            # (deadline reaping is not their failure).
            overrun = [c for c in hung if len(c) > 1]
            survivors = [c for c, _ in inflight.values()]
            inflight.clear()
            lease.recycle()
            if overrun:
                # Split on overrun: no one item of the chunk can be
                # blamed, so it and all the rest run one item per chunk.
                rest = overrun + survivors + list(queue)
                queue.clear()
                queue.extend((spec,) for chunk in rest for spec in chunk)
            else:
                queue.extendleft(reversed(survivors))
    finally:
        if inflight or queue:
            # Interrupted (or propagating an error): abandon cleanly.
            lease.abandon()
        else:
            lease.release()


# ---------------------------------------------------------------------------
# The public entry point.


def uses_pool(workers: Optional[int], timeout_s: Optional[float]) -> bool:
    """Whether :func:`dispatch_chunked` runs a batch on a worker pool.

    ``workers`` of ``None`` or below 1 runs in-process; one worker
    runs in-process too unless a deadline is set, because reaping a
    hung item needs a process boundary to kill across.
    """
    return (workers is not None and workers >= 1
            and (workers > 1 or timeout_s is not None))


def dispatch_chunked(specs: Sequence[Any], config: Any,
                     fn: Callable[[Any, Any], Any], *,
                     workers: Optional[int],
                     retry_budget: int = 0,
                     timeout_s: Optional[float] = None,
                     record: Callable[[int, Any], None],
                     state: Optional[InterruptState] = None) -> None:
    """Run ``fn(config, spec)`` for every spec and ``record`` each result.

    ``record(index, result)`` fires once per finished item; supervisor
    failures arrive as :class:`WorkFailure`.  When :func:`uses_pool`
    says so, the batch is supervised through a leased warm pool and
    results are recorded in chunk completion order.  Otherwise each
    item runs in-process, in spec order, and ``timeout_s`` and
    ``retry_budget`` are checked but not used: there is no process
    boundary to reap across or to die.  Item exceptions propagate to
    the caller on both paths.

    Chunks are sized by :func:`_auto_chunk_size` (≈ two waves per
    worker, capped at 16).  A deadline does not change the size; a
    chunk that overruns one is split into single-item chunks
    (:func:`_run_supervised`).

    Args:
        specs: per-item work specs; each must expose ``index``.
        config: the batch-shared parameter block (any picklable value,
            ``None`` included), shipped with every chunk.
        fn: module-level callable run as ``fn(config, spec)``; must be
            picklable when a pool is used.
        workers: worker process count; see :func:`uses_pool`.
        retry_budget: pool-death retries per item before recording a
            :class:`WorkFailure` (at least one probe is always made).
        timeout_s: optional per-item wall-clock deadline; a chunk of
            any length gets one item's deadline, and only an item that
            outruns it alone is recorded as a timeout.
        record: per-item completion callback.
        state: optional shared interrupt flag; when it trips, the
            in-process loop stops after the current item and the
            supervisor drains promptly, abandoning queued work.
    """
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    state = state if state is not None else InterruptState()
    if not uses_pool(workers, timeout_s):
        for spec in specs:
            if state.interrupted:
                break
            record(spec.index, fn(config, spec))
        return
    assert workers is not None  # uses_pool() guarantees it
    _run_supervised(specs, config, _PoolLease(workers), fn, retry_budget,
                    timeout_s, record, state)
