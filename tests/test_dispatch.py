"""The dispatch entry point decides pool vs in-process by itself.

:func:`repro.sim.dispatch.dispatch_chunked` is the only way into the
dispatch layer: callers hand it a worker count and it applies
:func:`~repro.sim.dispatch.uses_pool` — a pool exactly when
``workers >= 1`` and either ``workers > 1`` or a deadline is set —
otherwise running the items in-process through the same ``record``
callback.  On a pool, chunks hold about two waves per worker, so the
tests pick the batch size and worker count to get the chunk sizes they
need (eight items on one worker ship as two 4-item chunks).  A deadline
keeps the chunking: a chunk gets one item's deadline and is split into
single-item chunks on overrun.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterator, List

import pytest

from repro.sim import dispatch
from repro.sim.dispatch import (TIMEOUT_ERROR_TYPE, InterruptState,
                                WorkFailure, WorkSpec, _auto_chunk_size,
                                dispatch_chunked, shutdown_warm_pools,
                                uses_pool)
from repro.sim.faults import CrashSchedule
from tests.oracles import SleepSchedule

SPECS = tuple(WorkSpec(index=i, item=i) for i in range(8))


def _affine(config: int, spec: WorkSpec) -> int:
    return spec.item * spec.item + config


def _pid(config: Any, spec: WorkSpec) -> int:
    return os.getpid()


def _hooked_affine(config: Any, spec: WorkSpec) -> int:
    hook, offset = config
    hook(spec.index, 0)  # may hang or sleep before the item runs
    return _affine(offset, spec)


def _trip_at(config: Any, spec: WorkSpec) -> int:
    state, trip_index = config
    if spec.index == trip_index:
        state.signal_name = "SIGINT"  # a signal arrives mid-item
    return spec.index


@pytest.fixture(autouse=True, scope="module")
def _no_warm_pools() -> Iterator[None]:
    yield
    shutdown_warm_pools()


def _collect(fn: Any, config: Any, **options: Any) -> Dict[int, Any]:
    results: Dict[int, Any] = {}

    def record(index: int, result: Any) -> None:
        results[index] = result

    dispatch_chunked(SPECS, config, fn, record=record, **options)
    return results


class _NoPool:
    def __init__(self, workers: int) -> None:
        raise AssertionError(f"leased a {workers}-worker pool")


class TestPoolDecision:
    @pytest.mark.parametrize("workers", [None, -2, 0, 1])
    def test_without_deadline_runs_in_process(self, monkeypatch,
                                              workers):
        monkeypatch.setattr(dispatch, "_PoolLease", _NoPool)
        results = _collect(_pid, None, workers=workers, timeout_s=None)
        assert results == {spec.index: os.getpid() for spec in SPECS}

    def test_one_worker_with_deadline_leases_a_pool(self, monkeypatch):
        leased = []
        real_lease = dispatch._PoolLease

        def recording_lease(workers: int) -> Any:
            leased.append(workers)
            return real_lease(workers)

        monkeypatch.setattr(dispatch, "_PoolLease", recording_lease)
        results = _collect(_pid, None, workers=1, timeout_s=30.0)
        assert leased == [1]
        assert sorted(results) == [spec.index for spec in SPECS]
        assert os.getpid() not in results.values()

    @pytest.mark.parametrize("workers, timeout_s, pooled", [
        (None, None, False), (None, 5.0, False), (0, 5.0, False),
        (1, None, False), (1, 5.0, True), (2, None, True),
        (2, 5.0, True)])
    def test_rule(self, workers, timeout_s, pooled):
        assert uses_pool(workers, timeout_s) is pooled


class TestInProcessLoop:
    def test_interrupt_stops_after_the_current_item(self):
        state = InterruptState()
        results = _collect(_trip_at, (state, 3), workers=None,
                           timeout_s=None, state=state)
        assert results == {0: 0, 1: 1, 2: 2, 3: 3}
        assert state.signal_name == "SIGINT"

    def test_interrupted_before_start_records_nothing(self):
        state = InterruptState()
        state.signal_name = "SIGTERM"
        assert _collect(_affine, 0, workers=None, timeout_s=None,
                        state=state) == {}

    def test_item_exception_propagates(self):
        def boom(config: Any, spec: WorkSpec) -> None:
            raise RuntimeError("item exploded")

        with pytest.raises(RuntimeError, match="item exploded"):
            _collect(boom, None, workers=None, timeout_s=None)


class TestPoolEquivalence:
    def test_in_process_and_pool_record_identical_maps(self):
        serial = _collect(_affine, 7, workers=None, timeout_s=None)
        pooled = _collect(_affine, 7, workers=2, timeout_s=None)
        assert serial == pooled
        assert sorted(serial) == [spec.index for spec in SPECS]


@pytest.fixture
def chunk_sizes(monkeypatch) -> Iterator[List[int]]:
    """The length of every ``_ChunkTask`` the supervisor submits."""
    sizes: List[int] = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn: Any, task: Any, /) -> Any:
            sizes.append(len(task.specs))
            return super().submit(fn, task)

    shutdown_warm_pools()  # lease a recording pool, not a warm one
    monkeypatch.setattr(dispatch, "ProcessPoolExecutor", RecordingPool)
    yield sizes
    shutdown_warm_pools()


class TestChunkSize:
    @pytest.mark.parametrize("n_pending, workers, size", [
        (0, 2, 1), (1, 4, 1), (3, 2, 1), (6, 4, 1), (4, 1, 2), (6, 2, 2),
        (8, 1, 4), (32, 1, 16), (1000, 2, 16)])
    def test_two_waves_per_worker_capped_at_16(self, n_pending, workers,
                                               size):
        assert _auto_chunk_size(n_pending, workers) == size


class TestChunksUnderADeadline:
    def test_a_deadline_keeps_the_chunk_size(self, chunk_sizes):
        results = _collect(_affine, 7, workers=1, timeout_s=30.0)
        assert chunk_sizes == [4, 4]
        assert results == _collect(_affine, 7, workers=None,
                                   timeout_s=None)

    def test_only_the_hung_item_is_reaped(self, chunk_sizes):
        hang = CrashSchedule(crashes={}, hangs={5: 1})
        started = time.monotonic()
        results = _collect(_hooked_affine, (hang, 7), workers=2,
                           timeout_s=1.0)
        assert time.monotonic() - started < 30
        failure = results.pop(5)
        assert isinstance(failure, WorkFailure)
        assert failure.error_type == TIMEOUT_ERROR_TYPE
        serial = _collect(_affine, 7, workers=None, timeout_s=None)
        del serial[5]
        assert results == serial
        # Two-item chunks ran until one overran; its items and every
        # chunk left then ran one per chunk, and the hung one ran alone
        # past its deadline.
        split = chunk_sizes.index(1)
        assert split >= 2 and set(chunk_sizes[:split]) == {2}
        assert set(chunk_sizes[split:]) == {1}

    def test_after_an_overrun_every_chunk_left_is_one_item(
            self, chunk_sizes):
        hang = CrashSchedule(crashes={}, hangs={1: 1})
        results = _collect(_hooked_affine, (hang, 7), workers=1,
                           timeout_s=1.0)
        # The queued chunk [4..7] is split too, not only the overrun one.
        assert chunk_sizes == [4] + [1] * 8
        assert [i for i, r in results.items()
                if isinstance(r, WorkFailure)] == [1]

    def test_slow_items_overrunning_together_are_not_reaped(
            self, chunk_sizes):
        # Each item takes 0.6 of the deadline: a pair overruns it, but
        # no item does alone, so nothing is recorded as a timeout.
        # Four items on one worker ship as two 2-item chunks.
        slow = SleepSchedule({i: 0.6 for i in range(4)})
        specs = SPECS[:4]
        results: Dict[int, Any] = {}
        dispatch_chunked(specs, (slow, 7), _hooked_affine, workers=1,
                         timeout_s=1.0, record=results.__setitem__)
        assert results == {spec.index: _affine(7, spec)
                           for spec in specs}
        assert chunk_sizes == [2, 1, 1, 1, 1]


class TestArgumentChecks:
    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("options, message", [
        ({"timeout_s": 0.0}, "timeout_s"),
        ({"timeout_s": -3.0}, "timeout_s")])
    def test_bad_options_fail_on_both_paths(self, monkeypatch, workers,
                                            options, message):
        monkeypatch.setattr(dispatch, "_PoolLease", _NoPool)
        options.setdefault("timeout_s", None)
        with pytest.raises(ValueError, match=message):
            _collect(_affine, 0, workers=workers, **options)
