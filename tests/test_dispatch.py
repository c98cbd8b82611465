"""The dispatch entry point decides pool vs in-process by itself.

:func:`repro.sim.dispatch.dispatch_chunked` is the only way into the
dispatch layer: callers hand it a worker count and it applies
:func:`~repro.sim.dispatch.uses_pool` — a pool exactly when
``workers >= 1`` and either ``workers > 1`` or a deadline is set —
otherwise running the items in-process through the same ``record``
callback.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator

import pytest

from repro.sim import dispatch
from repro.sim.dispatch import (InterruptState, WorkSpec,
                                dispatch_chunked, shutdown_warm_pools,
                                uses_pool)

SPECS = tuple(WorkSpec(index=i, item=i) for i in range(8))


def _affine(config: int, spec: WorkSpec) -> int:
    return spec.item * spec.item + config


def _pid(config: Any, spec: WorkSpec) -> int:
    return os.getpid()


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
