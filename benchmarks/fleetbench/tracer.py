"""Outside-in span tracer for fleetbench's traced pass.

The tracer times a layer by rebinding a public name in the module (or
class) the service calls it through, so the program itself carries no
instrumentation.  Spans nest on a stack: a span's *self* time is its
duration minus the durations of the spans it directly encloses, so the
self times of every span in an epoch plus the service's own time add up
to the epoch exactly.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer"]

#: ``note(args, result)`` returns counters to attach to a span.
Note = Callable[[Tuple[Any, ...], Any], Dict[str, float]]


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    parent: Optional[int]
    name: str
    epoch: Optional[int]
    start_ns: int
    end_ns: int = 0
    self_ns: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "epoch": self.epoch, "start_ns": self.start_ns,
                "end_ns": self.end_ns, "self_ns": self.self_ns,
                **self.counters}


class Tracer:
    """Record nested spans around rebound callables.

    ``epoch`` labels the spans opened while it is set; the caller
    advances it at each epoch boundary and sets it to ``None`` outside
    the epoch loop.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.epoch: Optional[int] = None
        self._ids = itertools.count()
        self._stack: List[Tuple[Span, List[int]]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, name: str,
              note: Optional[Note] = None) -> None:
        """Rebind ``owner.attr`` to a traced wrapper (undone by
        :meth:`restore`)."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(id=next(tracer._ids),
                        parent=(tracer._stack[-1][0].id
                                if tracer._stack else None),
                        name=name, epoch=tracer.epoch,
                        start_ns=time.perf_counter_ns())
            children = [0]
            tracer._stack.append((span, children))
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                tracer._stack.pop()
                span.self_ns = span.duration_ns - children[0]
                if tracer._stack:
                    tracer._stack[-1][1][0] += span.duration_ns
                tracer.spans.append(span)
            if note is not None:
                span.counters.update(note(args, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
