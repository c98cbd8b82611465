"""Topology sharding: split a building into independent PLC segments.

``repro.core.partition`` is the *Theorem-1 NP-hardness reduction*
(PARTITION ↔ Problem 1), not a topology splitter — it proves the
problem is hard, it does not decompose instances.  This module is the
actual splitter: it partitions a building's extender set into
**independent PLC segments** via connected components of the
wiring/interference graph, where two extenders are coupled when

* they share a powerline circuit (a *wiring* edge — extenders on one
  circuit contend for the same PLC medium), or
* some user hears both above
  :data:`~repro.core.problem.MIN_USABLE_RATE` (an *interference* edge
  — the association decision for that user couples the two cells).

Why segments must be separate :class:`~repro.core.problem.Scenario`
objects rather than column-slices of one big one: every quantity in a
WOLT solve is coupled through the scenario-wide extender set.  Phase I
utilities are ``min(c_j/|A|, r_ij)`` with the *global* ``|A|``
(Theorem 2), and all three PLC sharing laws in
:mod:`repro.plc.sharing` divide **one** unit of medium time among all
extenders of the scenario.  Merging two electrically separate segments
into one ``Scenario`` therefore models them as sharing a single PLC
medium — a different (and wrong) physical system whose solution
legitimately differs.  The correct whole-fleet solve *is* the
per-segment solve, and the parallel shard dispatch in
:mod:`repro.fleet.service` is property-tested bit-identical to a serial
per-segment reference (``tests/test_fleet_sharding.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.problem import MIN_USABLE_RATE, Scenario

__all__ = ["Segment", "split_segments"]


@dataclass(frozen=True)
class Segment:
    """One independent PLC segment of a building.

    Attributes:
        index: canonical position (segments are ordered by their
            smallest extender index).
        extenders: parent-scenario extender indices, ascending.
        users: parent-scenario user indices, ascending — exactly the
            users whose reachable set lies inside ``extenders`` (a user
            hearing two segments would have merged them).
        scenario: the segment as a standalone scenario with its **own**
            PLC medium; rows/columns follow ``users``/``extenders``.
    """

    index: int
    extenders: Tuple[int, ...]
    users: Tuple[int, ...]
    scenario: Scenario


def _components(n_ext: int, circuits: Optional[Sequence[object]],
                users: np.ndarray, cols: np.ndarray
                ) -> List[Tuple[int, ...]]:
    """Connected components of the wiring/interference graph.

    ``users``/``cols`` are the row-major ``np.nonzero`` of the
    reachability mask.  Without ``circuits`` every extender shares one
    circuit (one building, one medium), so there is one component.

    Returns:
        Extender-index tuples, each sorted ascending, ordered by their
        smallest member.
    """
    if circuits is None:
        return [tuple(range(n_ext))] if n_ext else []
    labels = list(circuits)
    if len(labels) != n_ext:
        raise ValueError(
            f"circuits has {len(labels)} labels for {n_ext} extenders")
    first_of: Dict[object, int] = {}
    edges = [(first_of.setdefault(label, j), j)
             for j, label in enumerate(labels)]
    # Chaining each user's consecutive reachable extenders couples them
    # all.
    same_user = users[1:] == users[:-1]
    edges += zip(cols[:-1][same_user].tolist(), cols[1:][same_user].tolist())
    parent = list(range(n_ext))  # union-find with path halving

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: Dict[int, List[int]] = {}
    for j in range(n_ext):
        groups.setdefault(find(j), []).append(j)
    return sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])


def split_segments(scenario: Scenario,
                   circuits: Optional[Sequence[object]] = None
                   ) -> List[Segment]:
    """Split a building into its independent PLC segments.

    Every user with at least one reachable extender lands in exactly
    one segment (reaching two would have merged them into one
    component); users hearing nothing belong to no segment.

    Args:
        scenario: the building snapshot.
        circuits: optional per-extender powerline-circuit labels; any
            two extenders with equal labels get a wiring edge.

    Returns:
        Segments in canonical order (by smallest extender index).  A
        building that is one segment holding every user gets
        ``scenario`` itself as that segment's scenario.
    """
    users, cols = np.nonzero(scenario.wifi_rates > MIN_USABLE_RATE)
    components = _components(scenario.n_extenders, circuits, users, cols)
    comp_of = np.empty(scenario.n_extenders, dtype=int)
    for c, extenders in enumerate(components):
        comp_of[list(extenders)] = c
    # All of a user's reachable extenders share one component.
    user_comp = np.full(scenario.n_users, -1)
    user_comp[users] = comp_of[cols]
    segments: List[Segment] = []
    for c, extenders in enumerate(components):
        ext_idx = np.asarray(extenders, dtype=int)
        user_idx = np.flatnonzero(user_comp == c)
        if len(components) == 1 and user_idx.size == scenario.n_users:
            # The one segment is the whole building: a sub-scenario
            # would copy the parent byte for byte.
            sub = scenario
        else:
            wifi = scenario.wifi_rates[np.ix_(user_idx, ext_idx)]
            caps = (None if scenario.capacities is None
                    else scenario.capacities[ext_idx])
            ids = (None if scenario.user_ids is None
                   else scenario.user_ids[user_idx])
            sub = Scenario(wifi_rates=wifi,
                           plc_rates=scenario.plc_rates[ext_idx],
                           capacities=caps, user_ids=ids)
        segments.append(Segment(index=c, extenders=extenders,
                                users=tuple(user_idx.tolist()),
                                scenario=sub))
    return segments
