"""Power-line wiring topology and per-outlet PLC link quality.

The paper calibrates its simulator "with PLC link capacities measured
from different outlets in a university building" (§V-A).  Lacking that
building, we model the electrical plant explicitly: outlets hang off
branch circuits that join at junction boxes and meet at the distribution
panel where the PLC central unit sits.  Signal attenuation accumulates
along the wiring path (per-metre cable loss plus a penalty per junction
crossed), and the HomePlug AV2 tone-map model in
:mod:`repro.plc.homeplug` converts path attenuation into the link's MAC
throughput — the paper's PLC "rate" ``c_j``.

:class:`PowerlineNetwork` builds the wiring graph with :mod:`networkx`
and exposes ``rate_of(outlet)``; :func:`random_building` synthesizes a
building whose outlet-rate distribution spans the 60-160 Mbps range of
Fig. 2b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import networkx as nx
import numpy as np

from .homeplug import Av2Phy, DEFAULT_AV2

__all__ = ["PowerlineNetwork", "random_building"]

#: Node name of the distribution panel (PLC central unit location).
PANEL = "panel"


@dataclass
class PowerlineNetwork:
    """An electrical wiring graph with PLC propagation semantics.

    Attributes:
        graph: undirected wiring graph.  Every edge carries a
            ``length_m`` attribute; nodes are the panel, junction boxes
            (``kind="junction"``) and outlets (``kind="outlet"``).
        cable_loss_db_per_m: attenuation per metre of cable.
        junction_loss_db: attenuation per junction box traversed.
        outlet_loss_db: coupling loss at the two end outlets.
        phy: HomePlug AV2 PHY used to map attenuation to rate.
    """

    graph: nx.Graph
    cable_loss_db_per_m: float = 0.7
    junction_loss_db: float = 5.0
    outlet_loss_db: float = 3.0
    phy: Av2Phy = field(default_factory=lambda: DEFAULT_AV2)

    def __post_init__(self) -> None:
        if PANEL not in self.graph:
            raise ValueError(f"wiring graph must contain a {PANEL!r} node")
        for u, v, data in self.graph.edges(data=True):
            if data.get("length_m", -1.0) < 0:
                raise ValueError(f"edge ({u}, {v}) needs a non-negative "
                                 "length_m attribute")

    @property
    def outlets(self) -> List[str]:
        """All outlet node names, sorted for determinism."""
        return sorted(n for n, d in self.graph.nodes(data=True)
                      if d.get("kind") == "outlet")

    def path_attenuations_db(self, outlets: Sequence[str]) -> List[float]:
        """Attenuation of the wiring path from the panel to each outlet.

        One single-source Dijkstra from the panel finds every path.  Of
        equal-length paths, a node keeps the one through the neighbour
        that first gave it its final distance; nodes at equal distance
        settle in the order they reached it, edges in insertion order.
        An outlet the panel does not reach raises ``KeyError``.
        """
        lengths, paths = nx.single_source_dijkstra(self.graph, PANEL,
                                                   weight="length_m")
        kinds = nx.get_node_attributes(self.graph, "kind")
        return [lengths[o] * self.cable_loss_db_per_m
                + sum(kinds.get(n) == "junction" for n in paths[o][1:-1])
                * self.junction_loss_db + 2 * self.outlet_loss_db
                for o in outlets]

    def path_attenuation_db(self, outlet: str) -> float:
        """Attenuation of the wiring path from the panel to an outlet."""
        return self.path_attenuations_db([outlet])[0]

    def rate_of(self, outlet: str) -> float:
        """MAC-layer PLC rate (Mbps) of the link panel -> ``outlet``."""
        return self.phy.rate_for_attenuation(self.path_attenuation_db(outlet))

    def rates(self, outlets: Optional[Sequence[str]] = None) -> np.ndarray:
        """Vector of PLC rates for the given (or all) outlets."""
        return self.phy.rates_for_attenuations(self.path_attenuations_db(
            self.outlets if outlets is None else list(outlets)))


def random_building(n_outlets: int,
                    rng: np.random.Generator,
                    n_circuits: Optional[int] = None,
                    mean_branch_length_m: float = 25.0,
                    mean_drop_length_m: float = 12.0,
                    phy: Optional[Av2Phy] = None) -> PowerlineNetwork:
    """Synthesize a building's wiring plant.

    The panel feeds ``n_circuits`` branch circuits; each circuit runs a
    random trunk to a junction box from which outlet drops hang.  Outlet
    names are ``"outlet-<k>"``.

    Args:
        n_outlets: number of outlets to create.
        rng: random generator (controls both structure and lengths).
        n_circuits: branch-circuit count (default ``ceil(n_outlets / 4)``).
        mean_branch_length_m: mean panel-to-junction trunk length.
        mean_drop_length_m: mean junction-to-outlet drop length.
        phy: AV2 PHY override.

    Returns:
        A :class:`PowerlineNetwork` with ``n_outlets`` outlets.
    """
    if n_outlets < 1:
        raise ValueError("n_outlets must be positive")
    if n_circuits is None:
        n_circuits = max(1, int(np.ceil(n_outlets / 4)))
    graph = nx.Graph()
    graph.add_node(PANEL, kind="panel")
    for c in range(n_circuits):
        junction = f"junction-{c}"
        graph.add_node(junction, kind="junction")
        trunk = float(rng.gamma(4.0, mean_branch_length_m / 4.0))
        graph.add_edge(PANEL, junction, length_m=trunk)
    for k in range(n_outlets):
        junction = f"junction-{rng.integers(n_circuits)}"
        outlet = f"outlet-{k}"
        graph.add_node(outlet, kind="outlet")
        drop = float(rng.gamma(3.0, mean_drop_length_m / 3.0))
        graph.add_edge(junction, outlet, length_m=drop)
    return PowerlineNetwork(graph=graph, phy=phy or DEFAULT_AV2)
