"""Power-line wiring plant and per-outlet PLC link quality.

The paper calibrates its simulator "with PLC link capacities measured
from different outlets in a university building" (§V-A).  Lacking that
building, we model the electrical plant explicitly: the distribution
panel, where the PLC central unit sits, feeds branch circuits; each
circuit's trunk runs to a junction box from which outlet drops hang.
Signal attenuation accumulates along an outlet's panel-junction-outlet
path (per-metre cable loss plus a junction-box penalty), and the
HomePlug AV2 tone-map model in :mod:`repro.plc.homeplug` converts path
attenuation into the link's MAC throughput — the paper's PLC "rate"
``c_j``.

:class:`PowerlineNetwork` holds the plant as arrays (a trunk length per
circuit, a junction index and drop length per outlet) and scores every
outlet in one array pass; :func:`random_building` synthesizes a
building whose outlet-rate distribution spans the 60-160 Mbps range of
Fig. 2b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .homeplug import Av2Phy, DEFAULT_AV2

__all__ = ["PowerlineNetwork", "random_building"]


@dataclass
class PowerlineNetwork:
    """A two-level wiring plant with PLC propagation semantics.

    Outlet ``k`` is named ``"outlet-<k>"``; its path runs from the
    panel along trunk ``junction[k]`` to a junction box, then along
    its own drop.

    Attributes:
        trunk_m: panel-to-junction trunk length of each circuit.
        junction: circuit (index into ``trunk_m``) of each outlet.
        drop_m: junction-to-outlet drop length of each outlet.
        cable_loss_db_per_m: attenuation per metre of cable.
        junction_loss_db: attenuation of the junction box traversed.
        outlet_loss_db: coupling loss at the two end outlets.
        phy: HomePlug AV2 PHY used to map attenuation to rate.
    """

    trunk_m: np.ndarray
    junction: np.ndarray
    drop_m: np.ndarray
    cable_loss_db_per_m: float = 0.7
    junction_loss_db: float = 5.0
    outlet_loss_db: float = 3.0
    phy: Av2Phy = field(default_factory=lambda: DEFAULT_AV2)

    def __post_init__(self) -> None:
        self.trunk_m = np.asarray(self.trunk_m, dtype=float).ravel()
        self.junction = np.asarray(self.junction, dtype=np.intp).ravel()
        self.drop_m = np.asarray(self.drop_m, dtype=float).ravel()
        if self.junction.shape != self.drop_m.shape:
            raise ValueError("need one junction index per drop length")
        if not ((self.trunk_m >= 0).all() and (self.drop_m >= 0).all()):
            raise ValueError("cable lengths must be non-negative")
        if ((self.junction < 0) | (self.junction >= self.trunk_m.size)).any():
            raise ValueError("junction indices must index trunk_m")

    @property
    def outlets(self) -> List[str]:
        """All outlet names, sorted for determinism."""
        return sorted(f"outlet-{k}" for k in range(self.drop_m.size))

    def path_attenuations_db(self, outlets: Optional[Sequence[str]] = None
                             ) -> np.ndarray:
        """Attenuation of the wiring path from the panel to each of the
        given (or all) outlets; an unknown name raises ``KeyError``."""
        index = {f"outlet-{k}": k for k in range(self.drop_m.size)}
        k = np.array([index[name] for name in
                      (self.outlets if outlets is None else outlets)],
                     dtype=np.intp)
        length = self.trunk_m[self.junction[k]] + self.drop_m[k]
        return (length * self.cable_loss_db_per_m + self.junction_loss_db
                + 2 * self.outlet_loss_db)

    def rates(self, outlets: Optional[Sequence[str]] = None) -> np.ndarray:
        """Vector of PLC rates for the given (or all) outlets."""
        return self.phy.rates_for_attenuations(
            self.path_attenuations_db(outlets))


def random_building(n_outlets: int,
                    rng: np.random.Generator,
                    n_circuits: Optional[int] = None,
                    mean_branch_length_m: float = 25.0,
                    mean_drop_length_m: float = 12.0,
                    phy: Optional[Av2Phy] = None) -> PowerlineNetwork:
    """Synthesize a building's wiring plant.

    The panel feeds ``n_circuits`` branch circuits; each circuit runs a
    random trunk to a junction box, and each outlet's drop hangs off a
    uniformly drawn circuit's box.

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
    trunk_m = rng.gamma(4.0, mean_branch_length_m / 4.0, size=n_circuits)
    junction = np.empty(n_outlets, dtype=np.intp)
    drop_m = np.empty(n_outlets)
    for k in range(n_outlets):  # floors depend on this draw order
        junction[k] = rng.integers(n_circuits)
        drop_m[k] = rng.gamma(3.0, mean_drop_length_m / 3.0)
    return PowerlineNetwork(trunk_m=trunk_m, junction=junction,
                            drop_m=drop_m, phy=phy or DEFAULT_AV2)
