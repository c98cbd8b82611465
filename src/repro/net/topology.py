"""Enterprise floor-plan topology: extenders at outlets, users on a plane.

Reproduces the paper's simulation setting (§V-A): a 100 m x 100 m 2-D
plane, extenders plugged into power outlets, users geographically
uniformly distributed, WiFi channel quality a function of user-extender
distance, and PLC link capacities calibrated from building outlets.

:class:`FloorPlan` carries the geometry; :func:`build_scenario` turns a
floor plan into the rate matrices of a
:class:`~repro.core.problem.Scenario`; :func:`sample_floor_plan` samples
the paper's large-scale floor and :func:`enterprise_floor` adds its
users and rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.problem import Scenario
from ..plc.channel import PowerlineNetwork, random_building
from ..wifi.phy import WifiPhy

__all__ = ["FloorPlan", "build_scenario", "enterprise_floor",
           "sample_floor_plan", "sample_user_positions"]


@dataclass(frozen=True)
class FloorPlan:
    """Geometry of one enterprise floor.

    Attributes:
        width_m: plane width (paper: 100 m).
        height_m: plane height (paper: 100 m).
        extender_xy: ``(n_extenders, 2)`` outlet/extender coordinates.
        user_xy: ``(n_users, 2)`` user coordinates.
        plc_rates: per-extender PLC rates (Mbps).
    """

    width_m: float
    height_m: float
    extender_xy: np.ndarray
    user_xy: np.ndarray
    plc_rates: np.ndarray

    def __post_init__(self) -> None:
        ext = np.atleast_2d(np.asarray(self.extender_xy, dtype=float))
        usr = np.asarray(self.user_xy, dtype=float).reshape(-1, 2)
        plc = np.asarray(self.plc_rates, dtype=float).ravel()
        object.__setattr__(self, "extender_xy", ext)
        object.__setattr__(self, "user_xy", usr)
        object.__setattr__(self, "plc_rates", plc)
        if self.width_m <= 0 or self.height_m <= 0:
            raise ValueError("floor dimensions must be positive")
        if ext.shape[0] != plc.shape[0]:
            raise ValueError("one PLC rate per extender is required")

    @property
    def n_extenders(self) -> int:
        return self.extender_xy.shape[0]

    @property
    def n_users(self) -> int:
        return self.user_xy.shape[0]

    def with_users(self, user_xy: np.ndarray) -> "FloorPlan":
        """The same floor with a different user population."""
        return FloorPlan(width_m=self.width_m, height_m=self.height_m,
                         extender_xy=self.extender_xy, user_xy=user_xy,
                         plc_rates=self.plc_rates)


def sample_user_positions(n_users: int, width_m: float, height_m: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Uniform user positions on the plane (the paper's distribution)."""
    if n_users < 0:
        raise ValueError("n_users must be non-negative")
    return np.column_stack([rng.uniform(0, width_m, n_users),
                            rng.uniform(0, height_m, n_users)])


def build_scenario(plan: FloorPlan,
                   phy: Optional[WifiPhy] = None,
                   rng: Optional[np.random.Generator] = None) -> Scenario:
    """Convert a floor plan into a rate-matrix :class:`Scenario`.

    A user out of range of every extender is attached to the nearest
    one at the lowest MCS instead of being left unattachable (a real
    client still hears beacons at the cell edge).

    Args:
        plan: the floor geometry.
        phy: WiFi PHY/propagation model (defaults to :class:`WifiPhy`).
        rng: generator for shadowing draws (only used when the PHY has
            shadowing enabled).

    Returns:
        A :class:`Scenario` whose WiFi rates follow the distance model
        and whose PLC rates come from the floor plan.
    """
    phy = phy or WifiPhy()
    wifi = phy.rate_matrix(plan.user_xy, plan.extender_xy, rng)
    if plan.n_users:
        for i in np.flatnonzero(~(wifi > 0).any(axis=1)):
            diff = plan.extender_xy - plan.user_xy[i]
            nearest = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
            wifi[i, nearest] = phy.mcs_table[0][1] * phy.spatial_streams
    return Scenario(wifi_rates=wifi, plc_rates=plan.plc_rates.copy(),
                    user_ids=np.arange(plan.n_users))


def sample_floor_plan(n_extenders: int, rng: np.random.Generator,
                      width_m: float = 100.0, height_m: float = 100.0,
                      building: Optional[PowerlineNetwork] = None
                      ) -> FloorPlan:
    """Sample the paper's large-scale floor without its users.

    Extenders land on uniformly random outlets of a synthesized wiring
    plant (their PLC rates) and at uniform positions on the plane.

    Args:
        n_extenders: extenders plugged in (paper: up to 15).
        rng: random generator controlling everything.
        width_m: plane width (paper: 100 m).
        height_m: plane height (paper: 100 m).
        building: optional pre-built wiring plant with at least
            ``n_extenders`` outlets.

    Returns:
        A :class:`FloorPlan` with no users.
    """
    return _sample_floor(n_extenders, 0, rng, width_m, height_m, building)


def _sample_floor(n_extenders: int, n_users: int, rng: np.random.Generator,
                  width_m: float, height_m: float,
                  building: Optional[PowerlineNetwork]) -> FloorPlan:
    """The floor with ``n_users`` uniform users, drawn in the order
    plant, outlet choice, extender positions, user positions."""
    if n_extenders < 1:
        raise ValueError("n_extenders must be positive")
    if building is None:
        building = random_building(n_extenders, rng)
    outlets = building.outlets
    if len(outlets) < n_extenders:
        raise ValueError(f"building has {len(outlets)} outlets, "
                         f"need {n_extenders}")
    chosen = [outlets[k] for k in
              rng.choice(len(outlets), size=n_extenders, replace=False)]
    extender_xy = np.column_stack([rng.uniform(0, width_m, n_extenders),
                                   rng.uniform(0, height_m, n_extenders)])
    return FloorPlan(width_m=width_m, height_m=height_m,
                     extender_xy=extender_xy,
                     user_xy=sample_user_positions(n_users, width_m,
                                                   height_m, rng),
                     plc_rates=building.rates(chosen))


def enterprise_floor(n_extenders: int,
                     n_users: int,
                     rng: np.random.Generator,
                     width_m: float = 100.0,
                     height_m: float = 100.0,
                     building: Optional[PowerlineNetwork] = None,
                     phy: Optional[WifiPhy] = None) -> Scenario:
    """Sample the paper's large-scale simulation setting.

    The floor is :func:`sample_floor_plan`'s; ``n_users`` users (paper:
    up to ~124) are then uniform on the plane.  ``phy`` optionally
    overrides the WiFi PHY; every other argument is
    :func:`sample_floor_plan`'s.

    Returns:
        A ready-to-solve :class:`Scenario`.
    """
    plan = _sample_floor(n_extenders, n_users, rng, width_m, height_m,
                         building)
    return build_scenario(plan, phy=phy, rng=rng)
