"""Emulated testbed hardware: extenders, laptops, central unit, iperf.

The paper's testbed (§V-A) is three TP-Link TL-WPA8630 extenders, one
TL-PA8010 central unit, seven laptops and a Windows server running
iperf3.  The hardware reduces to two measured behaviours — WiFi
throughput-fair sharing and PLC time-fair sharing with leftover
redistribution — which :mod:`repro.net.engine` implements; this module
wraps that engine in a device-level API so measurement procedures read
like the paper's experiments ("plug in an extender", "connect a laptop",
"run iperf for 30 s"), including the measurement noise a real testbed
exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.problem import Scenario
from ..net.engine import evaluate
from ..wifi.phy import WifiPhy

__all__ = ["PlcExtender", "Laptop", "EmulatedTestbed", "IperfSample"]


@dataclass
class PlcExtender:
    """An emulated TL-WPA8630-class PLC-WiFi extender.

    Attributes:
        name: device label ("ext-1", ...).
        position: (x, y) placement in metres.
        plc_isolation_mbps: the link's measured isolation throughput
            ("rate" ``c_j``).
        powered: whether the extender is plugged in.
    """

    name: str
    position: Tuple[float, float]
    plc_isolation_mbps: float
    powered: bool = True

    def __post_init__(self) -> None:
        if self.plc_isolation_mbps < 0:
            raise ValueError("PLC rate must be non-negative")


@dataclass
class Laptop:
    """An emulated client laptop.

    Attributes:
        name: device label.
        position: (x, y) placement in metres.
        wired_to: name of an extender reached over Ethernet (bypassing
            WiFi entirely, as in the Fig. 2b/2c measurements), or None.
        associated_to: name of the extender joined over WiFi, or None.
    """

    name: str
    position: Tuple[float, float]
    wired_to: Optional[str] = None
    associated_to: Optional[str] = None


@dataclass(frozen=True)
class IperfSample:
    """One iperf3 measurement.

    Attributes:
        laptop: client name.
        throughput_mbps: measured saturated downlink TCP throughput.
        duration_s: measurement duration.
    """

    laptop: str
    throughput_mbps: float
    duration_s: float


class EmulatedTestbed:
    """A lab bench of emulated PLC-WiFi devices.

    Args:
        phy: WiFi PHY/propagation model shared by all extenders.
        noise_fraction: relative std-dev of iperf measurement noise
            (a real testbed's run-to-run variation; 0 disables it).
        rng: generator for measurement noise.
    """

    def __init__(self, phy: Optional[WifiPhy] = None,
                 noise_fraction: float = 0.03,
                 rng: Optional[np.random.Generator] = None) -> None:
        if noise_fraction < 0:
            raise ValueError("noise_fraction must be non-negative")
        self.phy = phy or WifiPhy()
        self.noise_fraction = noise_fraction
        self.rng = rng or np.random.default_rng(0)
        self.extenders: Dict[str, PlcExtender] = {}
        self.laptops: Dict[str, Laptop] = {}

    # ------------------------------------------------------------------
    # bench setup

    def plug_extender(self, extender: PlcExtender) -> None:
        """Plug an extender into an outlet."""
        if extender.name in self.extenders:
            raise ValueError(f"duplicate extender {extender.name!r}")
        self.extenders[extender.name] = extender

    def unplug_extender(self, name: str) -> None:
        """Unplug (power off) an extender; its clients go offline."""
        self._extender(name).powered = False

    def power_extender(self, name: str) -> None:
        """Re-plug a previously unplugged extender."""
        self._extender(name).powered = True

    def place_laptop(self, laptop: Laptop) -> None:
        """Put a laptop on the bench."""
        if laptop.name in self.laptops:
            raise ValueError(f"duplicate laptop {laptop.name!r}")
        self.laptops[laptop.name] = laptop

    def wire(self, laptop: str, extender: str) -> None:
        """Connect a laptop to an extender with an Ethernet cable."""
        self._extender(extender)
        lp = self._laptop(laptop)
        lp.wired_to = extender
        lp.associated_to = None

    def associate(self, laptop: str, extender: str) -> None:
        """Associate a laptop with an extender over WiFi."""
        ext = self._extender(extender)
        if not ext.powered:
            raise ValueError(f"extender {extender!r} is not powered")
        lp = self._laptop(laptop)
        if self.wifi_rate(laptop, extender) <= 0:
            raise ValueError(
                f"{laptop!r} is out of range of {extender!r}")
        lp.associated_to = extender
        lp.wired_to = None

    # ------------------------------------------------------------------
    # radio helpers

    def wifi_rate(self, laptop: str, extender: str) -> float:
        """WiFi PHY rate (Mbps) between a laptop and an extender."""
        lp = self._laptop(laptop)
        ext = self._extender(extender)
        return self.phy.rate_at_distance(self._distance(lp, ext))

    def scan(self, laptop: str) -> Dict[str, float]:
        """A laptop's scan: PHY rate toward every powered extender."""
        return {name: self.wifi_rate(laptop, name)
                for name, ext in sorted(self.extenders.items())
                if ext.powered}

    # ------------------------------------------------------------------
    # measurement

    def run_iperf(self, duration_s: float = 30.0) -> List[IperfSample]:
        """Saturated downlink iperf3 to every connected laptop.

        Wired laptops saturate their extender's PLC link directly (the
        Fig. 2b/2c methodology: "Ethernet capacity is very high at
        1 Gbps so any throughput degradation is caused by the PLC");
        WiFi laptops exercise the full concatenated link.

        Returns:
            One sample per connected laptop, in bench (name) order.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        scenario, assignment, names = self._build_scenario()
        report = evaluate(scenario, assignment)
        samples = []
        for idx, name in enumerate(names):
            tput = float(report.user_throughputs[idx])
            if self.noise_fraction > 0 and tput > 0:
                tput *= float(1.0 + self.rng.normal(
                    0.0, self.noise_fraction))
                tput = max(tput, 0.0)
            samples.append(IperfSample(laptop=name, throughput_mbps=tput,
                                       duration_s=duration_s))
        return samples

    def iperf_throughput(self, laptop: str,
                         duration_s: float = 30.0) -> float:
        """Convenience: the measured throughput of one laptop."""
        for sample in self.run_iperf(duration_s):
            if sample.laptop == laptop:
                return sample.throughput_mbps
        raise KeyError(f"laptop {laptop!r} is not connected")

    # ------------------------------------------------------------------
    # internals

    def _build_scenario(self) -> "Tuple[Scenario, np.ndarray, List[str]]":
        """Model the current bench as a Scenario + assignment.

        Wired laptops become users with an effectively infinite WiFi rate
        to their extender (the Ethernet hop never bottlenecks), so the
        engine's min() reduces to the PLC side.
        """
        ext_names = sorted(n for n, e in self.extenders.items() if e.powered)
        ext_index = {name: j for j, name in enumerate(ext_names)}
        plc = np.array([self.extenders[n].plc_isolation_mbps
                        for n in ext_names])
        rows, assignment, names = [], [], []
        ethernet_mbps = 1000.0  # GigE never bottlenecks a PLC link
        for name, lp in sorted(self.laptops.items()):
            target = lp.wired_to or lp.associated_to
            if target is None or target not in ext_index:
                continue  # disconnected, or its extender is unplugged
            row = np.zeros(len(ext_names))
            if lp.wired_to:
                row[ext_index[target]] = ethernet_mbps
            else:
                for ename, j in ext_index.items():
                    row[j] = self.wifi_rate(name, ename)
            rows.append(row)
            assignment.append(ext_index[target])
            names.append(name)
        if rows:
            wifi = np.vstack(rows)
        else:
            wifi = np.empty((0, len(ext_names)))
        scenario = Scenario(wifi_rates=wifi, plc_rates=plc)
        return scenario, np.asarray(assignment, dtype=int), names

    def _extender(self, name: str) -> PlcExtender:
        if name not in self.extenders:
            raise KeyError(f"unknown extender {name!r}")
        return self.extenders[name]

    def _laptop(self, name: str) -> Laptop:
        if name not in self.laptops:
            raise KeyError(f"unknown laptop {name!r}")
        return self.laptops[name]

    @staticmethod
    def _distance(laptop: Laptop, extender: PlcExtender) -> float:
        dx = laptop.position[0] - extender.position[0]
        dy = laptop.position[1] - extender.position[1]
        return float(np.hypot(dx, dy))
