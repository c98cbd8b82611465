"""PLC substrate: IEEE 1901 MAC, HomePlug AV2 PHY, wiring topology."""

from .channel import PowerlineNetwork, random_building
from .homeplug import DEFAULT_AV2, Av2Phy
from .noise import NoiseProcess, TimeVaryingPlc
from .mac import (Ieee1901CsmaSimulator, Ieee1901Parameters,
                  Ieee1901Result, TdmaScheduler)
from .sharing import (PLC_MODES, BatchPlcAllocation, PlcAllocation,
                      allocate_backhaul, allocate_backhaul_batch,
                      max_min_time_shares, max_min_time_shares_batch,
                      time_fair_throughputs)

__all__ = [
    "PowerlineNetwork", "random_building", "Av2Phy", "DEFAULT_AV2",
    "Ieee1901CsmaSimulator", "Ieee1901Parameters", "Ieee1901Result",
    "TdmaScheduler", "PLC_MODES", "PlcAllocation", "BatchPlcAllocation",
    "allocate_backhaul", "allocate_backhaul_batch",
    "max_min_time_shares", "max_min_time_shares_batch",
    "time_fair_throughputs",
    "NoiseProcess", "TimeVaryingPlc",
]
