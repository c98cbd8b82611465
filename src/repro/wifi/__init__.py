"""802.11 substrate: PHY/propagation, DCF MAC, sharing law, channels."""

from .channels import (NON_OVERLAPPING_2_4GHZ, ChannelPlan,
                       assign_channels, interference_graph)
from .mac import DcfParameters, DcfResult, DcfSimulator
from .phy import MCS_TABLE_80211N_20MHZ, WifiPhy
from .sharing import (anomaly_ratio, cell_throughput, cell_throughputs,
                      cell_throughputs_batch, per_user_throughput)

__all__ = [
    "WifiPhy", "MCS_TABLE_80211N_20MHZ",
    "DcfSimulator", "DcfParameters", "DcfResult",
    "cell_throughput", "cell_throughputs", "cell_throughputs_batch",
    "per_user_throughput", "anomaly_ratio",
    "assign_channels", "ChannelPlan", "interference_graph",
    "NON_OVERLAPPING_2_4GHZ",
]
