"""WiFi channel assignment for co-located extenders.

§V-A of the paper: "when a small number of APs are used, each operates
on a non-overlapping 802.11 channel, and thus is able to operate
interference free; thus, we assume that each extender operates on an
non-overlapping channel relative to its neighbor extenders."

This module makes that assumption checkable: it builds the interference
graph between extenders as a boolean adjacency array (two extenders
interfere when closer than an interference radius) and colors it
largest-first greedily with the non-overlapping channel set (1/6/11 in
2.4 GHz).  Experiments can then verify that a deployment satisfies the
paper's interference-free assumption — or detect where it breaks at
high extender density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["NON_OVERLAPPING_2_4GHZ", "ChannelPlan", "assign_channels",
           "interference_graph"]

#: The non-overlapping 20 MHz channels in the 2.4 GHz ISM band.
NON_OVERLAPPING_2_4GHZ = (1, 6, 11)


def interference_graph(extender_xy: np.ndarray,
                       interference_radius_m: float) -> np.ndarray:
    """``(n, n)`` boolean adjacency of interfering extender pairs.

    Args:
        extender_xy: ``(n, 2)`` extender coordinates (metres).
        interference_radius_m: co-channel extenders closer than this
            interfere.
    """
    xy = np.atleast_2d(np.asarray(extender_xy, dtype=float))
    if xy.shape[1] != 2:
        raise ValueError("extender_xy must be an (n, 2) array")
    if interference_radius_m <= 0:
        raise ValueError("interference radius must be positive")
    diff = xy[:, np.newaxis, :] - xy[np.newaxis, :, :]
    adjacent = np.hypot(diff[..., 0], diff[..., 1]) < interference_radius_m
    np.fill_diagonal(adjacent, False)
    return adjacent


@dataclass(frozen=True)
class ChannelPlan:
    """A channel assignment for the extenders.

    Attributes:
        channels: per-extender channel number.
        conflict_free: True when no two interfering extenders share a
            channel (the paper's operating assumption holds).
        conflicts: interfering same-channel extender pairs.
    """

    channels: Tuple[int, ...]
    conflict_free: bool
    conflicts: Tuple[Tuple[int, int], ...]


def assign_channels(extender_xy: np.ndarray,
                    interference_radius_m: float = 40.0,
                    channel_set: Sequence[int] = NON_OVERLAPPING_2_4GHZ
                    ) -> ChannelPlan:
    """Greedy graph-coloring channel assignment.

    Colors the interference graph largest-first: extenders in order of
    decreasing degree (ties by index), each taking the lowest color no
    colored neighbour holds.  When the graph needs more colors than
    available channels, colors wrap around modulo the channel set and
    the residual conflicts are reported.

    Args:
        extender_xy: ``(n, 2)`` extender coordinates.
        interference_radius_m: interference range between extenders.
        channel_set: available non-overlapping channels.

    Returns:
        A :class:`ChannelPlan`.
    """
    channel_list = list(channel_set)
    if not channel_list:
        raise ValueError("channel_set must not be empty")
    adjacent = interference_graph(extender_xy, interference_radius_m)
    color = np.full(adjacent.shape[0], -1)
    for node in np.argsort(-adjacent.sum(axis=1), kind="stable"):
        color[node] = min(set(range(color.size))
                          - set(color[adjacent[node]].tolist()))
    channels = tuple(channel_list[c % len(channel_list)]
                     for c in color.tolist())
    pairs = np.argwhere(np.triu(adjacent, 1)).tolist()
    conflicts = tuple((a, b) for a, b in pairs if channels[a] == channels[b])
    return ChannelPlan(channels=channels,
                       conflict_free=not conflicts,
                       conflicts=conflicts)
