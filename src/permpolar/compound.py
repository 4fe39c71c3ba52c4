"""Worst-case rate bounds for channel lists.

The bounds average worst-case (or best-case) figures of the depth-k split
channels (`polar.split_channels`) across a channel list, which is what
limits any scheme that fixes one information set for several possible
channels.  Split channel l of a 2^k block is the tree channel whose branch
word is the MSB-first binary expansion of l.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    DiscreteChannel,
    ResourceLimitError,
    bhattacharyya,
    capacity_uniform,
)
from .polar import split_channels

DEPTH_CAP = 6
DEFAULT_MERGE_TOL = 1e-6


def _check_bound_input(channels, k: int) -> list[DiscreteChannel]:
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one channel")
    if k < 0:
        raise ValueError("depth k must be nonnegative")
    if k > DEPTH_CAP:
        raise ResourceLimitError(f"depth {k} exceeds cap {DEPTH_CAP}")
    return channels


def _split_table(channels, k: int, merge_tol: float, value_fn) -> np.ndarray:
    """value_fn of every depth-k split channel: one row per channel."""
    return np.array(
        [[value_fn(c) for c in split_channels(ch, k, merge_tol)] for ch in channels]
    )


def compound_lower_bound(
    channels, k: int, merge_tol: float = DEFAULT_MERGE_TOL
) -> float:
    """Achievable rate with one code that must serve every listed channel:
    1 - 2^{-k} * sum over branch words of the worst tree-channel
    Bhattacharyya parameter.  Nondecreasing in k up to merge error."""
    channels = _check_bound_input(channels, k)
    tables = _split_table(channels, k, merge_tol, bhattacharyya)
    return float(1.0 - tables.max(axis=0).mean())


def parallel_rate_lower(
    channels, k: int, merge_tol: float = DEFAULT_MERGE_TOL
) -> float:
    """Rate achievable by the channel-after-channel scheme when stage s
    must work no matter which of channels[s:] it actually faces.

    The channel list order is the caller's stage order; the last listed
    channel contributes its full symmetric capacity.
    """
    channels = _check_bound_input(channels, k)
    s_count = len(channels)
    total = capacity_uniform(channels[-1]) + (s_count - 1)
    if s_count == 1:
        return float(total)
    tables = _split_table(channels, k, merge_tol, bhattacharyya)
    for s in range(s_count - 1):
        total -= tables[s:].max(axis=0).mean()
    return float(total)


def parallel_rate_upper(
    channels, k: int, merge_tol: float = DEFAULT_MERGE_TOL
) -> float:
    """Rate ceiling for the channel-after-channel scheme: each stage is
    capped by the smallest tree-channel capacity among its candidates."""
    channels = _check_bound_input(channels, k)
    s_count = len(channels)
    total = capacity_uniform(channels[-1])
    if s_count == 1:
        return float(total)
    tables = _split_table(channels, k, merge_tol, capacity_uniform)
    for s in range(s_count - 1):
        total += tables[s:].min(axis=0).mean()
    return float(total)


def capacity_ascending(channels) -> list[DiscreteChannel]:
    """Default stage order for the bounds: ascending symmetric capacity."""
    return sorted(channels, key=capacity_uniform)
