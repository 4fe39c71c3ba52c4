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
from .polar import split_levels

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


def bound_table(
    channels, depth: int, merge_tol: float = DEFAULT_MERGE_TOL
) -> list[tuple[float, float, float]]:
    """(compound_lower_bound, parallel_rate_lower, parallel_rate_upper) at
    every k = 0..depth, read from one split walk per channel."""
    channels = _check_bound_input(channels, depth)
    walks = [split_levels(ch, depth, merge_tol) for ch in channels]
    last_cap = capacity_uniform(channels[-1])
    rows = []
    for k in range(depth + 1):
        level = [levels[k] for levels in walks]
        z = np.array([[bhattacharyya(c) for c in row] for row in level])
        caps = np.array([[capacity_uniform(c) for c in row] for row in level])
        lower, upper = last_cap + (len(channels) - 1), last_cap
        for s in range(len(channels) - 1):
            lower -= z[s:].max(axis=0).mean()
            upper += caps[s:].min(axis=0).mean()
        rows.append((float(1.0 - z.max(axis=0).mean()), float(lower), float(upper)))
    return rows


def _parallel_bound(channels, k: int, merge_tol: float, column: int) -> float:
    channels = _check_bound_input(channels, k)
    if len(channels) == 1:
        # one stage: its full symmetric capacity, no walk needed
        return float(capacity_uniform(channels[0]))
    return bound_table(channels, k, merge_tol)[-1][column]


def compound_lower_bound(
    channels, k: int, merge_tol: float = DEFAULT_MERGE_TOL
) -> float:
    """Achievable rate with one code that must serve every listed channel:
    1 - 2^{-k} * sum over branch words of the worst tree-channel
    Bhattacharyya parameter.  Nondecreasing in k up to merge error."""
    return bound_table(channels, k, merge_tol)[-1][0]


def parallel_rate_lower(
    channels, k: int, merge_tol: float = DEFAULT_MERGE_TOL
) -> float:
    """Rate achievable by the channel-after-channel scheme when stage s
    must work no matter which of channels[s:] it actually faces.

    The channel list order is the caller's stage order; the last listed
    channel contributes its full symmetric capacity.
    """
    return _parallel_bound(channels, k, merge_tol, 1)


def parallel_rate_upper(
    channels, k: int, merge_tol: float = DEFAULT_MERGE_TOL
) -> float:
    """Rate ceiling for the channel-after-channel scheme: each stage is
    capped by the smallest tree-channel capacity among its candidates."""
    return _parallel_bound(channels, k, merge_tol, 2)


def capacity_ascending(channels) -> list[DiscreteChannel]:
    """Default stage order for the bounds: ascending symmetric capacity."""
    return sorted(channels, key=capacity_uniform)
