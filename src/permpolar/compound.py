"""Tree-channel synthesis and worst-case rate bounds for channel lists.

A depth-k tree channel applies k minus/plus synthesis steps to a base
channel; the branch word sigma, read left to right, is the MSB-first
binary expansion of the corresponding split index in a 2^k block.  The
bounds below average worst-case (or best-case) figures of the tree
channels across a channel list, which is what limits any scheme that
fixes one information set for several possible channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_OUTPUT_CAP,
    DiscreteChannel,
    bhattacharyya,
    capacity_uniform,
    merge_outputs,
)
from .polar import (
    InformationSet,
    channel_minus,
    channel_plus,
    monotone_info_sets,
)
from . import channel as _channel

DEFAULT_DEPTH_CAP = 6
DEFAULT_MERGE_TOL = 1e-6


@dataclass(frozen=True)
class TreeChannel:
    """A base channel, the branch word, and the realized channel."""

    base: DiscreteChannel
    sigma: tuple[int, ...]
    realized: DiscreteChannel


def tree_channel(
    ch: DiscreteChannel,
    sigma,
    merge_tol: float = DEFAULT_MERGE_TOL,
    cap: int = DEFAULT_OUTPUT_CAP,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> TreeChannel:
    """Realize the tree channel for branch word sigma (first entry first)."""
    sigma = tuple(int(b) for b in sigma)
    if any(b not in (0, 1) for b in sigma):
        raise ValueError("sigma must be a binary word")
    if len(sigma) > depth_cap:
        raise _channel.ResourceLimitError(
            f"depth {len(sigma)} exceeds cap {depth_cap}"
        )
    c = ch
    for b in sigma:
        c = channel_plus(c, cap) if b else channel_minus(c, cap)
        c = merge_outputs(c, merge_tol)
    return TreeChannel(ch, sigma, c)


def _tree_values(
    ch: DiscreteChannel, k: int, merge_tol: float, cap: int, value_fn
) -> np.ndarray:
    """value_fn over all 2^k depth-k tree channels, indexed by the integer
    whose MSB-first bits are sigma."""
    level = [ch]
    for _ in range(k):
        nxt = []
        for c in level:
            nxt.append(merge_outputs(channel_minus(c, cap), merge_tol))
            nxt.append(merge_outputs(channel_plus(c, cap), merge_tol))
        level = nxt
    return np.array([value_fn(c) for c in level])


def compound_lower_bound(
    channels,
    k: int,
    merge_tol: float = DEFAULT_MERGE_TOL,
    cap: int = DEFAULT_OUTPUT_CAP,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> float:
    """Achievable rate with one code that must serve every listed channel:
    1 - 2^{-k} * sum over branch words of the worst tree-channel
    Bhattacharyya parameter.  Nondecreasing in k up to merge error."""
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one channel")
    if k < 0:
        raise ValueError("depth k must be nonnegative")
    if k > depth_cap:
        raise _channel.ResourceLimitError(f"depth {k} exceeds cap {depth_cap}")
    tables = np.stack(
        [_tree_values(ch, k, merge_tol, cap, bhattacharyya) for ch in channels]
    )
    return float(1.0 - tables.max(axis=0).mean())


def parallel_rate_lower(
    channels,
    k: int,
    merge_tol: float = DEFAULT_MERGE_TOL,
    cap: int = DEFAULT_OUTPUT_CAP,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> float:
    """Rate achievable by the channel-after-channel scheme when stage s
    must work no matter which of channels[s:] it actually faces.

    The channel list order is the caller's stage order; the last listed
    channel contributes its full symmetric capacity.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one channel")
    if k > depth_cap:
        raise _channel.ResourceLimitError(f"depth {k} exceeds cap {depth_cap}")
    s_count = len(channels)
    total = capacity_uniform(channels[-1]) + (s_count - 1)
    if s_count == 1:
        return float(total)
    tables = np.stack(
        [_tree_values(ch, k, merge_tol, cap, bhattacharyya) for ch in channels]
    )
    for s in range(s_count - 1):
        total -= tables[s:].max(axis=0).mean()
    return float(total)


def parallel_rate_upper(
    channels,
    k: int,
    merge_tol: float = DEFAULT_MERGE_TOL,
    cap: int = DEFAULT_OUTPUT_CAP,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> float:
    """Rate ceiling for the channel-after-channel scheme: each stage is
    capped by the smallest tree-channel capacity among its candidates."""
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one channel")
    if k > depth_cap:
        raise _channel.ResourceLimitError(f"depth {k} exceeds cap {depth_cap}")
    s_count = len(channels)
    total = capacity_uniform(channels[-1])
    if s_count == 1:
        return float(total)
    tables = np.stack(
        [_tree_values(ch, k, merge_tol, cap, capacity_uniform) for ch in channels]
    )
    for s in range(s_count - 1):
        total += tables[s:].min(axis=0).mean()
    return float(total)


def capacity_ascending(channels) -> list[DiscreteChannel]:
    """Default stage order for the bounds: ascending symmetric capacity."""
    return sorted(channels, key=capacity_uniform)


def erasure_surrogate_sets(
    channels,
    n: int,
    rates=None,
    threshold: float | None = None,
    size_multiple: int = 1,
) -> list[InformationSet]:
    """Nested information sets valid for arbitrary binary symmetric
    channels, built on erasure surrogates.

    Each channel is replaced by an erasure channel whose erasure
    probability equals the channel's Bhattacharyya parameter; among
    binary symmetric channels with a given parameter the erasure channel
    has the largest split parameters, so a set reliable for the surrogate
    is reliable for the original.  Surrogates are automatically degraded
    along the list, giving nested sets.

    The input list must be ordered by nondecreasing Bhattacharyya
    parameter (i.e. best channel first).
    """
    channels = list(channels)
    zs = [bhattacharyya(ch) for ch in channels]
    if any(b > a + 1e-12 for a, b in zip(zs[1:], zs[:-1])):
        raise ValueError(
            "channels must be ordered by nondecreasing Bhattacharyya parameter"
        )
    surrogates = [_channel.bec(min(1.0, z)) for z in zs]
    return monotone_info_sets(
        surrogates,
        n,
        rates=rates,
        threshold=threshold,
        verify=False,
        size_multiple=size_multiple,
    )
