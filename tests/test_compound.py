import numpy as np
import pytest

from permpolar.channel import (
    ResourceLimitError,
    bec,
    bhattacharyya,
    bsc,
    capacity_uniform,
)
from permpolar.compound import (
    bound_table,
    capacity_ascending,
    compound_lower_bound,
    parallel_rate_lower,
    parallel_rate_upper,
)
from permpolar.parallel import ConstructionError, DegradedScheme
from permpolar.polar import (
    build_info_set,
    monotone_info_sets,
    split_channel_exact,
    split_channels,
)


def test_tree_channel_bec_single_branches():
    eps = 0.37
    z0, z1 = (bhattacharyya(c) for c in split_channels(bec(eps), 1))
    assert z0 == pytest.approx(2 * eps - eps * eps, abs=1e-12)
    assert z1 == pytest.approx(eps * eps, abs=1e-12)


def test_tree_channel_empty_sigma_is_base():
    assert split_channels(bsc(0.2), 0) == [bsc(0.2)]


def test_tree_channel_plus_plus_improves_bsc():
    base = bsc(0.11002)
    assert capacity_uniform(split_channel_exact(base, 4, 3)) > capacity_uniform(base)
    assert capacity_uniform(split_channels(base, 2)[3]) > capacity_uniform(base)


@pytest.mark.parametrize("base", [bec(0.3), bsc(0.11002)])
def test_tree_channel_equals_indexed_split(base):
    for k in (1, 2, 3, 4):
        level = split_channels(base, k)
        assert len(level) == 2**k
        for l, c in enumerate(level):
            # the same steps in the same order: equal bit for bit
            assert bhattacharyya(c) == bhattacharyya(split_channel_exact(base, 2**k, l))


def test_tree_channel_validation():
    with pytest.raises(ValueError):
        split_channels(bec(0.5), -1)
    with pytest.raises(ValueError):
        split_channel_exact(bec(0.5), 6, 0)
    with pytest.raises(ValueError):
        split_channel_exact(bec(0.5), 8, 8)


@pytest.mark.parametrize(
    "bound", [compound_lower_bound, parallel_rate_lower, parallel_rate_upper]
)
def test_bounds_check_their_input(bound):
    with pytest.raises(ValueError, match="at least one"):
        bound([], 1)
    with pytest.raises(ValueError, match="nonnegative"):
        bound([bec(0.5)], -1)
    with pytest.raises(ResourceLimitError):
        bound([bec(0.5)], 7)


def test_compound_lower_bound_examples():
    v = compound_lower_bound([bec(0.3), bec(0.6)], 1, merge_tol=0.0)
    assert v == pytest.approx(0.4, abs=1e-12)
    single = compound_lower_bound([bsc(0.11002)], 0)
    assert single == pytest.approx(
        1 - bhattacharyya(bsc(0.11002)), abs=1e-12
    )
    one = compound_lower_bound([bec(0.4)], 2, merge_tol=0.0)
    many = compound_lower_bound([bec(0.4)] * 3, 2, merge_tol=0.0)
    assert one == pytest.approx(many, abs=1e-12)


def test_compound_lower_bound_monotone_in_k():
    chans = [bec(0.3), bec(0.6)]
    values = [
        compound_lower_bound(chans, k, merge_tol=0.0) for k in range(5)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_compound_lower_converges_to_worst_capacity_bec():
    chans = [bec(0.2), bec(0.55)]
    v5 = compound_lower_bound(chans, 6, merge_tol=0.0)
    assert v5 <= 0.45 + 1e-9
    assert v5 >= 0.43  # close at depth 6 for erasure lists


def test_parallel_rate_lower_examples():
    assert parallel_rate_lower([bec(0.3)], 3, merge_tol=0.0) == pytest.approx(
        0.7, abs=1e-12
    )
    # degraded erasure pair: max collapses onto the worse channel, so the
    # bound approaches the capacity sum as depth grows
    chans = [bec(0.6), bec(0.3)]  # ascending capacity order
    v = [parallel_rate_lower(chans, k, merge_tol=0.0) for k in (0, 2, 4, 6)]
    assert all(b >= a - 1e-12 for a, b in zip(v, v[1:]))
    assert v[-1] > 1.02
    assert v[-1] <= 0.4 + 0.7 + 1e-9


def test_parallel_bounds_of_one_channel_take_no_split_walk(monkeypatch):
    import permpolar.polar as polar

    def no_walk(*a):
        raise AssertionError("split walk for a single channel")

    monkeypatch.setattr(polar, "channel_minus", no_walk)
    monkeypatch.setattr(polar, "channel_plus", no_walk)
    for bound in (parallel_rate_lower, parallel_rate_upper):
        assert bound([bsc(0.11002)], 6, merge_tol=0.0) == capacity_uniform(
            bsc(0.11002)
        )


def test_bounds_read_one_table():
    chans = [bsc(0.11002), bec(0.5)]
    rows = bound_table(chans, 3, merge_tol=0.0)
    for k, row in enumerate(rows):
        assert row == (
            compound_lower_bound(chans, k, merge_tol=0.0),
            parallel_rate_lower(chans, k, merge_tol=0.0),
            parallel_rate_upper(chans, k, merge_tol=0.0),
        )


def test_parallel_bounds_never_exceed_capacity_sum():
    chans = [bec(0.5), bsc(0.11002)]
    cap_sum = sum(capacity_uniform(c) for c in chans)
    for k in (0, 1, 3):
        assert parallel_rate_lower(chans, k, merge_tol=0.0) <= cap_sum + 1e-9
        assert parallel_rate_upper(chans, k, merge_tol=0.0) <= cap_sum + 1e-9


def test_parallel_rate_upper_separation_for_mixed_pair():
    chans = capacity_ascending([bsc(0.11002), bec(0.5)])
    up = parallel_rate_upper(chans, 4, merge_tol=0.0)
    assert up < 1.0
    assert up == pytest.approx(0.9818, abs=2e-3)


def test_parallel_rate_upper_identical_channels():
    chans = [bec(0.4), bec(0.4)]
    up6 = parallel_rate_upper(chans, 6, merge_tol=0.0)
    # identical channels: min over equal values, so the bound approaches
    # the sum of capacities from below as the trees polarize
    assert up6 <= 1.2 + 1e-9
    assert up6 > 1.15


def test_capacity_ascending_helper():
    out = capacity_ascending([bec(0.2), bec(0.7), bec(0.4)])
    caps = [capacity_uniform(c) for c in out]
    assert caps == sorted(caps)


def test_erasure_surrogate_sets_on_becs_reduce_to_monotone():
    chans = [bec(0.1), bec(0.5)]
    via_surrogate = monotone_info_sets(chans, 16, rates=[0.6, 0.3], method="surrogate")
    direct = monotone_info_sets(chans, 16, rates=[0.6, 0.3])
    assert via_surrogate == direct


def test_erasure_surrogate_sets_mixed_pair():
    chans = [bec(0.5), bsc(0.11002)]  # ordered by Bhattacharyya: 0.5 < 0.6258
    sets = monotone_info_sets(chans, 32, rates=[0.4, 0.25], method="surrogate")
    assert sets[1].issubset(sets[0])
    # the worst channel's set is built first, from the erasure channel at
    # its Bhattacharyya parameter alone
    z = bhattacharyya(bsc(0.11002))
    direct = build_info_set(bec(z), 32, rate=0.25)
    assert sets[1] == direct


def test_erasure_surrogate_sets_rejects_unordered():
    with pytest.raises(ValueError, match="ordered"):
        monotone_info_sets(
            [bsc(0.11002), bec(0.5)], 16, rates=[0.3, 0.2], method="surrogate"
        )
    with pytest.raises(ConstructionError, match="ordered"):
        DegradedScheme.build(
            [bsc(0.11002), bec(0.5)], 16, rates=[0.3, 0.2], surrogate=True
        )


def test_erasure_surrogate_noiseless_member_gets_everything():
    sets = monotone_info_sets(
        [bec(0.0), bec(0.5)], 8, threshold=0.2, method="surrogate"
    )
    assert sets[0].indices == tuple(range(8))
