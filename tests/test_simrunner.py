import numpy as np
import pytest

from permpolar.channel import DiscreteChannel, bec, bsc
from permpolar.parallel import DegradedScheme, InterleavedScheme, NonBinaryScheme
from permpolar.polar import InformationSet
from permpolar.simrunner import (
    PermutedParallelChannel,
    TrialReport,
    _lane_draw,
    evaluate,
    reports_to_csv,
    transmit,
)

NOISELESS = bsc(0.0)


def small_scheme():
    return DegradedScheme.build([bec(0.2), bec(0.5)], 32, rates=[0.5, 0.25])


def test_permuted_channel_validation():
    with pytest.raises(ValueError):
        PermutedParallelChannel((bec(0.1), bec(0.2)), (0, 0))
    ppc = PermutedParallelChannel((bec(0.1), bec(0.2)), (1, 0))
    assert ppc.S == 2


def test_transmit_noiseless_applies_assignment():
    ppc = PermutedParallelChannel((NOISELESS, NOISELESS, NOISELESS), (2, 0, 1))
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, (3, 16))
    y = transmit(ppc, x, seed=7)
    assert np.array_equal(y[0], x[2])
    assert np.array_equal(y[1], x[0])
    assert np.array_equal(y[2], x[1])


def test_transmit_full_erasure_channel():
    ppc = PermutedParallelChannel((bec(1.0),), (0,))
    x = np.zeros((1, 10), dtype=int)
    y = transmit(ppc, x, seed=3)
    assert np.all(y == 2)  # erasure output index


def test_transmit_deterministic_per_seed_and_trial():
    ppc = PermutedParallelChannel((bec(0.4), bsc(0.2)), (0, 1))
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, (2, 64))
    a = transmit(ppc, x, seed=11, trial=5)
    b = transmit(ppc, x, seed=11, trial=5)
    c = transmit(ppc, x, seed=11, trial=6)
    d = transmit(ppc, x, seed=12, trial=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _philox(seed, trial, lane):
    key = np.array([seed, (trial << 8) | lane], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_lane_draw_equals_a_fresh_philox_per_lane():
    # each draw restarts its own (seed, trial, lane) stream, whatever the
    # draw before it left in the shared generator's buffers
    cases = [(0, 0, 0), (11, 37, 3), (2027, 299, 2), (2**40, 12345, 8), (7, 1, 0)]
    for k in (1, 7, 48, 1025):
        for seed, trial, lane in cases:
            bits = np.empty(k, dtype=np.int64)
            _lane_draw(seed, trial, lane, bits)
            assert np.array_equal(bits, _philox(seed, trial, lane).integers(0, 2, k))
            u = np.empty(k)
            _lane_draw(seed, trial, lane, u)
            assert np.array_equal(u, _philox(seed, trial, lane).random(k))
    rows = np.empty((3, 5))
    for i in range(3):
        _lane_draw(5, i, 1, rows[i])
    expected = np.stack([_philox(5, i, 1).random(5) for i in range(3)])
    assert np.array_equal(rows, expected)


# binary input, four outputs: two certain, two noisy
MIXED = DiscreteChannel(np.array([[0.6, 0.25, 0.15, 0.0], [0.0, 0.15, 0.25, 0.6]]))
# output 1 never occurs, so two cumulative sums repeat in each row
GAP = DiscreteChannel(np.array([[0.7, 0.0, 0.2, 0.1], [0.1, 0.0, 0.2, 0.7]]))


@pytest.mark.parametrize("b", [1, 7])
def test_transmit_trial_range_equals_per_trial_calls(b):
    ppc = PermutedParallelChannel((bec(0.3), bsc(0.2), MIXED, GAP), (2, 0, 3, 1))
    x = np.random.default_rng(b).integers(0, 2, (4, b, 48))
    start = 37
    y = transmit(ppc, x, seed=11, trial=start)
    assert y.shape == x.shape and y.dtype == np.int64
    for i in range(b):
        single = transmit(ppc, x[:, i], seed=11, trial=start + i)
        assert np.array_equal(y[:, i], single)
        for s, ch in enumerate(ppc.channels):
            # inverse CDF on the (trial, lane) stream: the first output
            # whose cumulative probability exceeds the uniform
            cdf = np.cumsum(ch.transitions, axis=1)
            cdf[:, -1] = 1.0
            u = _philox(11, start + i, s).random(48)
            ref = (u[:, None] < cdf[x[ppc.pi[s], i]]).argmax(axis=1)
            assert np.array_equal(single[s], ref)
    assert not np.any(y[3] == 1)


def test_transmit_shape_errors():
    ppc = PermutedParallelChannel((bec(0.4), bsc(0.2)), (0, 1))
    with pytest.raises(ValueError):
        transmit(ppc, np.zeros((3, 8), dtype=int), seed=0)


def test_evaluate_noiseless_zero_bler_every_permutation():
    sets = [InformationSet(8, (3, 5, 6, 7)), InformationSet(8, (6, 7))]
    sch = DegradedScheme([NOISELESS, NOISELESS], sets)
    reports = evaluate(sch, permutations="all", trials=25, master_seed=5)
    assert len(reports) == 2
    for r in reports:
        assert r.errors == 0
        assert r.bler == 0.0
        assert r.trials == 25


def test_evaluate_fixed_seed_reproducible():
    sch = small_scheme()
    a = evaluate(sch, trials=60, master_seed=42)
    b = evaluate(sch, trials=60, master_seed=42)
    assert reports_to_csv(a) == reports_to_csv(b)


def test_evaluate_chunking_invariance():
    sch = small_scheme()
    a = evaluate(sch, trials=50, master_seed=9, chunk=50)
    b = evaluate(sch, trials=50, master_seed=9, chunk=7)
    assert reports_to_csv(a) == reports_to_csv(b)


@pytest.mark.parametrize("cls", [InterleavedScheme, NonBinaryScheme])
def test_evaluate_coupled_chunking_invariance(cls):
    sch = cls.build([bsc(0.11002), bec(0.5)], 64, m=2, rates=[0.25, 0.25])
    a = evaluate(sch, trials=60, master_seed=2027)
    b = evaluate(sch, trials=60, master_seed=2027, chunk=1)
    assert reports_to_csv(a) == reports_to_csv(b)
    assert sum(r.errors for r in a) > 0


class _FirstChunk(Exception):
    pass


@pytest.mark.parametrize(
    "kind, expected",
    [("degraded", 1024), ("degraded-list", 512), ("interleaved", 256), ("symbol", 256)],
)
def test_evaluate_default_chunk(monkeypatch, kind, expected):
    # 2^21 / (uses per channel * 2^m * list size), read at the first encode
    if kind.startswith("degraded"):
        sch = DegradedScheme.build(
            [bec(0.1), bec(0.3), bec(0.5)],
            1024,
            rates=[0.75, 0.55, 0.35],
            list_size=2 if kind == "degraded-list" else 1,
        )
    else:
        cls = InterleavedScheme if kind == "interleaved" else NonBinaryScheme
        sch = cls.build([bsc(0.11002), bec(0.5)], 1024, m=2, rates=[0.25, 0.25])
    sizes = []

    def encode(bits):
        sizes.append(len(bits))
        raise _FirstChunk

    monkeypatch.setattr(sch, "encode", encode)
    with pytest.raises(_FirstChunk):
        evaluate(sch, permutations=[tuple(range(sch.S))], trials=5000)
    assert sizes == [expected]


def test_evaluate_worker_invariance():
    sch = small_scheme()
    a = evaluate(sch, trials=40, master_seed=3, workers=1)
    b = evaluate(sch, trials=40, master_seed=3, workers=3)
    assert reports_to_csv(a) == reports_to_csv(b)


def test_evaluate_starts_one_pool_per_call(monkeypatch):
    import multiprocessing

    sch = small_scheme()
    perms = [(1, 0), (0, 1), (1, 0)]
    serial = evaluate(sch, permutations=perms, trials=40, master_seed=3)
    ctx = multiprocessing.get_context("fork")
    pools = []

    class CountingContext:
        def Pool(self, *args, **kwargs):
            pools.append(args)
            return ctx.Pool(*args, **kwargs)

    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: CountingContext()
    )
    pooled = evaluate(sch, permutations=perms, trials=40, master_seed=3, workers=3)
    assert len(pools) == 1
    # a repeated permutation gets its own report with the same counts
    assert [r.bit_errors for r in pooled] == [r.bit_errors for r in serial]
    assert reports_to_csv(pooled) == reports_to_csv(serial)


def test_evaluate_rejects_all_for_large_s():
    sets = [InformationSet(2, (1,))] * 7
    sch = DegradedScheme([NOISELESS] * 7, sets)
    with pytest.raises(ValueError, match="explicit"):
        evaluate(sch, permutations="all", trials=1)


def test_evaluate_explicit_permutations_and_report_fields():
    sch = small_scheme()
    reports = evaluate(sch, permutations=[(1, 0)], trials=30, master_seed=2)
    (r,) = reports
    assert r.permutation == (1, 0)
    assert r.n == 32
    assert r.rate == pytest.approx(sch.rate())
    assert 0.0 <= r.ci_low <= r.bler <= r.ci_high <= 1.0
    assert r.seed == 2


def test_rate_reduction_reduces_bler():
    chans = [bec(0.3), bec(0.5)]
    high = DegradedScheme.build(chans, 256, rates=[0.65, 0.45])
    low = DegradedScheme.build(chans, 256, rates=[0.33, 0.22])
    r_high = evaluate(high, permutations=[(0, 1)], trials=300, master_seed=17)
    r_low = evaluate(low, permutations=[(0, 1)], trials=300, master_seed=17)
    assert r_low[0].errors < r_high[0].errors


def test_measured_bler_within_union_bound():
    # exact per-index erasure figures upper-bound the block error rate
    from permpolar.polar import bec_split_bhattacharyya

    chans = [bec(0.2), bec(0.4)]
    sch = DegradedScheme.build(chans, 64, rates=[0.55, 0.35])
    bound = 0.0
    for ch, info in zip(chans, sch.info_sets):
        z = bec_split_bhattacharyya(0.2 if ch == bec(0.2) else 0.4, 64)
        bound += float(z[list(info.indices)].sum())
    reports = evaluate(sch, permutations=[(0, 1)], trials=800, master_seed=31)
    sigma = np.sqrt(bound * (1 - min(bound, 1.0)) / 800 + 1e-9)
    assert reports[0].bler <= bound + 4 * sigma


def test_bler_statistically_permutation_invariant():
    sch = DegradedScheme.build([bec(0.25), bec(0.5)], 128, rates=[0.55, 0.3])
    reports = evaluate(sch, permutations="all", trials=600, master_seed=8)
    blers = [r.bler for r in reports]
    p = float(np.mean(blers))
    sigma_diff = np.sqrt(2 * max(p, 1e-3) * (1 - p) / 600)
    assert max(blers) - min(blers) <= 5 * sigma_diff


def test_wilson_interval_properties():
    r = TrialReport((0,), 8, 0.5, 100, 0, 0.0, 0.0, 0.05, 1)
    assert r.bit_error_rate == 0.0
    from permpolar.simrunner import _wilson_interval

    lo, hi = _wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-15) and hi < 0.05
    lo, hi = _wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = _wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95


def test_csv_format():
    reports = [
        TrialReport((1, 0), 16, 0.75, 10, 2, 0.2, 0.05, 0.5, 7, bit_errors=5)
    ]
    csv = reports_to_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0] == "permutation,n,rate,trials,errors,bler,ci_low,ci_high,seed"
    assert lines[1].startswith("1-0,16,0.75,10,2,0.2,")
