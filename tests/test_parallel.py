import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from permpolar.channel import bec, bsc, capacity_uniform, q_ary_symmetric
from permpolar.parallel import (
    ConstructionError,
    DegradedScheme,
    InterleavedScheme,
    NonBinaryScheme,
    scheme_from_manifest,
    scheme_rate,
    scheme_to_manifest,
)
from permpolar.polar import (
    InformationSet,
    ScDecoder,
    channel_plus,
    list_decode,
    polar_encode,
)
from permpolar.simrunner import (
    PermutedParallelChannel,
    evaluate,
    reports_to_csv,
    transmit,
)

NOISELESS = bsc(0.0)


def nested_sets_8():
    return [
        InformationSet(8, (1, 3, 4, 5, 6, 7)),
        InformationSet(8, (3, 5, 6, 7)),
        InformationSet(8, (6, 7)),
    ]


def roundtrip_all_permutations(scheme, bits):
    x = scheme.encode(bits)
    for pi in itertools.permutations(range(scheme.S)):
        y = [x[pi[s]] for s in range(scheme.S)]
        if not np.array_equal(scheme.decode(y, pi), bits):
            return False
    return True


# -- degraded scheme -----------------------------------------------------------


def test_degraded_all_zero_is_all_zero():
    sch = DegradedScheme([NOISELESS] * 3, nested_sets_8())
    x = sch.encode(np.zeros(sch.info_bit_count, dtype=int))
    assert np.count_nonzero(x) == 0


def test_degraded_encoder_linearity():
    sch = DegradedScheme([NOISELESS] * 3, nested_sets_8())
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, sch.info_bit_count)
    b = rng.integers(0, 2, sch.info_bit_count)
    assert np.array_equal(sch.encode(a ^ b), sch.encode(a) ^ sch.encode(b))


def test_degraded_noiseless_all_permutations():
    sch = DegradedScheme([NOISELESS] * 3, nested_sets_8())
    rng = np.random.default_rng(1)
    for _ in range(5):
        bits = rng.integers(0, 2, sch.info_bit_count)
        assert roundtrip_all_permutations(sch, bits)


def test_degraded_s2_repeats_shared_rows():
    sets = [InformationSet(4, (1, 2, 3)), InformationSet(4, (3,))]
    sch = DegradedScheme([NOISELESS] * 2, sets)
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, sch.info_bit_count)
    u = sch._fill_u(bits[None])
    shared = sch.layer_indices(0)  # sets[0] minus sets[1]
    assert np.array_equal(u[1][:, shared], u[0][:, shared])


def test_degraded_s3_parity_and_repetition_structure():
    sch = DegradedScheme([NOISELESS] * 3, nested_sets_8())
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, sch.info_bit_count)
    u = sch._fill_u(bits[None])
    l0, l1 = sch.layer_indices(0), sch.layer_indices(1)
    # repetition layer shared by all three codewords
    assert np.array_equal(u[1][:, l0], u[0][:, l0])
    assert np.array_equal(u[2][:, l0], u[0][:, l0])
    # parity layer on the third codeword
    assert np.array_equal(u[2][:, l1], u[0][:, l1] ^ u[1][:, l1])


def test_degraded_stage_trace_matches_encoder_values():
    sch = DegradedScheme([NOISELESS] * 3, nested_sets_8())
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, sch.info_bit_count)
    u = sch._fill_u(bits[None])
    x = sch.encode(bits)
    pi = (1, 2, 0)
    y = [x[pi[s]] for s in range(3)]
    decoded = sch.decode(y, pi)
    assert np.array_equal(decoded, bits)
    # stage s resolves layer s - 1 and decodes layers s.. of codeword pi[s],
    # read from the transform inputs that the decoded bits fill
    got = sch._fill_u(decoded[None]) | sch._frozen
    for s in range(sch.S):
        for j in range(max(s - 1, 0), sch.S):
            idx = sch.layer_indices(j)
            assert np.array_equal(got[pi[s]][0][idx], u[pi[s]][0][idx])


def test_degraded_frozen_vector_roundtrip():
    rng = np.random.default_rng(5)
    sets = nested_sets_8()
    b = rng.integers(0, 2, 8 - len(sets[0]))
    sch = DegradedScheme([NOISELESS] * 3, sets, b=b)
    bits = rng.integers(0, 2, sch.info_bit_count)
    assert roundtrip_all_permutations(sch, bits)


def test_degraded_equal_capacity_pair_is_independent_codes():
    sets = [InformationSet(8, (5, 6, 7)), InformationSet(8, (5, 6, 7))]
    sch = DegradedScheme([NOISELESS] * 2, sets)
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, sch.info_bit_count)
    x = sch.encode(bits)
    # no cross-codeword layer: each codeword is the plain polar encoding of
    # its own bit block on the set, zeros elsewhere
    k = len(sets[0])
    for s, block in enumerate((bits[:k], bits[k:])):
        u = np.zeros(8, dtype=np.int64)
        u[list(sets[0].indices)] = block
        assert np.array_equal(x[s], polar_encode(u))
    assert roundtrip_all_permutations(sch, bits)


def test_degraded_equal_middle_sets_skip_layer():
    sets = [
        InformationSet(8, (1, 3, 5, 6, 7)),
        InformationSet(8, (5, 6, 7)),
        InformationSet(8, (5, 6, 7)),
    ]
    sch = DegradedScheme([NOISELESS] * 3, sets)
    assert sch.layer_indices(1) == []
    rng = np.random.default_rng(7)
    for _ in range(3):
        bits = rng.integers(0, 2, sch.info_bit_count)
        assert roundtrip_all_permutations(sch, bits)


def test_degraded_m2_symbol_layers():
    # GF(4) family: layer widths must be multiples of m
    sets = [InformationSet(8, (2, 3, 4, 5, 6, 7)), InformationSet(8, (4, 5, 6, 7)),
            InformationSet(8, (6, 7))]
    sch = DegradedScheme([NOISELESS] * 3, sets, m=2)
    assert sch.family.kind == "grs"
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, sch.info_bit_count)
    assert roundtrip_all_permutations(sch, bits)


def test_degraded_rejects_m_misalignment():
    with pytest.raises(ValueError, match="multiples"):
        DegradedScheme([NOISELESS] * 2,
                       [InformationSet(8, (3, 5, 6)), InformationSet(8, (6,))],
                       m=2)


def test_degraded_s4_all_24_assignments():
    # four distinct layers over GF(16) symbols, exercising completion at
    # dimensions 1, 2 and 3 (n and set sizes must be multiples of m, so a
    # power-of-two m is the only option beyond the binary family)
    sets = [
        InformationSet(16, tuple(range(0, 16))),
        InformationSet(16, tuple(range(4, 16))),
        InformationSet(16, tuple(range(8, 16))),
        InformationSet(16, tuple(range(12, 16))),
    ]
    sch = DegradedScheme([NOISELESS] * 4, sets, m=4)
    assert sch.family.kind == "grs"
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2, sch.info_bit_count)
    assert roundtrip_all_permutations(sch, bits)


def test_interleaved_s4_all_24_assignments():
    sets = [
        InformationSet(4, (0, 1, 2, 3)),
        InformationSet(4, (1, 2, 3)),
        InformationSet(4, (2, 3)),
        InformationSet(4, (0, 3)),
    ]
    sch = InterleavedScheme([NOISELESS] * 4, sets, m=3)
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2, sch.info_bit_count)
    assert roundtrip_all_permutations(sch, bits)


def test_degraded_rejects_unnested_sets():
    with pytest.raises(ValueError, match="nested"):
        DegradedScheme(
            [NOISELESS] * 2,
            [InformationSet(8, (1, 2)), InformationSet(8, (3,))],
        )


def test_degraded_build_orders_and_verifies():
    chans = [bec(0.1), bec(0.4)]
    sch = DegradedScheme.build(chans, 32, rates=[0.7, 0.4])
    assert len(sch.info_sets[0]) == 22
    assert len(sch.info_sets[1]) == 12
    assert sch.info_sets[1].issubset(sch.info_sets[0])
    with pytest.raises(ConstructionError):
        DegradedScheme.build([bec(0.4), bec(0.1)], 32, rates=[0.4, 0.7])
    with pytest.raises(ConstructionError):
        DegradedScheme.build(
            [bsc(0.11002), bec(0.5)], 32, rates=[0.3, 0.2]
        )


def test_degraded_build_rejects_zero_size_multiple():
    with pytest.raises(ConstructionError, match="at least 1"):
        DegradedScheme.build([bec(0.1), bec(0.4)], 32, m=0, rates=[0.5, 0.3])


def test_degraded_build_surrogate_mode():
    chans = [bec(0.5), bsc(0.11002)]  # Bhattacharyya ascending
    sch = DegradedScheme.build(chans, 32, rates=[0.3, 0.15], surrogate=True)
    assert sch.info_sets[1].issubset(sch.info_sets[0])
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, sch.info_bit_count)
    x = sch.encode(bits)
    # noiseless transport sanity (bits survive both assignments)
    for pi in itertools.permutations(range(2)):
        y = []
        for s in range(2):
            cw = x[pi[s]]
            if chans[s].output_size == 3:
                y.append(cw)  # erasure channel outputs 0/1 pass through
            else:
                y.append(cw)
        assert np.array_equal(sch.decode(y, pi), bits)


# -- interleaved scheme ---------------------------------------------------------


def test_interleaved_all_zero():
    sets = [InformationSet(8, (2, 3, 6, 7)), InformationSet(8, (1, 5, 6, 7))]
    sch = InterleavedScheme([NOISELESS] * 2, sets, m=2)
    x = sch.encode(np.zeros(sch.info_bit_count, dtype=int))
    assert np.count_nonzero(x) == 0


def test_interleaved_noiseless_non_nested_sets():
    sets = [InformationSet(8, (2, 3, 6, 7)), InformationSet(8, (1, 5, 6, 7))]
    sch = InterleavedScheme([NOISELESS] * 2, sets, m=2)
    rng = np.random.default_rng(10)
    for _ in range(5):
        bits = rng.integers(0, 2, sch.info_bit_count)
        assert roundtrip_all_permutations(sch, bits)


def test_interleaved_m1_binary_family():
    sets = [InformationSet(4, (1, 3)), InformationSet(4, (2, 3))]
    sch = InterleavedScheme([NOISELESS] * 2, sets, m=1)
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, sch.info_bit_count)
    assert roundtrip_all_permutations(sch, bits)


def test_interleaved_s3_all_permutations():
    sets = [
        InformationSet(4, (0, 1, 2, 3)),
        InformationSet(4, (1, 3)),
        InformationSet(4, (2, 3)),
    ]
    sch = InterleavedScheme([NOISELESS] * 3, sets, m=2)
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, sch.info_bit_count)
    assert roundtrip_all_permutations(sch, bits)


def test_interleaved_full_overlap_needs_no_completion():
    sets = [InformationSet(4, (2, 3)), InformationSet(4, (2, 3))]
    sch = InterleavedScheme([NOISELESS] * 2, sets, m=2)
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, sch.info_bit_count)
    assert roundtrip_all_permutations(sch, bits)


def test_interleaved_encoder_linearity():
    sets = [InformationSet(8, (2, 3, 6, 7)), InformationSet(8, (1, 5, 6, 7))]
    sch = InterleavedScheme([NOISELESS] * 2, sets, m=2)
    rng = np.random.default_rng(14)
    a = rng.integers(0, 2, sch.info_bit_count)
    b = rng.integers(0, 2, sch.info_bit_count)
    assert np.array_equal(sch.encode(a ^ b), sch.encode(a) ^ sch.encode(b))


# -- symbol-level scheme ---------------------------------------------------------


def test_nonbinary_m1_reduces_to_binary_codes():
    sets = [InformationSet(4, (1, 3)), InformationSet(4, (2, 3))]
    sch = NonBinaryScheme([NOISELESS] * 2, sets, m=1)
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2, sch.info_bit_count)
    assert sch.uses_per_channel == 4
    assert roundtrip_all_permutations(sch, bits)


def test_nonbinary_noiseless_all_permutations_m2():
    sets = [InformationSet(4, (1, 3)), InformationSet(4, (2, 3))]
    sch = NonBinaryScheme([NOISELESS] * 2, sets, m=2)
    rng = np.random.default_rng(16)
    for _ in range(5):
        bits = rng.integers(0, 2, sch.info_bit_count)
        assert roundtrip_all_permutations(sch, bits)


def test_nonbinary_encoder_linearity():
    sets = [InformationSet(4, (1, 3)), InformationSet(4, (2, 3))]
    sch = NonBinaryScheme([NOISELESS] * 2, sets, m=2)
    rng = np.random.default_rng(17)
    a = rng.integers(0, 2, sch.info_bit_count)
    b = rng.integers(0, 2, sch.info_bit_count)
    assert np.array_equal(sch.encode(a ^ b), sch.encode(a) ^ sch.encode(b))


def test_nonbinary_build_uses_symbol_reliability():
    chans = [bsc(0.11002), bec(0.5)]
    sch = NonBinaryScheme.build(chans, 16, m=2, rates=[0.25, 0.25])
    assert [len(a) for a in sch.info_sets] == [4, 4]
    assert sch.super_channels[0].input_size == 4


# -- coupled schemes: golden record ------------------------------------------------

# Recorded from the separate InterleavedScheme and NonBinaryScheme
# implementations on BSC 0.11002 + BEC 0.5 at n=64, m=2, rates 1/4: the
# evaluate CSV (300 noisy trials per permutation, seed 2027), and SHA-256
# prefixes of the int64 codewords of 64 seeded messages and of their
# decisions after a noisy transmission under each permutation.  Noisy
# outputs reach likelihood ties (BEC erasures), so the decisions pin the
# tie rule as well as the codes.
GOLDEN = {
    "interleaved": (
        "permutation,n,rate,trials,errors,bler,ci_low,ci_high,seed\n"
        "0-1,128,0.5,300,25,0.08333333333333333,0.057080874056394275,"
        "0.12012160196406074,2027\n"
        "1-0,128,0.5,300,21,0.07,0.046236944827176336,0.10463601042593323,2027\n",
        "b67da7a1299a02d1",
        "36c6b5d3b09767be",
    ),
    "nonbinary": (
        "permutation,n,rate,trials,errors,bler,ci_low,ci_high,seed\n"
        "0-1,128,0.5,300,26,0.08666666666666667,0.05982889751804311,"
        "0.12395595869424827,2027\n"
        "1-0,128,0.5,300,16,0.05333333333333334,0.03309191251909646,"
        "0.08486914177483133,2027\n",
        "5c1986d3a2bdb740",
        "84d6fc92e5f2f77a",
    ),
}


def _digest(a) -> str:
    data = np.ascontiguousarray(a, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("cls", [InterleavedScheme, NonBinaryScheme])
def test_coupled_scheme_matches_golden_record(cls):
    csv, encoded, decided = GOLDEN[cls.kind]
    sch = cls.build([bsc(0.11002), bec(0.5)], 64, m=2, rates=[0.25, 0.25])
    assert reports_to_csv(evaluate(sch, trials=300, master_seed=2027)) == csv
    msgs = np.random.default_rng(7).integers(0, 2, (64, sch.info_bit_count))
    x = sch.encode(msgs)
    assert _digest(x) == encoded
    decisions = []
    for pi in itertools.permutations(range(sch.S)):
        ppc = PermutedParallelChannel(sch.channels, pi)
        y = np.stack([transmit(ppc, x[:, i], 11, i) for i in range(len(msgs))], axis=1)
        decisions.append(sch.decode(list(y), pi))
    assert _digest(np.stack(decisions)) == decided


@pytest.mark.parametrize("cls", [InterleavedScheme, NonBinaryScheme])
def test_coupled_decode_steps_one_decoder_over_the_union(cls, monkeypatch):
    # one decoder for both channels: a decide per index that some set
    # holds, a block inject per run of indices that none holds, and the
    # combines of the decided paths of the union of the sets
    counts = Counter()

    def counted(name, method):
        def call(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return call

    sch = cls.build([bsc(0.11002), bec(0.5)], 64, m=2, rates=[0.25, 0.25])
    msgs = np.random.default_rng(7).integers(0, 2, (4, sch.info_bit_count))
    y = transmit(PermutedParallelChannel(sch.channels, (1, 0)), sch.encode(msgs), 11)
    sch.decode(list(y), (1, 0))  # builds the channels' tables, which are then shared
    for name in ("decide", "inject", "_combine"):
        monkeypatch.setattr(ScDecoder, name, counted(name, getattr(ScDecoder, name)))
    sch.decode(list(y), (1, 0))
    union = sorted(set(sch.info_sets[0].indices) | set(sch.info_sets[1].indices))
    runs = sum(1 for k in range(64) if k not in union and (k == 0 or k - 1 in union))
    # depths 2 to 6: no depth-1 node is combined
    paths = 5 + sum(min((a ^ b).bit_length(), 5) for a, b in zip(union, union[1:]))
    assert len(union) < 32  # the sets overlap
    assert counts == {"decide": len(union), "inject": runs, "_combine": paths}


# Recorded before the MDS codes were rebuilt on one generator-matrix class,
# for DegradedScheme on BEC 0.1/0.3/0.5 at n=64, rates 3/4, 1/2, 3/8: the
# evaluate CSV (200 noisy trials per permutation, seed 2028), and SHA-256
# prefixes of the codewords of 64 seeded messages and of their decisions
# after a noisy transmission under every permutation.  m=1 runs the
# structured GF(2) family, m=2 the GRS family over GF(4).
DEGRADED_GOLDEN = {
    1: (
        "permutation,n,rate,trials,errors,bler,ci_low,ci_high,seed\n"
        "0-1-2,64,1.625,200,51,0.255,0.1996049517203135,0.3196292582045472,2028\n"
        "0-2-1,64,1.625,200,54,0.27,0.21323449814685846,0.33543435198668425,2028\n"
        "1-0-2,64,1.625,200,46,0.23,0.17709343259068805,0.2930830436530359,2028\n"
        "1-2-0,64,1.625,200,54,0.27,0.21323449814685846,0.33543435198668425,2028\n"
        "2-0-1,64,1.625,200,50,0.25,0.19508168006817497,0.31434098312045833,2028\n"
        "2-1-0,64,1.625,200,53,0.265,0.2086815414710911,0.3301757619262242,2028\n",
        "1fb6dcb5999fe604",
        "63c2c03eb720cf32",
    ),
    2: (
        "permutation,n,rate,trials,errors,bler,ci_low,ci_high,seed\n"
        "0-1-2,64,1.625,200,51,0.255,0.1996049517203135,0.3196292582045472,2028\n"
        "0-2-1,64,1.625,200,51,0.255,0.1996049517203135,0.3196292582045472,2028\n"
        "1-0-2,64,1.625,200,46,0.23,0.17709343259068805,0.2930830436530359,2028\n"
        "1-2-0,64,1.625,200,51,0.255,0.1996049517203135,0.3196292582045472,2028\n"
        "2-0-1,64,1.625,200,50,0.25,0.19508168006817497,0.31434098312045833,2028\n"
        "2-1-0,64,1.625,200,53,0.265,0.2086815414710911,0.3301757619262242,2028\n",
        "751e84f5c9e8fb86",
        "7a8680c20672f592",
    ),
}


def _stages_reference(sch, y, pi):
    """u[label] from decoding stage by stage with public calls: channel s
    list-decodes (L = 1) with b, and each earlier layer completed in the
    family code from the decisions of the stages before it."""
    batch, n = y.shape[1], sch.n
    frozen = np.setdiff1d(np.arange(n), sch.info_sets[0].indices)
    u = np.zeros((sch.S, batch, n), dtype=np.int64)
    for s in range(sch.S):
        idx = sch.layer_indices(s - 1) if s else []
        if idx:
            known = np.stack([u[pi[t]][:, idx] for t in range(s)], axis=-1)
            full = sch.family.code(s).complete_batch(pi[:s], known)
            for t in range(s, sch.S):
                u[pi[t]][:, idx] = full[..., pi[t]]
        values = np.zeros((batch, n), dtype=np.int64)
        values[:, frozen] = sch.b
        for j in range(s):
            values[:, sch.layer_indices(j)] = u[pi[s]][:, sch.layer_indices(j)]
        u[pi[s]] = list_decode(sch.channels[s], y[s], sch.info_sets[s], values, 1)
    return u


@pytest.mark.parametrize(
    "channels, rates",
    [
        ([bsc(0.04), bsc(0.11)], [0.6, 0.4]),
        ([bec(0.1), bec(0.3), bec(0.5)], [0.75, 0.5, 0.375]),
        # GF(2) has no dimension-2 MDS code of length 4: layer 1 stays empty
        ([bec(0.2), bec(0.35), bec(0.4), bec(0.6)], [0.75, 0.5, 0.5, 0.25]),
    ],
)
def test_degraded_walk_equals_stage_by_stage_decoding(channels, rates):
    built = DegradedScheme.build(channels, 64, rates=rates)
    rng = np.random.default_rng(len(channels))
    b = rng.integers(0, 2, 64 - len(built.info_sets[0]))
    sch = DegradedScheme(built.channels, built.info_sets, b=b)
    errors = 0
    for batch in (1, 7):
        msgs = rng.integers(0, 2, (batch, sch.info_bit_count))
        x = sch.encode(msgs)
        for pi in itertools.permutations(range(sch.S)):
            y = transmit(PermutedParallelChannel(sch.channels, pi), x, 13)
            bits = sch.decode(list(y), pi)
            u = _stages_reference(sch, y, pi)
            assert np.array_equal(bits, sch._extract_bits(u))
            # every stage's layers, frozen symbols included
            assert np.array_equal(sch._fill_u(bits) | sch._frozen, u)
            errors += np.count_nonzero((bits != msgs).any(axis=1))
    assert errors  # the comparison covers wrong decisions too


def test_degraded_decode_walks_one_decoder(monkeypatch):
    # a decide per index of sets[0], a block inject per run of indices
    # outside it, the combines of its decided paths, and an amend per
    # index whose symbols some channels complete rather than decide
    counts = Counter()

    def counted(name, method):
        def call(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return call

    sch = DegradedScheme.build(
        [bec(0.1), bec(0.3), bec(0.5)], 64, rates=[0.75, 0.5, 0.375]
    )
    msgs = np.random.default_rng(9).integers(0, 2, (4, sch.info_bit_count))
    y = transmit(PermutedParallelChannel(sch.channels, (2, 0, 1)), sch.encode(msgs), 11)
    sch.decode(list(y), (2, 0, 1))  # builds the channels' tables, which are then shared
    for name in ("__init__", "decide", "inject", "_combine", "amend"):
        monkeypatch.setattr(ScDecoder, name, counted(name, getattr(ScDecoder, name)))
    sch.decode(list(y), (2, 0, 1))
    first = sch.info_sets[0].indices
    runs = sum(1 for k in range(64) if k not in first and (k == 0 or k - 1 in first))
    # depths 2 to 6: no depth-1 node is combined
    paths = 5 + sum(min((a ^ b).bit_length(), 5) for a, b in zip(first, first[1:]))
    assert counts == {
        "__init__": 1,
        "decide": len(first),
        "inject": runs,
        "_combine": paths,
        "amend": len(first) - len(sch.info_sets[-1]),
    }


@pytest.mark.parametrize(
    "build, rows, q",
    [
        (lambda: DegradedScheme.build(
            [bec(0.1), bec(0.3), bec(0.5)], 64, rates=[0.75, 0.5, 0.375]), 3, 2),
        # at capacity, so that wrong decisions are compared too; a decoder
        # row per channel and lane
        (lambda: InterleavedScheme.build(
            [bsc(0.11002), bec(0.5)], 64, m=2, rates=[0.5, 0.5]), 4, 2),
        (lambda: NonBinaryScheme.build(
            [bsc(0.11002), bec(0.5)], 64, m=2, rates=[0.5, 0.5]), 2, 4),
    ],
    ids=["degraded", "interleaved", "nonbinary"],
)
def test_walks_slice_a_large_batch(build, rows, q, monkeypatch):
    # at most DECODER_FLOATS likelihoods (decoder rows x q x n) per walk:
    # 7 messages, in a budget of just over three messages, walk as 3, 3 and 1
    import permpolar.parallel as parallel

    sch = build()
    pi = tuple(np.roll(range(sch.S), -1))
    msgs = np.random.default_rng(10).integers(0, 2, (7, sch.info_bit_count))
    ppc = PermutedParallelChannel(sch.channels, pi)
    y = list(transmit(ppc, sch.encode(msgs), 12))
    whole = sch.decode(y, pi)
    sizes = []
    init = ScDecoder.__init__

    def counted(self, channels, received):
        sizes.append(sum(map(len, received)))
        init(self, channels, received)

    monkeypatch.setattr(ScDecoder, "__init__", counted)
    monkeypatch.setattr(parallel, "DECODER_FLOATS", 3 * rows * q * 64 + 1)
    assert np.array_equal(sch.decode(y, pi), whole)
    assert sizes == [3 * rows, 3 * rows, rows]
    assert (whole != msgs).any()  # the comparison covers wrong decisions too


@pytest.mark.parametrize("m", [1, 2])
def test_degraded_scheme_matches_golden_record(m):
    csv, encoded, decided = DEGRADED_GOLDEN[m]
    sch = DegradedScheme.build(
        [bec(0.1), bec(0.3), bec(0.5)], 64, m=m, rates=[0.75, 0.5, 0.375]
    )
    assert sch.family.kind == ("structured" if m == 1 else "grs")
    assert reports_to_csv(evaluate(sch, trials=200, master_seed=2028)) == csv
    msgs = np.random.default_rng(8).integers(0, 2, (64, sch.info_bit_count))
    x = sch.encode(msgs)
    assert _digest(x) == encoded
    decisions = []
    for pi in itertools.permutations(range(sch.S)):
        ppc = PermutedParallelChannel(sch.channels, pi)
        y = np.stack([transmit(ppc, x[:, i], 12, i) for i in range(len(msgs))], axis=1)
        decisions.append(sch.decode(list(y), pi))
    assert _digest(np.stack(decisions)) == decided


# Recorded before the SC decoder stopped holding its channel likelihoods,
# on the benchmark's two builds at n = 1024, where the decoder's first
# level spans several row tiles: the evaluate CSV at the default chunk
# (200 noisy trials per permutation, seed 2029), and SHA-256 prefixes of
# the codewords of 64 seeded messages and of their decisions after one
# noisy transmission of the batch under every permutation.
LARGE_GOLDEN = {
    "degraded": (
        "permutation,n,rate,trials,errors,bler,ci_low,ci_high,seed\n"
        "0-1-2,1024,1.6494140625,200,6,0.03,0.013820314340111346,0.06389429245451925,2029\n"
        "0-2-1,1024,1.6494140625,200,11,0.055,0.03098534170345884,0.0957869987723084,2029\n"
        "1-0-2,1024,1.6494140625,200,8,0.04,0.020405632066152306,0.07693206820093293,2029\n"
        "1-2-0,1024,1.6494140625,200,7,0.035,0.017055542008567192,0.07047061152229073,2029\n"
        "2-0-1,1024,1.6494140625,200,11,0.055,0.03098534170345884,0.0957869987723084,2029\n"
        "2-1-0,1024,1.6494140625,200,6,0.03,0.013820314340111346,0.06389429245451925,2029\n",
        "1743ec8fab0d9edd",
        "d112756b5234bebe",
    ),
    "nonbinary": (
        "permutation,n,rate,trials,errors,bler,ci_low,ci_high,seed\n"
        "0-1,2048,0.5,200,1,0.005,0.0008831687156009814,0.02777370439789293,2029\n"
        "1-0,2048,0.5,200,0,0.0,1.734723475976807e-18,0.018845326377266575,2029\n",
        "e1b902001eba0699",
        "e5f71a1ad27eb849",
    ),
}


def _large_build(kind):
    if kind == "degraded":
        channels = [bec(0.1), bec(0.3), bec(0.5)]
        rates = [capacity_uniform(c) - 0.15 for c in channels]
        return DegradedScheme.build(channels, 1024, rates=rates)
    return NonBinaryScheme.build([bsc(0.11002), bec(0.5)], 1024, m=2, rates=[0.25, 0.25])


def _large_record(kind):
    sch = _large_build(kind)
    csv = reports_to_csv(evaluate(sch, trials=200, master_seed=2029))
    msgs = np.random.default_rng(9).integers(0, 2, (64, sch.info_bit_count))
    x = sch.encode(msgs)
    decisions = []
    for pi in itertools.permutations(range(sch.S)):
        y = transmit(PermutedParallelChannel(sch.channels, pi), x, 14)
        decisions.append(sch.decode(y, pi))
    return csv, _digest(x), _digest(np.stack(decisions))


@pytest.mark.parametrize("kind", list(LARGE_GOLDEN))
def test_benchmark_builds_match_golden_record(kind):
    assert _large_record(kind) == LARGE_GOLDEN[kind]


# -- shared -----------------------------------------------------------------------


def test_scheme_rate_examples():
    sets = nested_sets_8()
    sch = DegradedScheme([NOISELESS] * 3, sets)
    assert scheme_rate(sch) == pytest.approx((6 + 4 + 2) / 8)
    empty = DegradedScheme(
        [NOISELESS], [InformationSet(4, ())]
    )
    assert scheme_rate(empty) == 0.0
    full = DegradedScheme([NOISELESS], [InformationSet(4, (0, 1, 2, 3))])
    assert scheme_rate(full) == 1.0
    il = InterleavedScheme(
        [NOISELESS] * 2,
        [InformationSet(4, (1, 3)), InformationSet(4, (2, 3))],
        m=2,
    )
    # m cancels: bits / uses = m * |A| / (m * n)
    assert scheme_rate(il) == pytest.approx(1.0)
    assert il.info_bit_count == 8
    assert il.uses_per_channel == 8


def test_decode_validates_pi():
    sch = DegradedScheme([NOISELESS] * 2,
                         [InformationSet(4, (2, 3)), InformationSet(4, (3,))])
    bits = np.zeros(sch.info_bit_count, dtype=int)
    x = sch.encode(bits)
    with pytest.raises(ValueError):
        sch.decode([x[0], x[1]], (0, 0))


@pytest.mark.parametrize("cls", [DegradedScheme, InterleavedScheme, NonBinaryScheme])
@pytest.mark.parametrize(
    "channels, sets, m, message",
    [
        ([], [], 1, "at least one channel"),
        ([NOISELESS], [InformationSet(4, (3,))], 0, "extension degree"),
        ([NOISELESS], [InformationSet(4, (3,))], -1, "extension degree"),
    ],
    ids=["no-channels", "m0", "m-1"],
)
def test_constructors_reject_bad_input(cls, channels, sets, m, message):
    with pytest.raises(ValueError, match=message):
        cls(channels, sets, m=m)


@pytest.mark.parametrize("cls", [DegradedScheme, InterleavedScheme, NonBinaryScheme])
def test_decode_rejects_an_empty_batch(cls):
    sch = cls([NOISELESS] * 2, [InformationSet(4, (2, 3)), InformationSet(4, (3,))], m=1)
    with pytest.raises(ValueError, match="at least one received word"):
        sch.decode(np.zeros((2, 0, sch.uses_per_channel), dtype=int), (1, 0))


@pytest.mark.parametrize("first, second", [(0, 3), (1, -1), (1, 1.5)])
def test_nonbinary_decode_rejects_outputs_outside_a_channels_alphabet(first, second):
    # each pair packs into a valid GF(4) product symbol (3, 1 and, 1.5
    # truncated, 3), so only a check per binary use can catch it; the
    # integral floats around it pass
    sch = NonBinaryScheme.build([bsc(0.1), bsc(0.2)], 8, m=2, rates=[0.5, 0.5])
    y = sch.encode(np.zeros(sch.info_bit_count, dtype=int)).astype(np.float64)
    y[1, 2:4] = first, second  # channel 1's second pair: its second use is bad
    with pytest.raises(ValueError, match="output alphabet" if second % 1 == 0 else "integers"):
        sch.decode(list(y), (0, 1))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
def test_pack_received_returns_narrow_product_outputs(dtype):
    sch = NonBinaryScheme.build([bsc(0.11002), bec(0.5)], 16, m=2, rates=[0.25, 0.25])
    msgs = np.random.default_rng(19).integers(0, 2, (5, sch.info_bit_count))
    y = transmit(PermutedParallelChannel(sch.channels, (1, 0)), sch.encode(msgs), 15)
    for s, ch in enumerate(sch.channels):
        packed = sch.pack_received(y[s].astype(dtype), s)
        assert packed.dtype == np.uint8  # 4 and 9 product outputs
        grouped = y[s].astype(np.int64).reshape(5, 16, 2)
        assert np.array_equal(packed, grouped[..., 0] * ch.output_size + grouped[..., 1])


@pytest.mark.parametrize(
    "kind", ["degraded", "degraded-list", "interleaved", "nonbinary"]
)
def test_manifest_roundtrip(kind):
    rng = np.random.default_rng(18)
    if kind.startswith("degraded"):
        sch = DegradedScheme.build(
            [bec(0.1), bec(0.4)], 16, rates=[0.6, 0.3],
            b=rng.integers(0, 2, 16 - 9),
            list_size=2 if kind == "degraded-list" else 1,
        )
    elif kind == "interleaved":
        sch = InterleavedScheme.build(
            [bsc(0.11002), bec(0.5)], 16, m=2, rates=[0.25, 0.25]
        )
    else:
        sch = NonBinaryScheme.build(
            [bsc(0.11002), bec(0.5)], 16, m=2, rates=[0.25, 0.25]
        )
    manifest = scheme_to_manifest(sch)
    again = scheme_from_manifest(manifest)
    assert scheme_to_manifest(again) == manifest
    assert getattr(again, "list_size", 1) == getattr(sch, "list_size", 1)
    bits = rng.integers(0, 2, sch.info_bit_count)
    assert np.array_equal(sch.encode(bits), again.encode(bits))
    x = sch.encode(bits)
    pi = tuple(reversed(range(sch.S)))
    y = [x[pi[s]] for s in range(sch.S)]
    assert np.array_equal(sch.decode(y, pi), again.decode(y, pi))


def test_manifest_rejects_malformed():
    with pytest.raises(ValueError):
        scheme_from_manifest("scheme degraded\nS 2\n")
    with pytest.raises(ValueError):
        scheme_from_manifest("n 4\nm 1\npoly 0x3\nS 1\nscheme banana\n"
                             "channel bec 0.5\nset 4: 1\n")
    good = "scheme degraded\nS 1\nn 4\nm 1\npoly 0x3\nchannel bec 0.5\nset 4: 3\nb 000\n"
    assert scheme_from_manifest(good + "list 2\n").list_size == 2
    for bad in ("lsit 2\n", "channel bec 0.5 7\n"):
        with pytest.raises(ValueError):
            scheme_from_manifest(good + bad)
    coupled = scheme_to_manifest(
        InterleavedScheme.build([bsc(0.11002), bec(0.5)], 8, m=2, rates=[0.25, 0.25])
    )
    assert scheme_from_manifest(coupled + "list 1\n").kind == "interleaved"
    with pytest.raises(ValueError, match="frozen vector"):
        scheme_from_manifest(coupled + "b 0101\n")


# Written by scheme_to_manifest before channels had one text form.
CHANNEL_LINES = [
    (bec(0.1), "channel bec 0.1"),
    (bsc(0.11002), "channel bsc 0.11002"),
    (q_ary_symmetric(4, 0.05), "channel matrix 4 4 " + " ".join(
        "0.95" if i % 5 == 0 else "0.016666666666666666" for i in range(16))),
    (channel_plus(bec(0.3)), "channel matrix 2 18 "
     "0.24499999999999997 0.0 0.0 0.0 0.105 0.0 0.0 0.24499999999999997 0.0 0.0 "
     "0.0 0.105 0.105 0.105 0.0 0.0 0.045 0.045 0.0 0.0 0.0 0.24499999999999997 "
     "0.0 0.105 0.0 0.0 0.24499999999999997 0.0 0.105 0.0 0.0 0.0 0.105 0.105 "
     "0.045 0.045"),
]


@pytest.mark.parametrize("ch, line", CHANNEL_LINES, ids=["bec", "bsc", "qsc", "plus"])
def test_manifest_channel_lines_are_pinned(ch, line):
    manifest = scheme_to_manifest(DegradedScheme([ch], [InformationSet(2, (1,))]))
    assert [ln for ln in manifest.splitlines() if ln.startswith("channel")] == [line]
    assert scheme_from_manifest(manifest).channels == (ch,)
