import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from permpolar.channel import bec, bsc, capacity_uniform
from permpolar.parallel import (
    ConstructionError,
    DegradedScheme,
    InterleavedScheme,
    NonBinaryScheme,
    scheme_from_manifest,
    scheme_rate,
    scheme_to_manifest,
)
from permpolar.polar import InformationSet, ScDecoder, polar_encode
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
    decoded, records = sch.decode(y, pi, trace=True)
    assert np.array_equal(decoded, bits)
    for rec in records:
        label = rec.codeword
        for j, vals in rec.decoded_layers.items():
            assert np.array_equal(vals[0], u[label][0][sch.layer_indices(j)])
        for j, vals in rec.resolved_layers.items():
            assert np.array_equal(vals[0], u[label][0][sch.layer_indices(j)])


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

    for name in ("decide", "inject", "_combine"):
        monkeypatch.setattr(ScDecoder, name, counted(name, getattr(ScDecoder, name)))
    sch = cls.build([bsc(0.11002), bec(0.5)], 64, m=2, rates=[0.25, 0.25])
    msgs = np.random.default_rng(7).integers(0, 2, (4, sch.info_bit_count))
    y = transmit(PermutedParallelChannel(sch.channels, (1, 0)), sch.encode(msgs), 11)
    sch.decode(list(y), (1, 0))
    union = sorted(set(sch.info_sets[0].indices) | set(sch.info_sets[1].indices))
    runs = sum(1 for k in range(64) if k not in union and (k == 0 or k - 1 in union))
    paths = 6 + sum((a ^ b).bit_length() for a, b in zip(union, union[1:]))
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
