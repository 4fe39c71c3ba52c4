import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import permpolar.channel
from permpolar.channel import (
    DiscreteChannel,
    ResourceLimitError,
    bec,
    bhattacharyya,
    bhattacharyya_qary,
    bsc,
    capacity_uniform,
    channel_from_text,
    channel_to_text,
    check_symmetry,
    is_bec_like,
    is_degraded,
    merge_outputs,
    product_power,
    q_ary_symmetric,
)
from permpolar.polar import channel_plus, split_channel_exact

SRC = Path(__file__).resolve().parent.parent / "src"


def test_constructor_validation():
    with pytest.raises(ValueError):
        bec(1.5)
    with pytest.raises(ValueError):
        bsc(-0.1)
    with pytest.raises(ValueError):
        DiscreteChannel(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        DiscreteChannel(np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError):
        DiscreteChannel(np.array([[np.nan, np.nan], [0.5, 0.5]]))


def test_bec_capacity_and_bhattacharyya():
    assert capacity_uniform(bec(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert capacity_uniform(bec(0.5)) == pytest.approx(0.5, abs=1e-12)
    for eps in (0.0, 0.1, 0.37, 1.0):
        assert bhattacharyya(bec(eps)) == pytest.approx(eps, abs=1e-12)
        assert capacity_uniform(bec(eps)) == pytest.approx(1 - eps, abs=1e-12)


def test_bsc_reference_point():
    ch = bsc(0.11002)
    # 2 sqrt(p (1-p)) oracle
    assert bhattacharyya(ch) == pytest.approx(
        2 * math.sqrt(0.11002 * 0.88998), abs=1e-15
    )
    assert capacity_uniform(ch) == pytest.approx(0.5, abs=1e-3)


def test_capacity_degenerate_cases():
    useless = DiscreteChannel(np.array([[0.3, 0.7], [0.3, 0.7]]))
    assert capacity_uniform(useless) == pytest.approx(0.0, abs=1e-12)
    assert bhattacharyya(useless) == pytest.approx(1.0, abs=1e-12)
    assert bhattacharyya(bsc(0.0)) == 0.0


def test_capacity_matches_closed_form_bsc():
    for p in (0.05, 0.2, 0.45):
        h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert capacity_uniform(bsc(p)) == pytest.approx(1 - h, abs=1e-12)


def test_degradation_bec_pair():
    d = is_degraded(bec(0.1), bec(0.3))
    assert d is not None
    residual = np.max(np.abs(bec(0.1).transitions @ d - bec(0.3).transitions))
    assert residual <= 1e-9
    # rows stochastic
    assert np.allclose(d.sum(axis=1), 1.0, atol=1e-9)


def test_degradation_self_witness():
    for ch in (bec(0.25), bsc(0.2), q_ary_symmetric(4, 0.1)):
        d = is_degraded(ch, ch)
        assert d is not None
        assert np.max(np.abs(ch.transitions @ d - ch.transitions)) <= 1e-9


def test_degradation_absent_between_equal_capacity_pair():
    assert is_degraded(bec(0.5), bsc(0.11002)) is None
    assert is_degraded(bsc(0.11002), bec(0.5)) is None


def test_degradation_implies_capacity_order():
    pairs = [(bec(0.1), bec(0.4)), (bsc(0.05), bsc(0.2)), (bec(0.2), bec(0.2))]
    for better, worse in pairs:
        assert is_degraded(better, worse) is not None
        assert capacity_uniform(worse) <= capacity_uniform(better) + 1e-9


def test_bsc_from_bec_needs_quarter_crossover():
    # erasure rate 0.5 supports crossover 0.25 but nothing cleaner
    assert is_degraded(bec(0.5), bsc(0.25)) is not None
    assert is_degraded(bec(0.5), bsc(0.2)) is None


def _erasure_layouts(eps):
    """Erasure-like channels of erasure probability eps in several layouts."""
    t = bec(eps).transitions
    yield bec(eps)
    yield DiscreteChannel(t[:, [2, 0, 1]])
    yield DiscreteChannel(np.column_stack([t[:, :2], 0.3 * t[:, 2:], 0.7 * t[:, 2:]]))
    yield channel_plus(bec(eps))  # 18 outputs, unmerged


def test_erasure_degradation_matches_lp(monkeypatch):
    lp_witness = permpolar.channel._lp_witness

    def no_lp(*args):
        raise AssertionError("an erasure pair reached the LP")

    monkeypatch.setattr(permpolar.channel, "_lp_witness", no_lp)
    grid = (0.0, 0.1, 0.3, 0.5, 0.9, 1.0)
    layouts = [ch for eps in grid for ch in _erasure_layouts(eps)]
    layouts += [bsc(0.0), bsc(0.5)]
    splits = [split_channel_exact(bec(eps), 4, l) for eps in grid for l in range(4)]
    pairs = [
        *itertools.product(layouts, repeat=2), *itertools.product(splits, repeat=2)
    ]
    checked = 0
    for p1, p2 in pairs:
        assert is_bec_like(p1) is not None and is_bec_like(p2) is not None
        d = is_degraded(p1, p2)
        assert (d is None) == (lp_witness(p1, p2, 1e-9) is None)
        if d is not None:
            assert np.all(d >= 0)
            assert np.max(np.abs(d.sum(axis=1) - 1.0)) <= 1e-12
            assert np.max(np.abs(p1.transitions @ d - p2.transitions)) <= 1e-9
            checked += 1
    assert checked > len(pairs) // 3


def _loads_lp(code):
    code = "import sys\n" + code + "\nprint('scipy.optimize' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return out.stdout.split()[-1] == "True"


def test_only_non_erasure_degradation_loads_the_lp_solver():
    assert not _loads_lp(
        "import permpolar.cli\n"
        "from permpolar import DegradedScheme, NonBinaryScheme, bec, bsc\n"
        "DegradedScheme.build([bec(0.1), bec(0.3), bec(0.5)], 64,"
        " rates=[0.6, 0.4, 0.2])\n"
        "NonBinaryScheme.build([bsc(0.11002), bec(0.5)], 16, m=2, rates=[0.25, 0.25])"
    )
    assert _loads_lp(
        "from permpolar import DegradedScheme, bsc\n"
        "DegradedScheme.build([bsc(0.05), bsc(0.2)], 64, rates=[0.5, 0.2])"
    )


def test_symmetry_witness_bsc():
    w = check_symmetry(bsc(0.1))
    assert w is not None
    assert np.array_equal(w.table, [1, 0])


def test_symmetry_witness_bec():
    w = check_symmetry(bec(0.3))
    assert w is not None
    # swaps the two data outputs, fixes the erasure
    assert np.array_equal(w.table, [1, 0, 2])


def test_symmetry_witness_qary():
    ch = q_ary_symmetric(4, 0.3)
    w = check_symmetry(ch)
    assert w is not None
    assert w.q == 4
    # additive structure: T(y, d) = y xor d
    for y in range(4):
        for d in range(4):
            assert w.table[y, d] == y ^ d


def test_symmetry_absent():
    ch = DiscreteChannel(np.array([[0.7, 0.2, 0.1], [0.2, 0.1, 0.7]]))
    assert check_symmetry(ch) is None


def test_product_power_identity_and_bec():
    ch = bec(0.4)
    assert product_power(ch, 1) == ch
    p2 = product_power(ch, 2)
    assert p2.input_size == 4
    assert p2.output_size == 9
    # symbol known exactly when no component erased
    known = (1 - 0.4) ** 2
    t = p2.transitions
    for x in range(4):
        mass = sum(t[x, y] for y in range(9) if t[x, y] > 0 and
                   all(t[xx, y] == 0 for xx in range(4) if xx != x))
        assert mass == pytest.approx(known, abs=1e-12)


def test_product_power_noiseless_capacity():
    for m in (1, 2, 3):
        ch = product_power(bsc(0.0), m)
        assert capacity_uniform(ch) == pytest.approx(m, abs=1e-9)


def test_product_power_cap():
    with pytest.raises(ResourceLimitError):
        product_power(bec(0.5), 20, cap=1 << 10)


def test_merge_outputs_exact():
    t = np.array([[0.25, 0.25, 0.4, 0.1], [0.25, 0.25, 0.1, 0.4]])
    ch = DiscreteChannel(t)
    merged = merge_outputs(ch, 0.0)
    assert merged.output_size == 3
    assert capacity_uniform(merged) == pytest.approx(
        capacity_uniform(ch), abs=1e-12
    )
    assert bhattacharyya(merged) == pytest.approx(bhattacharyya(ch), abs=1e-12)


def test_merge_outputs_bec_three_classes():
    for tol in (0.0, 1e-6, 1e-3):
        merged = merge_outputs(bec(0.3), tol)
        assert merged.output_size == 3


def test_merge_never_increases_capacity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = rng.random((2, 6))
        t /= t.sum(axis=1, keepdims=True)
        ch = DiscreteChannel(t)
        merged = merge_outputs(ch, 0.05)
        assert capacity_uniform(merged) <= capacity_uniform(ch) + 1e-12


def test_invariance_under_output_permutation():
    rng = np.random.default_rng(2)
    t = rng.random((2, 5))
    t /= t.sum(axis=1, keepdims=True)
    ch = DiscreteChannel(t)
    perm = rng.permutation(5)
    ch_p = DiscreteChannel(t[:, perm])
    assert bhattacharyya(ch_p) == pytest.approx(bhattacharyya(ch), abs=1e-12)
    assert capacity_uniform(ch_p) == pytest.approx(
        capacity_uniform(ch), abs=1e-12
    )


def test_qary_bhattacharyya_diagnostic():
    ch = q_ary_symmetric(4, 0.3)
    v = bhattacharyya_qary(ch)
    assert 0.0 < v < 1.0
    with pytest.raises(ValueError):
        bhattacharyya(ch)


def test_is_bec_like():
    assert is_bec_like(bec(0.35)) == pytest.approx(0.35, abs=1e-12)
    assert is_bec_like(bsc(0.1)) is None
    # permuted output order still detected
    t = bec(0.2).transitions[:, [2, 0, 1]]
    assert is_bec_like(DiscreteChannel(t)) == pytest.approx(0.2, abs=1e-12)


def test_text_roundtrip():
    for ch in (bec(0.123456789012), bsc(0.37), q_ary_symmetric(4, 0.05)):
        text = channel_to_text(ch)
        back = channel_from_text(text)
        assert back == ch
    with pytest.raises(ValueError):
        channel_from_text("banana")
    with pytest.raises(ValueError):
        channel_from_text("2 2\n0.5 0.5\n")
    # the older layout reads, and a manifest's descriptor is the same text
    assert channel_from_text("2 2\n0.9 0.1\n0.1 0.9\n") == bsc(0.1)
    assert channel_from_text(" qsc 4\n0.05 ") == q_ary_symmetric(4, 0.05)
    assert channel_to_text(bec(0.25)) == "bec 0.25"
    for bad in ("bec 0.1 7", "bsc", "qsc 4", "matrix 2", "matrix 2 2 1 0 0",
                "2 2\n0.9 0.1\n0.1 0.8 0.1\n", "matrix 1 2 nan nan", "warp 0.1"):
        with pytest.raises(ValueError):
            channel_from_text(bad)


def test_text_roundtrip_random_channels():
    # a row normalised once need not survive a second normalisation, so a
    # channel reads back as itself only if its written rows are kept
    rng = np.random.default_rng(14)
    channels = [bec(e) for e in rng.random(50)] + [bsc(p) for p in rng.random(50)]
    for _ in range(1000):
        t = rng.random((rng.choice([2, 3, 4]), rng.integers(1, 8))) ** 3
        channels.append(DiscreteChannel(t / t.sum(axis=1, keepdims=True)))
    channels += [channel_plus(bec(0.3)), q_ary_symmetric(4, 0.05), bsc(0.0), bec(1.0)]
    for ch in channels:
        text = channel_to_text(ch)
        assert "\n" not in text
        back = channel_from_text(text)
        assert back == ch and channel_to_text(back) == text
