"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured values they rest on.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from permpolar.channel import (
    bec,
    bhattacharyya,
    bsc,
    capacity_uniform,
    is_degraded,
    q_ary_symmetric,
)
from permpolar.cli import main as cli_main
from permpolar.compound import (
    capacity_ascending,
    compound_lower_bound,
    parallel_rate_upper,
)
from permpolar.gf import FieldSpec
from permpolar.mds import GrsCode
from permpolar.parallel import (
    DegradedScheme,
    InterleavedScheme,
    NonBinaryScheme,
)
from permpolar.polar import (
    InformationSet,
    bec_split_bhattacharyya,
    error_event_probability,
    list_decode,
    monotone_info_sets,
    polar_encode,
    split_channel_exact,
)
from permpolar.simrunner import evaluate


def report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


# -- criterion 1: SC decisions match the exhaustive split-channel argmax ------


def _oracle_trajectory_bec_counting(n, y):
    """Exact successive argmax for the half-erasure channel: every
    compatible input vector has identical likelihood, so subset counting
    is the exact oracle."""
    u_all = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    x_all = polar_encode(u_all)
    y = np.asarray(y)
    data = y != 2
    compatible = np.all(x_all[:, data] == y[data], axis=1)
    decisions = []
    alive = compatible.copy()
    for l in range(n):
        c0 = int(np.count_nonzero(alive & (u_all[:, l] == 0)))
        c1 = int(np.count_nonzero(alive & (u_all[:, l] == 1)))
        d = 0 if c0 >= c1 else 1
        decisions.append(d)
        alive &= u_all[:, l] == d
    return decisions


def _oracle_trajectory_fraction(ch, n, y):
    """Exact successive argmax by direct rational summation."""
    wf = [[Fraction(p) for p in row] for row in ch.transitions]
    u_all = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    x_all = polar_encode(u_all)
    probs = []
    for row in x_all:
        p = Fraction(1)
        for t in range(n):
            p *= wf[row[t]][y[t]]
        probs.append(p)
    decisions = []
    alive = np.ones(len(u_all), dtype=bool)
    for l in range(n):
        s0 = sum(p for p, a, u in zip(probs, alive, u_all) if a and u[l] == 0)
        s1 = sum(p for p, a, u in zip(probs, alive, u_all) if a and u[l] == 1)
        d = 0 if s0 >= s1 else 1
        decisions.append(d)
        alive &= u_all[:, l] == d
    return decisions


def test_criterion_01_sc_equals_exhaustive_argmax():
    started = time.monotonic()
    for n in (2, 4, 8):
        full = InformationSet(n, tuple(range(n)))
        ch = bec(0.5)
        for y in itertools.product(range(3), repeat=n):
            lib = list_decode(ch, np.array(y), full, 0, exact=True)[0]
            ref = _oracle_trajectory_bec_counting(n, y)
            assert np.array_equal(lib, ref), f"BEC mismatch at n={n}, y={y}"
        ch = bsc(0.1)
        for y in itertools.product(range(2), repeat=n):
            lib = list_decode(ch, np.array(y), full, 0, exact=True)[0]
            ref = _oracle_trajectory_fraction(ch, n, y)
            assert np.array_equal(lib, ref), f"BSC mismatch at n={n}, y={y}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(1, f"SC = exhaustive argmax on every vector, n in (2,4,8) "
              f"({elapsed:.1f}s)")


# -- criterion 2: erasure recursion vs exact synthesis ------------------------


def test_criterion_02_bec_recursion_exact():
    worst = 0.0
    for eps in (0.1, 0.3, 0.5):
        for n in (2, 4, 8, 16):
            z = bec_split_bhattacharyya(eps, n)
            for l in range(n):
                zx = bhattacharyya(split_channel_exact(bec(eps), n, l))
                worst = max(worst, abs(z[l] - zx))
    assert worst <= 1e-12
    report(2, f"erasure recursion matches synthesis to {worst:.2e} <= 1e-12")


# -- criterion 3: degradation survives splitting ------------------------------


def test_criterion_03_split_degradation_witnesses():
    better, worse = bec(0.1), bec(0.3)
    worst_residual = 0.0
    for n in (2, 4, 8):
        for l in range(n):
            sp_b = split_channel_exact(better, n, l)
            sp_w = split_channel_exact(worse, n, l)
            d = is_degraded(sp_b, sp_w)
            assert d is not None, f"no witness at n={n}, l={l}"
            residual = float(
                np.max(np.abs(sp_b.transitions @ d - sp_w.transitions))
            )
            worst_residual = max(worst_residual, residual)
    assert worst_residual <= 1e-9
    report(3, f"split degradation witnesses, residual <= {worst_residual:.2e}")


# -- criterion 4: nested sets -------------------------------------------------


def test_criterion_04_monotone_sets_nested():
    lists = [
        [bec(0.1), bec(0.3), bec(0.5)],
        [bec(0.05), bec(0.2), bec(0.4), bec(0.6)],
    ]
    checked = 0
    for channels in lists:
        for n in (64, 512, 4096):
            for thr in (0.1, 0.01):
                sets = monotone_info_sets(channels, n, threshold=thr)
                for worse, better in zip(sets[1:], sets[:-1]):
                    assert worse.issubset(better)
                    checked += 1
    report(4, f"nesting holds across {checked} adjacent pairs up to n=4096")


# -- criterion 5: MDS completion from every position subset -------------------


def test_criterion_05_mds_completion_everywhere():
    cases = 0
    for m in (2, 3, 4):
        spec = FieldSpec(m)
        q = spec.q
        max_k = 1
        while q ** (max_k + 1) <= 4096:
            max_k += 1
        for length in range(2, q):
            for dim in range(1, min(length, max_k) + 1):
                code = GrsCode(spec, length, dim)
                msgs = np.array(
                    list(itertools.product(range(q), repeat=dim)),
                    dtype=np.int64,
                )
                words = code.encode(msgs)
                for subset in itertools.combinations(range(length), dim):
                    rebuilt = code.complete_batch(subset, words[:, list(subset)])
                    assert np.array_equal(rebuilt, words)
                    cases += 1
    report(5, f"completion reproduced all codewords over {cases} "
              "(code, subset) pairs")


# -- criterion 6: three-channel decoding order --------------------------------


def test_criterion_06_three_channel_stage_quantities():
    noiseless = bsc(0.0)
    sets = [
        InformationSet(8, (1, 3, 4, 5, 6, 7)),
        InformationSet(8, (3, 5, 6, 7)),
        InformationSet(8, (6, 7)),
    ]
    sch = DegradedScheme([noiseless] * 3, sets)
    rng = np.random.default_rng(2026)
    bits = rng.integers(0, 2, sch.info_bit_count)
    u = sch._fill_u(bits[None])
    x = sch.encode(bits)
    for pi in itertools.permutations(range(3)):
        y = [x[pi[s]] for s in range(3)]
        assert np.array_equal(sch.decode(y, pi), bits)
    # explicit row: codeword 2 on the best channel, 3 on the middle one,
    # 1 on the worst (0-based labels 1, 2, 0)
    pi = (1, 2, 0)
    y = [x[pi[s]] for s in range(3)]
    decoded = sch.decode(y, pi)
    assert np.array_equal(decoded, bits)
    # stage s works on codeword pi[s]; its layers are read from the
    # transform inputs that the decoded bits fill
    got = sch._fill_u(decoded[None]) | sch._frozen
    l0, l1, l2 = (sch.layer_indices(j) for j in range(3))
    # stage 1 decodes the second codeword's plain bits and the shared tail
    st = got[pi[0]][0]
    assert pi[0] == 1
    assert np.array_equal(st[l2], u[1][0][l2])
    assert np.array_equal(st[l1], u[1][0][l1])
    assert np.array_equal(st[l0], u[1][0][l0])
    assert np.array_equal(st[l0], u[0][0][l0])  # shared tail
    # stage 2 reuses the shared tail and decodes the parity combination
    st = got[pi[1]][0]
    assert pi[1] == 2
    assert np.array_equal(st[l0], u[0][0][l0])
    assert np.array_equal(st[l2], u[2][0][l2])
    assert np.array_equal(st[l1], u[0][0][l1] ^ u[1][0][l1])
    # stage 3 recovers the first codeword's middle layer by cancelling the
    # parity, then decodes its remaining plain bits
    st = got[pi[2]][0]
    assert pi[2] == 0
    assert np.array_equal(st[l1], u[0][0][l1])
    assert np.array_equal(st[l2], u[0][0][l2])
    report(6, "stage-by-stage decoded quantities match the three-channel "
              "schedule for assignment (x2,x3,x1)")


# -- criterion 7: permutation obliviousness at scale --------------------------


@pytest.mark.slow
def test_criterion_07_degraded_bler_all_permutations():
    channels = [bec(0.1), bec(0.3), bec(0.5)]
    rates = [capacity_uniform(c) - 0.15 for c in channels]
    sch = DegradedScheme.build(channels, 1024, rates=rates, list_size=2)
    started = time.monotonic()
    reports = evaluate(sch, permutations="all", trials=10_000,
                       master_seed=20260809)
    elapsed = time.monotonic() - started
    blers = {r.permutation: r.bler for r in reports}
    print(f"criterion 7 measured BLERs ({elapsed:.0f}s): {blers}")
    assert elapsed < 600.0
    spread = max(blers.values()) - min(blers.values())
    print(f"criterion 7 spread across permutations: {spread:.4f}")
    for perm, value in blers.items():
        assert value < 1e-2, (
            f"BLER {value} at permutation {perm} exceeds the 1e-2 bound "
            f"with successive cancellation list decoding at L={sch.list_size}"
        )
    report(7, f"BLER < 1e-2 on all 6 permutations ({elapsed:.0f}s)")


# -- criterion 8: rate approach and reliability at n = 2^14 -------------------


@pytest.mark.slow
def test_criterion_08_capacity_approach():
    channels = [bec(0.1), bec(0.3), bec(0.5)]
    cap_sum = sum(capacity_uniform(c) for c in channels)
    rates = [capacity_uniform(c) - 0.05 for c in channels]
    sch = DegradedScheme.build(channels, 2**14, rates=rates, list_size=4)
    rate = sch.rate()
    print(f"criterion 8 scheme_rate = {rate:.6f} (capacity sum {cap_sum:.2f})")
    assert rate >= 1.93
    reports = evaluate(sch, permutations=[(1, 2, 0)], trials=1000,
                       master_seed=31337)
    bler = reports[0].bler
    print(f"criterion 8 measured BLER at n=2^14: {bler}")
    assert bler < 1e-1, (
        f"BLER {bler} exceeds the 1e-1 bound with successive "
        f"cancellation list decoding at L={sch.list_size}"
    )
    report(8, f"rate {rate:.4f} >= 1.93 and BLER {bler} < 1e-1")


# -- criterion 9: non-degraded pair -------------------------------------------


def test_criterion_09_non_degraded_pair():
    channels = [bsc(0.11002), bec(0.5)]
    for c in channels:
        assert abs(capacity_uniform(c) - 0.5) <= 1e-3
    rng = np.random.default_rng(99)
    # noiseless round trips at short lengths for both schemes
    noiseless = bsc(0.0)
    for n in (8, 16):
        sets = [
            InformationSet(n, tuple(range(1, n, 2))),
            InformationSet(n, tuple(range(n // 2, n))),
        ]
        for scheme in (
            InterleavedScheme([noiseless] * 2, sets, m=2),
            NonBinaryScheme([noiseless] * 2, sets, m=2),
        ):
            bits = rng.integers(0, 2, scheme.info_bit_count)
            x = scheme.encode(bits)
            for pi in itertools.permutations(range(2)):
                y = [x[pi[s]] for s in range(2)]
                assert np.array_equal(scheme.decode(y, pi), bits)
    # measured reliability at n = 2^10, per-channel rate 0.25
    il = InterleavedScheme.build(channels, 1024, m=2, rates=[0.25, 0.25])
    nb = NonBinaryScheme.build(channels, 1024, m=2, rates=[0.25, 0.25])
    for name, scheme in (("interleaved", il), ("symbol-level", nb)):
        reports = evaluate(scheme, permutations="all", trials=1000,
                           master_seed=4242)
        blers = {r.permutation: r.bler for r in reports}
        print(f"criterion 9 {name} BLERs: {blers}")
        for perm, value in blers.items():
            assert value < 1e-1, f"{name} BLER {value} at {perm}"
    report(9, "both schemes: exact short-length round trips and BLER < 1e-1 "
              "at n=2^10")


# -- criterion 10: compound bounds --------------------------------------------


def test_criterion_10_compound_bounds():
    low = compound_lower_bound([bec(0.3), bec(0.6)], 1, merge_tol=0.0)
    assert low == pytest.approx(0.4, abs=1e-12)
    ordered = capacity_ascending([bsc(0.11002), bec(0.5)])
    upper = parallel_rate_upper(ordered, 4, merge_tol=0.0)
    print(f"criterion 10 depth-4 upper bound: {upper:.6f}")
    assert upper < 1.0
    assert upper < 0.999  # strict separation, not a float accident
    report(10, f"pair lower bound 0.4 exact; depth-4 upper bound "
               f"{upper:.4f} < 1.0")


# -- criterion 11: decision-error probabilities ignore the message ------------


def test_criterion_11_message_independence():
    ch = bsc(0.1)
    for l in (0, 1):
        base = error_event_probability(ch, 2, l, 1, [0, 0])
        for u in itertools.product(range(2), repeat=2):
            p = error_event_probability(ch, 2, l, 1, list(u))
            assert abs(p - base) <= 1e-12
            assert p == base  # rational evaluation makes them identical
    ch4 = q_ary_symmetric(4, 0.1)
    for d in (1, 2, 3):
        for l in (0, 1):
            base = error_event_probability(ch4, 2, l, d, [0, 0])
            for u in itertools.product(range(4), repeat=2):
                p = error_event_probability(ch4, 2, l, d, list(u))
                assert abs(p - base) <= 1e-12
                assert p == base
    report(11, "error-event probabilities constant over all inputs, "
               "binary and GF(4), every nonzero offset")


# -- criterion 12: byte-identical simulation output ---------------------------


def test_criterion_12_simulation_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scheme = degraded\n"
        "channels = bec:0.2 bec:0.45\n"
        "n = 64\n"
        "rates = 0.55 0.3\n"
        "trials = 300\n"
        "seed = 777\n"
        "permutations = all\n"
    )
    man = tmp_path / "scheme.txt"
    assert cli_main(["construct", "--config", str(cfg), "--out", str(man)]) == 0
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / f"{name}.csv"
        code = cli_main(
            [
                "simulate", "--config", str(cfg), "--manifest", str(man),
                "--out", str(out), "--workers", str(workers),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") == 3
    report(12, "CSV byte-identical across reruns and 1 vs 3 workers")
