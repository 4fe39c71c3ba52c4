"""Successive cancellation list decoding of stages with known frozen values."""

import hashlib
import itertools

import numpy as np
import pytest

from permpolar.channel import DiscreteChannel, bec, bsc, product_power
from permpolar.parallel import (
    DegradedScheme,
    InterleavedScheme,
    scheme_from_manifest,
    scheme_to_manifest,
)
from permpolar.polar import (
    InformationSet,
    ScDecoder,
    bec_split_bhattacharyya,
    list_decode,
    polar_encode,
)
from permpolar.simrunner import evaluate, reports_to_csv

NOISELESS = bsc(0.0)
# binary input, four outputs: two certain, two noisy
MIXED = DiscreteChannel(np.array([[0.6, 0.25, 0.15, 0.0], [0.0, 0.15, 0.25, 0.6]]))


def random_stage(rng, n, k):
    info = InformationSet(n, tuple(sorted(rng.choice(n, k, replace=False))))
    frozen = rng.integers(0, 2, n)
    return info, frozen


def send(rng, ch, x):
    """One channel output per use, drawn from the transition rows."""
    cdf = np.cumsum(ch.transitions, axis=1)
    return (rng.random(x.shape)[..., None] < cdf[x]).argmax(axis=-1)


def sc_reference(ch, received, info, frozen):
    """Stage decoding by stepping `ScDecoder`: decide on the information
    set, inject the frozen values elsewhere."""
    dec = ScDecoder(ch, received)
    for i in range(info.n):
        if i in info:
            dec.decide()
        else:
            dec.inject(frozen[:, i], index=i)
    return dec.decisions


def candidate_words(info, frozen):
    """Every input vector that agrees with the frozen values."""
    k = len(info)
    u = np.tile(frozen, (2**k, 1))
    u[:, list(info.indices)] = list(itertools.product((0, 1), repeat=k))
    return u


# -- list size 1 is successive cancellation ------------------------------------


@pytest.mark.parametrize("ch", [bec(0.3), bsc(0.08), bsc(0.2)], ids=repr)
def test_list_size_one_decodes_as_sc(ch):
    rng = np.random.default_rng(2024)
    for n in (16, 64, 256):
        for _ in range(4):
            info, _ = random_stage(rng, n, int(rng.integers(1, n)))
            frozen = rng.integers(0, 2, (75, n))
            u = frozen.copy()
            u[:, list(info.indices)] = rng.integers(0, 2, (75, len(info)))
            y = send(rng, ch, polar_encode(u))
            got = list_decode(ch, y, info, frozen, list_size=1)
            assert np.array_equal(got, sc_reference(ch, y, info, frozen))


def random_mask(rng, n, root=True):
    """An information mask whose code tree has rate-0, rate-1 and mixed
    nodes at every depth: below the root each node is all frozen or all
    information with probability 1/8 each, and splits otherwise."""
    if n == 1:
        return [bool(rng.integers(2))]
    kind = 2 if root else rng.integers(8)
    if kind < 2:
        return [bool(kind)] * n
    return random_mask(rng, n // 2, False) + random_mask(rng, n // 2, False)


# Recorded from the generator-driven `ScDecoder`: SHA-256 prefixes of the
# decisions and re-encoded codewords of a seeded noisy corpus, 2 random
# masks and 20 words with random frozen values at each n = 16 ... 1024.
# Erasures and the certain outputs of MIXED reach likelihood ties, so the
# digests pin the tie rule along with the arithmetic.
CORPUS_GOLDEN = {
    "bec0.3": "b30ac78b17a80f8e",
    "bec0.5": "98c0156c856cc101",
    "bsc0.08": "9699f8a7b524f17a",
    "bsc0.2": "f43491cea339ec6c",
    "mixed": "949e23397a02d1f0",
    "bsc0.11002^2": "655061c2204eda59",
}
CORPUS_CHANNELS = {
    "bec0.3": bec(0.3),
    "bec0.5": bec(0.5),
    "bsc0.08": bsc(0.08),
    "bsc0.2": bsc(0.2),
    "mixed": MIXED,
    "bsc0.11002^2": product_power(bsc(0.11002), 2),
}


def _digest(a) -> str:
    data = np.ascontiguousarray(a, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", list(CORPUS_GOLDEN))
def test_sc_decisions_match_golden_corpus(name):
    ch = CORPUS_CHANNELS[name]
    q = ch.input_size
    rng = np.random.default_rng(2029)
    stepped, listed = [], []
    for n in (16, 32, 64, 128, 256, 512, 1024):
        for _ in range(2):
            mask = random_mask(rng, n)
            info = InformationSet(n, tuple(np.flatnonzero(mask)))
            frozen = rng.integers(0, q, (20, n))
            u = frozen.copy()
            u[:, mask] = rng.integers(0, q, (20, len(info)))
            y = send(rng, ch, polar_encode(u))
            dec = ScDecoder(ch, y)
            for i in range(n):
                if mask[i]:
                    dec.decide()
                else:
                    dec.inject(frozen[:, i], index=i)
            stepped += [dec.decisions.ravel(), dec.codeword.ravel()]
            listed += [list_decode(ch, y, info, frozen, list_size=1).ravel()]
    assert _digest(np.concatenate(stepped)) == CORPUS_GOLDEN[name]
    assert np.array_equal(np.concatenate(listed), np.concatenate(stepped[::2]))


# -- list sizes above 1 ---------------------------------------------------------


def test_bec_full_list_returns_a_consistent_word():
    """With L >= 2^|A| no path is ever pruned, so the decoder returns a word
    that agrees with every unerased output; it can miss the sent word only
    when another word agrees too."""
    rng = np.random.default_rng(11)
    ambiguous = 0
    for trial in range(400):
        n = (4, 8, 16)[trial % 3]
        k = int(rng.integers(1, min(n, 6) + 1))
        info, frozen = random_stage(rng, n, k)
        u = frozen.copy()
        u[list(info.indices)] = rng.integers(0, 2, k)
        y = send(rng, bec(0.5), polar_encode(u))
        words = candidate_words(info, frozen)
        seen = y != 2
        agree = np.all(polar_encode(words)[:, seen] == y[seen], axis=1)
        consistent = {tuple(w) for w in words[agree]}
        for size in (2**k, 2**k + 3):
            got = list_decode(bec(0.5), y, info, frozen, list_size=size)[0]
            assert tuple(got) in consistent
            if len(consistent) == 1:
                assert np.array_equal(got, u)
        ambiguous += len(consistent) > 1
    assert 0 < ambiguous < 400


@pytest.mark.parametrize("ch", [bsc(0.15), MIXED], ids=["bsc", "mixed"])
def test_full_list_is_maximum_likelihood(ch):
    """Unpruned, the path metrics are exact -log P(u | y), so the decoder
    returns the most likely word whenever it is unique."""
    rng = np.random.default_rng(12)
    log_w = np.log(np.where(ch.transitions > 0, ch.transitions, 1e-300))
    checked = 0
    for trial in range(200):
        n = (8, 16)[trial % 2]
        k = int(rng.integers(1, 6))
        info, frozen = random_stage(rng, n, k)
        u = frozen.copy()
        u[list(info.indices)] = rng.integers(0, 2, k)
        y = send(rng, ch, polar_encode(u))
        words = candidate_words(info, frozen)
        score = log_w[polar_encode(words), y].sum(axis=1)
        best = np.flatnonzero(score >= score.max() - 1e-9)
        got = list_decode(ch, y, info, frozen, list_size=2**k)[0]
        if len(best) == 1:
            assert np.array_equal(got, words[best[0]])
            checked += 1
    assert checked > 100


def test_list_decoding_beats_sc_on_a_noisy_stage():
    rng = np.random.default_rng(13)
    ch = bec(0.45)
    best = np.argsort(bec_split_bhattacharyya(0.45, 64), kind="stable")[:28]
    info = InformationSet(64, tuple(np.sort(best)))
    frozen = rng.integers(0, 2, 64)
    u = np.tile(frozen, (600, 1))
    u[:, list(info.indices)] = rng.integers(0, 2, (600, 28))
    y = send(rng, ch, polar_encode(u))
    errors = {
        size: int(np.any(list_decode(ch, y, info, frozen, size) != u, axis=1).sum())
        for size in (1, 4)
    }
    assert errors[4] < errors[1]


def test_decisions_do_not_depend_on_the_batch():
    rng = np.random.default_rng(14)
    for ch in (bec(0.4), bsc(0.1), MIXED):
        info, _ = random_stage(rng, 64, 36)
        frozen = rng.integers(0, 2, (40, 64))
        u = frozen.copy()
        u[:, list(info.indices)] = rng.integers(0, 2, (40, 36))
        y = send(rng, ch, polar_encode(u))
        whole = list_decode(ch, y, info, frozen, list_size=4)
        narrow = list_decode(ch, y.astype(np.uint8), info, frozen, list_size=4)
        assert np.array_equal(narrow, whole)
        for step in (1, 7):
            parts = [
                list_decode(ch, y[i : i + step], info, frozen[i : i + step], 4)
                for i in range(0, 40, step)
            ]
            assert np.array_equal(np.concatenate(parts), whole)


def test_list_decode_validation():
    info = InformationSet(4, (3,))
    with pytest.raises(ValueError, match="list size"):
        list_decode(bsc(0.1), np.zeros(4, dtype=int), info, np.zeros(4), 0)
    with pytest.raises(ValueError, match="frozen"):
        list_decode(bsc(0.1), np.zeros(4, dtype=int), info, np.full(4, 2), 2)
    with pytest.raises(ValueError, match="output alphabet"):
        list_decode(bsc(0.1), np.full(4, 2), info, np.zeros(4), 2)
    with pytest.raises(ValueError, match="output alphabet"):
        list_decode(bsc(0.1), np.full(4, -1), info, np.zeros(4), 2)
    with pytest.raises(ValueError, match="exact"):
        list_decode(bsc(0.1), np.zeros(4, dtype=int), info, np.zeros(4), 2, exact=True)


# -- the degraded scheme with a list decoder ------------------------------------


def nested_sets_8():
    return [
        InformationSet(8, (1, 3, 4, 5, 6, 7)),
        InformationSet(8, (3, 5, 6, 7)),
        InformationSet(8, (6, 7)),
    ]


@pytest.mark.parametrize("list_size", [2, 3, 8])
def test_degraded_list_noiseless_all_permutations(list_size):
    rng = np.random.default_rng(15)
    schemes = [
        DegradedScheme([NOISELESS] * 3, nested_sets_8(), list_size=list_size),
        DegradedScheme.build(
            [bec(0.1), bec(0.3), bec(0.5)], 64, m=2, rates=[0.8, 0.6, 0.4],
            b=rng.integers(0, 2, 64 - 50), list_size=list_size,
        ),
    ]
    for sch in schemes:
        bits = rng.integers(0, 2, (3, sch.info_bit_count))
        x = sch.encode(bits)
        for pi in itertools.permutations(range(3)):
            assert np.array_equal(sch.decode([x[pi[s]] for s in range(3)], pi), bits)


def test_degraded_list_size_validation():
    with pytest.raises(ValueError, match="list size"):
        DegradedScheme([NOISELESS] * 3, nested_sets_8(), list_size=0)
    with pytest.raises(ValueError, match="list size"):
        DegradedScheme.build([bec(0.2), bec(0.5)], 16, rates=[0.5, 0.25], list_size=-1)


def test_degraded_list_evaluate_chunk_and_worker_invariance():
    sch = DegradedScheme.build(
        [bec(0.2), bec(0.45)], 64, rates=[0.7, 0.45], list_size=4
    )
    base = evaluate(sch, trials=60, master_seed=5)
    assert sum(r.errors for r in base) > 0
    for kwargs in ({"chunk": 7}, {"chunk": 1}, {"workers": 3}):
        other = evaluate(sch, trials=60, master_seed=5, **kwargs)
        assert reports_to_csv(other) == reports_to_csv(base)
        assert [r.bit_errors for r in other] == [r.bit_errors for r in base]


def test_manifest_list_line():
    sch = DegradedScheme.build([bec(0.2), bec(0.5)], 16, rates=[0.5, 0.25])
    text = scheme_to_manifest(sch)
    assert "list" not in text
    assert scheme_from_manifest(text).list_size == 1
    listed = scheme_from_manifest(text + "list 3\n")
    assert listed.list_size == 3
    assert scheme_to_manifest(listed) == text + "list 3\n"
    with pytest.raises(ValueError):
        scheme_from_manifest(text + "list 0\n")
    with pytest.raises(ValueError):
        scheme_from_manifest(text + "list two\n")
    coupled = InterleavedScheme.build(
        [bsc(0.11), bec(0.5)], 16, m=2, rates=[0.25, 0.25]
    )
    with pytest.raises(ValueError, match="no list decoder"):
        scheme_from_manifest(scheme_to_manifest(coupled) + "list 2\n")
