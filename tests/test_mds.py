import itertools

import numpy as np
import pytest

from permpolar.gf import FieldSpec
from permpolar.mds import GrsCode, MdsCode, MdsFamily

F4 = FieldSpec(2)
F8 = FieldSpec(3)


def eval_oracle(spec, message, points):
    """Direct polynomial evaluation, written independently of GrsCode."""
    out = []
    for x in points:
        acc = 0
        for j, coeff in enumerate(message):
            acc ^= spec.mul(int(coeff), spec.pow(int(x), j))
        out.append(acc)
    return out


def enumerate_codewords(code):
    q = code.spec.q
    for msg in itertools.product(range(q), repeat=code.dim):
        yield code.encode(list(msg))


def test_encode_matches_polynomial_oracle():
    code = GrsCode(F4, 3, 2, [1, 2, 3])
    for msg in itertools.product(range(4), repeat=2):
        assert np.array_equal(
            code.encode(list(msg)), eval_oracle(F4, msg, [1, 2, 3])
        )


def test_encode_example_values():
    code = GrsCode(F4, 3, 2, [1, 2, 3])
    assert np.array_equal(code.encode([1, 1]), [0, 3, 2])


def test_repetition_and_zero():
    rep = GrsCode(F8, 5, 1)
    for a in range(8):
        assert np.array_equal(rep.encode([a]), [a] * 5)
    code = GrsCode(F8, 5, 3)
    assert np.array_equal(code.encode([0, 0, 0]), np.zeros(5, dtype=int))


def test_complete_consistent_with_encode_exhaustive():
    for spec, length, dim in [(F4, 3, 1), (F4, 3, 2), (F4, 3, 3), (F8, 5, 2)]:
        code = GrsCode(spec, length, dim)
        for cw in enumerate_codewords(code):
            for subset in itertools.combinations(range(length), dim):
                known = {t: int(cw[t]) for t in subset}
                assert np.array_equal(code.complete(known), cw)


def test_complete_example_values():
    code = GrsCode(F4, 3, 2, [1, 2, 3])
    assert np.array_equal(code.complete({1: 3, 2: 2}), [0, 3, 2])
    rep = GrsCode(F4, 3, 1, [1, 2, 3])
    assert np.array_equal(rep.complete({2: 3}), [3, 3, 3])


def test_parity_check_completion():
    spc = MdsCode(F8, np.hstack([np.eye(3, dtype=int), np.ones((3, 1), dtype=int)]))
    a, b, d = 3, 5, 6
    out = spc.complete({0: a, 1: b, 3: d})
    assert out[2] == a ^ b ^ d
    assert np.array_equal(out, [a, b, a ^ b ^ d, d])


def test_complete_order_oblivious():
    code = GrsCode(F8, 6, 3)
    cw = code.encode([1, 5, 2])
    forward = code.complete_batch((0, 2, 4), [cw[0], cw[2], cw[4]])
    backward = code.complete_batch((4, 0, 2), [cw[4], cw[0], cw[2]])
    assert np.array_equal(forward, backward)
    assert np.array_equal(forward, cw)


def test_complete_usage_errors():
    code = GrsCode(F4, 3, 2)
    with pytest.raises(ValueError):
        code.complete({0: 1})
    with pytest.raises(ValueError):
        code.complete_batch((0, 0), [1, 2])
    with pytest.raises(ValueError):
        code.complete_batch((0, 5), [1, 2])
    with pytest.raises(ValueError):
        code.encode([1, 2, 3])


def min_distance(code):
    best = code.length + 1
    for cw in enumerate_codewords(code):
        w = int(np.count_nonzero(cw))
        if 0 < w < best:
            best = w
    return best


@pytest.mark.parametrize(
    "spec,length,dim",
    [
        (F4, 3, 1),
        (F4, 3, 2),
        (F4, 3, 3),
        (F8, 5, 2),
        (F8, 7, 2),
        (F8, 7, 3),
        (FieldSpec(4), 6, 2),
    ],
)
def test_minimum_distance_is_singleton(spec, length, dim):
    code = GrsCode(spec, length, dim)
    assert min_distance(code) == length - dim + 1


def test_structured_binary_codes():
    fam = MdsFamily(FieldSpec(1), 3)
    assert np.array_equal(fam.code(1).complete({1: 1}), [1, 1, 1])
    assert np.array_equal(fam.code(2).complete({0: 1, 1: 1}), [1, 1, 0])
    assert np.array_equal(fam.code(3).complete({0: 1, 1: 0, 2: 1}), [1, 0, 1])


@pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
def test_structured_binary_completion_exhaustive(length):
    """Every codeword, rebuilt from every position subset, against the
    codes' own definitions: constant words, even-weight words, all words."""
    fam = MdsFamily(FieldSpec(1), length)
    assert fam.kind == "structured"
    words = np.array(list(itertools.product((0, 1), repeat=length)))
    members = {
        1: words[np.all(words == words[:, :1], axis=1)],
        length - 1: words[words.sum(axis=1) % 2 == 0],
        length: words,
    }
    assert fam.dims == tuple(sorted(members))
    for dim, cws in members.items():
        code = fam.code(dim)
        assert len(cws) == 2**dim
        for subset in itertools.permutations(range(length), dim):
            rebuilt = code.complete_batch(subset, cws[:, list(subset)])
            assert np.array_equal(rebuilt, cws)


def test_dependent_generator_columns_rejected():
    code = MdsCode(F4, [[1, 1, 0], [2, 2, 1]])
    with pytest.raises(ValueError, match="dependent"):
        code.complete({0: 1, 1: 1})
    cw = code.encode([3, 2])
    assert np.array_equal(code.complete({0: int(cw[0]), 2: int(cw[2])}), cw)


def test_generator_shape_and_range_checked():
    with pytest.raises(ValueError):
        MdsCode(F4, [[1, 2], [3, 1], [1, 1]])
    with pytest.raises(ValueError):
        MdsCode(F4, [1, 2, 3])
    with pytest.raises(ValueError):
        MdsCode(F4, [[1, 4, 1]])


def test_family_grs_when_field_allows():
    fam = MdsFamily(F4, 3)
    assert fam.kind == "grs"
    assert fam.dims == (1, 2, 3)
    # shared evaluation points across dimensions
    for d in fam.dims:
        assert np.array_equal(fam.code(d).generator, fam.code(3).generator[:d])


def test_family_structured_over_gf2():
    fam = MdsFamily(FieldSpec(1), 3)
    assert fam.kind == "structured"
    assert fam.dims == (1, 2, 3)
    with pytest.raises(ValueError):
        MdsFamily(FieldSpec(1), 5).code(2)


def test_family_codes_complete_roundtrip():
    fam = MdsFamily(F8, 5)
    rng = np.random.default_rng(0)
    for d in fam.dims:
        code = fam.code(d)
        msg = rng.integers(0, 8, d)
        cw = code.encode(msg)
        subset = tuple(sorted(rng.choice(5, size=d, replace=False)))
        assert np.array_equal(
            code.complete_batch(subset, cw[list(subset)]), cw
        )
