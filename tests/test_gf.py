import itertools

import numpy as np
import pytest

from permpolar.gf import FieldSpec, bits_to_symbols, symbols_to_bits


def poly_mul_oracle(a, b, poly, m):
    """Schoolbook carry-less multiply + long division, for cross-checking."""
    prod = 0
    for i in range(m):
        if (a >> i) & 1:
            prod ^= b << i
    for i in range(2 * m - 2, m - 1, -1):
        if (prod >> i) & 1:
            prod ^= poly << (i - m)
    return prod


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_exhaustive(m):
    f = FieldSpec(m)
    q = f.q
    for a, b in itertools.product(range(q), repeat=2):
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
    for a, b, c in itertools.product(range(q), repeat=3):
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_unique_inverses_exhaustive(m):
    f = FieldSpec(m)
    for a in range(1, f.q):
        inv = f.inv(a)
        assert f.mul(a, inv) == 1
        # uniqueness
        assert sum(1 for b in range(1, f.q) if f.mul(a, b) == 1) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_array_mul_equals_scalar_mul_exhaustive(m):
    f = FieldSpec(m)
    a, b = np.meshgrid(np.arange(f.q), np.arange(f.q), indexing="ij")
    table = f.mul(a, b)
    assert table.dtype == np.int64
    assert not table[0].any() and not table[:, 0].any()
    assert np.array_equal(table[1], np.arange(f.q))
    for x, y in itertools.product(range(f.q), repeat=2):
        assert table[x, y] == f.mul(x, y)
    # broadcasting a column against a row gives the same table
    assert np.array_equal(f.mul(np.arange(f.q)[:, None], np.arange(f.q)), table)
    assert np.array_equal(f.mul(3 % f.q, np.arange(f.q)), table[3 % f.q])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_mul_matches_polynomial_oracle(m):
    f = FieldSpec(m)
    for a, b in itertools.product(range(f.q), repeat=2):
        assert f.mul(a, b) == poly_mul_oracle(a, b, f.primitive_poly, m)


def test_gf4_examples():
    f = FieldSpec(2)
    assert f.mul(2, 3) == 1
    assert f.add(2, 2) == 0
    assert f.add(0, 3) == 3


def test_gf8_xor_example():
    f = FieldSpec(3)
    assert f.add(5, 3) == 6


def test_identity_and_annihilator():
    for m in (1, 2, 3, 4):
        f = FieldSpec(m)
        for a in range(f.q):
            assert f.mul(1, a) == a
            assert f.mul(0, a) == 0


def test_reducible_polynomial_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 0b101)  # x^2 + 1 = (x+1)^2
    with pytest.raises(ValueError):
        FieldSpec(3, 0b111)  # degree mismatch


def test_irreducible_but_nonprimitive_polynomial_works():
    # x^4+x^3+x^2+x+1 is irreducible; x has order 5, so the generator
    # search must settle on another element
    f = FieldSpec(4, 0b11111)
    assert f.generator != 2
    seen = set()
    x = 1
    for _ in range(f.q - 1):
        seen.add(x)
        x = f.mul(x, f.generator)
    assert len(seen) == f.q - 1


def test_scalar_mul_range_checked():
    f = FieldSpec(2)
    with pytest.raises(ValueError):
        f.mul(4, 1)
    with pytest.raises(ValueError):
        f.mul(0, -1)


def test_bit_packing_examples():
    f2 = FieldSpec(2)
    assert np.array_equal(bits_to_symbols([1, 0, 0, 1], f2), [2, 1])
    assert np.array_equal(bits_to_symbols([0, 0], f2), [0])
    f3 = FieldSpec(3)
    assert np.array_equal(bits_to_symbols([1, 1, 1], f3), [7])


def test_bit_packing_roundtrip_all_lengths():
    for m in (1, 2, 3, 4):
        f = FieldSpec(m)
        rng = np.random.default_rng(m)
        for groups in (1, 2, 5):
            bits = rng.integers(0, 2, m * groups)
            again = symbols_to_bits(bits_to_symbols(bits, f), f)
            assert np.array_equal(again, bits)


def test_bit_packing_rejects_misaligned():
    f = FieldSpec(2)
    with pytest.raises(ValueError):
        bits_to_symbols([1, 0, 1], f)
    with pytest.raises(ValueError):
        bits_to_symbols([2, 0], f)


def test_packing_batched():
    f = FieldSpec(2)
    bits = np.array([[1, 0, 0, 1], [0, 1, 1, 1]])
    syms = bits_to_symbols(bits, f)
    assert syms.shape == (2, 2)
    assert np.array_equal(syms, [[2, 1], [1, 3]])
    assert np.array_equal(symbols_to_bits(syms, f), bits)
