"""Arithmetic over GF(2^m) and bit/symbol packing.

Field elements are integers in [0, 2^m) whose bit i is the coefficient of
x^i in the polynomial basis.  Addition is XOR; multiplication goes through
exp/log tables built from a generator of the multiplicative group, so it
stays cheap for vectorized use by the MDS codes.  log[0] points into a
zero tail of exp, so exp[log a + log b] is already 0 when a or b is 0 and
one lookup serves ints and arrays alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# One fixed primitive polynomial per degree (bit i = coefficient of x^i).
# Keeping a single table makes every symbol value reproducible across runs.
PRIMITIVE_POLYS = {
    1: 0b11,                     # x + 1
    2: 0b111,                    # x^2 + x + 1
    3: 0b1011,                   # x^3 + x + 1
    4: 0b10011,                  # x^4 + x + 1
    5: 0b100101,                 # x^5 + x^2 + 1
    6: 0b1000011,                # x^6 + x + 1
    7: 0b10001001,               # x^7 + x^3 + 1
    8: 0b100011101,              # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,             # x^9 + x^4 + 1
    10: 0b10000001001,           # x^10 + x^3 + 1
    11: 0b100000000101,          # x^11 + x^2 + 1
    12: 0b1000001010011,         # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,        # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,       # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,      # x^15 + x + 1
    16: 0b10001000000001011,     # x^16 + x^12 + x^3 + x + 1
}


def _poly_degree(poly: int) -> int:
    return poly.bit_length() - 1


def _polymul_mod(a: int, b: int, poly: int, m: int) -> int:
    """Carry-less multiply of a and b reduced modulo poly (degree m)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return result


def _is_irreducible_check(poly: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1..m//2."""
    for cand in range(2, 1 << (m // 2 + 1)):
        dc = _poly_degree(cand)
        if dc < 1:
            continue
        rem = poly
        while rem and _poly_degree(rem) >= dc:
            rem ^= cand << (_poly_degree(rem) - dc)
        if rem == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^m) described by its extension degree and reduction polynomial.

    Parameters
    ----------
    m : int
        Extension degree; the field has q = 2^m elements.
    primitive_poly : int, optional
        Bitmask of the degree-m reduction polynomial.  Defaults to the
        fixed table entry for m.  Must be irreducible over GF(2); this is
        checked exhaustively for m <= 16.
    """

    m: int
    primitive_poly: int = 0
    _exp: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _log: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _generator: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.m}")
        poly = self.primitive_poly
        if poly == 0:
            if self.m not in PRIMITIVE_POLYS:
                raise ValueError(
                    f"no built-in polynomial for m={self.m}; supply primitive_poly"
                )
            poly = PRIMITIVE_POLYS[self.m]
            object.__setattr__(self, "primitive_poly", poly)
        if _poly_degree(poly) != self.m:
            raise ValueError(
                f"polynomial 0b{poly:b} does not have degree {self.m}"
            )
        if self.m <= 16 and self.m > 1 and not _is_irreducible_check(poly, self.m):
            raise ValueError(f"polynomial 0b{poly:b} is reducible over GF(2)")
        self._build_tables()

    @property
    def q(self) -> int:
        return 1 << self.m

    def _order(self, g: int) -> int:
        x, count = g, 1
        while x != 1:
            x = _polymul_mod(x, g, self.primitive_poly, self.m)
            count += 1
            if count > self.q:
                return 0
        return count

    def _build_tables(self) -> None:
        q = self.q
        gen = 0
        for g in range(1, q):  # 1 generates only GF(2)'s group
            if self._order(g) == q - 1:
                gen = g
                break
        if gen == 0:
            raise ValueError(
                f"no generator found; 0b{self.primitive_poly:b} may be reducible"
            )
        # exp[i] = gen^i for i < 2(q-1), then zeros far enough that
        # log[0] + log[0] = 4(q-1) still lands in them
        exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        log = np.full(q, 2 * (q - 1), dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = _polymul_mod(x, gen, self.primitive_poly, self.m)
        exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
        object.__setattr__(self, "_generator", gen)
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)

    @property
    def generator(self) -> int:
        """Smallest generator of the multiplicative group."""
        return self._generator

    # -- arithmetic on plain ints / arrays ---------------------------------

    def add(self, a, b):
        """Field addition (XOR); works on ints and integer arrays."""
        return a ^ b

    def mul(self, a, b):
        """Field multiplication; works on ints and broadcasting integer
        arrays.  Two ints are range-checked and give an int."""
        if np.isscalar(a) and np.isscalar(b):
            self._check_range(a)
            self._check_range(b)
            return int(self._exp[self._log[a] + self._log[b]])
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        self._check_range(a)
        return int(self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e > 0 else 1
        return int(self._exp[(self._log[a] * e) % (self.q - 1)])

    def _check_range(self, a) -> None:
        if np.any(np.asarray(a) < 0) or np.any(np.asarray(a) >= self.q):
            raise ValueError(f"value out of range for GF(2^{self.m})")


def bits_to_symbols(bits, spec: FieldSpec) -> np.ndarray:
    """Pack bits into GF(2^m) symbols, m bits per symbol, MSB first.

    The last axis must have length divisible by m; it is replaced by an
    axis of symbol values.  Inputs of the wrong length are rejected rather
    than padded, so callers must align lengths to multiples of m.
    """
    bits = np.asarray(bits, dtype=np.int64)
    m = spec.m
    if bits.shape[-1] % m != 0:
        raise ValueError(
            f"bit count {bits.shape[-1]} is not a multiple of m={m}"
        )
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    grouped = bits.reshape(bits.shape[:-1] + (-1, m))
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    return grouped @ weights


def symbols_to_bits(symbols, spec: FieldSpec) -> np.ndarray:
    """Inverse of bits_to_symbols: expand each symbol to m bits, MSB first,
    in the dtype of an integer array, or else int64."""
    symbols = np.asarray(symbols)
    if symbols.dtype.kind not in "iu":
        symbols = symbols.astype(np.int64)
    spec._check_range(symbols)
    m = spec.m
    shifts = np.arange(m - 1, -1, -1, dtype=symbols.dtype)
    bits = (symbols[..., None] >> shifts) & 1
    return bits.reshape(symbols.shape[:-1] + (symbols.shape[-1] * m,))
