"""MDS codes of length S over GF(2^m) with any-k-symbols completion.

One class, MdsCode, holds any linear code by its k x S generator matrix G.
Completion is the only decoding the parallel schemes need: the symbols at
k positions P fix the codeword as values . G_P^-1 . G, where G_P is the
set of G's columns at P.  For an MDS code every such G_P is invertible.

GrsCode builds the plain evaluation (Vandermonde) generator, which exists
whenever the field has at least S nonzero elements and covers every
dimension.  Over smaller fields -- GF(2) above all, where no length>3
evaluation code exists -- MdsFamily falls back to the classical MDS
codes: repetition [1...1], single parity check [I | 1] and the whole
space I.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec


class MdsCode:
    """Linear code over GF(2^m) given by a k x S generator matrix.

    Codewords are message . G.  `complete_batch` assumes the columns of G
    at the known positions are independent, which holds for every set of
    k positions exactly when the code is MDS.
    """

    def __init__(self, spec: FieldSpec, generator):
        generator = np.array(generator, dtype=np.int64)
        if generator.ndim != 2 or not 1 <= len(generator) <= generator.shape[1]:
            raise ValueError("generator must be a k x S matrix with 1 <= k <= S")
        spec._check_range(generator)
        generator.flags.writeable = False  # the completion tables derive from it
        self.spec = spec
        self.generator = generator
        self.dim, self.length = generator.shape
        # positions -> (k, q, S) table of every value times G_P^-1 . G
        self._tables: dict[tuple[int, ...], np.ndarray] = {}

    def __repr__(self):
        return f"MdsCode(GF(2^{self.spec.m}), S={self.length}, k={self.dim})"

    def encode(self, message) -> np.ndarray:
        """message . G; `message` holds k symbols on its last axis, and
        batching over leading axes is supported."""
        message = np.asarray(message, dtype=np.int64)
        if message.shape[-1] != self.dim:
            raise ValueError(
                f"message length {message.shape[-1]} != dimension {self.dim}"
            )
        products = self.spec.mul(message[..., :, None], self.generator)
        return np.bitwise_xor.reduce(products, axis=-2)

    def _table(self, positions: tuple[int, ...]) -> np.ndarray:
        """Gauss-Jordan on [G_P | G] gives G_P^-1 . G; row j of it, times
        every field value, is table[j]."""
        table = self._tables.get(positions)
        if table is not None:
            return table
        sp, k = self.spec, self.dim
        rows = np.concatenate([self.generator[:, positions], self.generator], axis=1)
        for c in range(k):
            pivots = np.flatnonzero(rows[c:, c])
            if not len(pivots):
                raise ValueError(
                    f"generator columns at positions {positions} are dependent"
                )
            rows[[c, c + pivots[0]]] = rows[[c + pivots[0], c]]
            rows[c] = sp.mul(rows[c], sp.inv(int(rows[c, c])))
            factors = rows[:, c].copy()
            factors[c] = 0
            rows ^= sp.mul(factors[:, None], rows[c])
        table = sp.mul(np.arange(sp.q)[:, None], rows[:, None, k:])
        self._tables[positions] = table
        return table

    def complete_batch(self, positions, values) -> np.ndarray:
        """Complete codewords from symbols at `positions` (one per dim).

        `values` carries the known symbols on its last axis, ordered like
        `positions`; leading axes are batch dimensions.
        """
        positions = tuple(int(t) for t in positions)
        if len(positions) != self.dim:
            raise ValueError(
                f"need exactly {self.dim} known positions, got {len(positions)}"
            )
        if len(set(positions)) != len(positions):
            raise ValueError("duplicate positions")
        if any(not 0 <= t < self.length for t in positions):
            raise ValueError("position out of range")
        values = np.asarray(values, dtype=np.int64)
        if values.shape[-1] != self.dim:
            raise ValueError("one value per known position required")
        table = self._table(positions)
        out = np.take(table[0], values[..., 0], axis=0)
        for j in range(1, self.dim):
            out ^= np.take(table[j], values[..., j], axis=0)
        return out

    def complete(self, known) -> np.ndarray:
        """Complete a single codeword from a {position: symbol} mapping."""
        positions = sorted(known)
        return self.complete_batch(positions, [known[t] for t in positions])


def GrsCode(spec: FieldSpec, length: int, dim: int, eval_points=None) -> MdsCode:
    """Evaluation code of length S and dimension k over GF(2^m).

    Codeword j-th symbol is p(alpha_j) for the degree-<k message
    polynomial p, whose k coefficients (constant term first) are the
    message.  Default evaluation points are the first S powers of the
    group generator, so codewords are reproducible across runs; with
    them, every dimension's generator is the top rows of the same
    Vandermonde matrix.

    Parameters
    ----------
    spec : FieldSpec
    length : int
        Block length S; requires S <= 2^m - 1 under default points.
    dim : int
        Dimension k in [1, S].
    eval_points : sequence of int, optional
        S distinct field elements; defaults to (alpha^0, ..., alpha^{S-1}).
    """
    if not 1 <= dim <= length:
        raise ValueError(f"dimension {dim} not in [1, {length}]")
    if eval_points is None:
        if length > spec.q - 1:
            raise ValueError(
                f"length {length} exceeds {spec.q - 1} distinct generator powers"
            )
        eval_points = [spec.pow(spec.generator, i) for i in range(length)]
    eval_points = [int(p) for p in eval_points]
    if len(eval_points) != length:
        raise ValueError("need one evaluation point per position")
    spec._check_range(eval_points)
    if len(set(eval_points)) != length:
        raise ValueError("evaluation points must be distinct")
    return MdsCode(spec, [[spec.pow(x, j) for x in eval_points] for j in range(dim)])


class MdsFamily:
    """The per-dimension code family {C_d : d in [1, S]} used by the
    parallel schemes.  All members share one FieldSpec and, when `kind` is
    "grs", one set of evaluation points; a "structured" family has only
    dimensions 1, S-1 and S."""

    def __init__(self, spec: FieldSpec, length: int):
        self.spec = spec
        self.length = length
        if spec.q - 1 >= length:
            self.kind = "grs"
            self._codes = {d: GrsCode(spec, length, d) for d in range(1, length + 1)}
        else:
            self.kind = "structured"
            eye = np.eye(length, dtype=np.int64)
            generators = {
                1: np.ones((1, length)),
                length - 1: np.hstack([eye[:-1, :-1], np.ones((length - 1, 1))]),
                length: eye,
            }
            self._codes = {d: MdsCode(spec, g) for d, g in generators.items()}

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(sorted(self._codes))

    def code(self, dim: int) -> MdsCode:
        try:
            return self._codes[dim]
        except KeyError:
            raise ValueError(
                f"no MDS code of dimension {dim} and length {self.length} "
                f"over GF(2^{self.spec.m}); available dims: {self.dims}"
            ) from None
