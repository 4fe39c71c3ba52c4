"""Polarization core over GF(2^m): transform, split channels,
information-set construction, and successive cancellation decoding.

Index conventions used throughout:

* Natural (non-bit-reversed) ordering.  The transform is the i-fold
  Kronecker power of [[1,0],[1,1]]; input index l of block length n = 2^i
  has an MSB-first binary expansion whose bits, applied base-channel-first,
  select the minus (0) / plus (1) synthesis branch.
* All indices are 0-based.

Because the kernel is a 0/1 matrix, every polar operation over GF(2^m)
needs only field addition, i.e. XOR on symbol values; no multiplication
tables enter the encoder or decoder.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .channel import (
    DEFAULT_OUTPUT_CAP,
    DiscreteChannel,
    ResourceLimitError,
    bhattacharyya,
    is_bec_like,
    is_degraded,
    merge_outputs,
)


def _check_power_of_two(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"block length must be a power of two, got {n}")


# ---------------------------------------------------------------------------
# transform and code layout
# ---------------------------------------------------------------------------


def _butterflies(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Apply the polar transform in place along one axis of a contiguous
    array."""
    axis %= x.ndim
    n = x.shape[axis]
    lead = (slice(None),) * (axis + 1)
    h = 1
    while h < n:
        pairs = x.reshape(x.shape[:axis] + (n // (2 * h), 2, h) + x.shape[axis + 1 :])
        pairs[lead + (0,)] ^= pairs[lead + (1,)]
        h *= 2
    return x


def polar_encode(u) -> np.ndarray:
    """Apply the polar transform along the last axis (self-inverse) to a
    copy; an integer array keeps its dtype, anything else becomes int64."""
    u = np.asarray(u)
    x = np.array(u, dtype=u.dtype if u.dtype.kind in "iu" else np.int64)
    _check_power_of_two(x.shape[-1])
    return _butterflies(x)


@dataclass(frozen=True)
class InformationSet:
    """Strictly increasing index subset of [0, n)."""

    n: int
    indices: tuple[int, ...]
    _members: frozenset = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 or i >= self.n for i in idx):
            raise ValueError("index out of range")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_members", frozenset(idx))

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self._members

    def complement(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self._members)

    def issubset(self, other: "InformationSet") -> bool:
        return self._members <= other._members

    def to_text(self) -> str:
        return f"{self.n}: " + " ".join(str(i) for i in self.indices)

    @classmethod
    def from_text(cls, text: str) -> "InformationSet":
        head, _, rest = text.partition(":")
        try:
            n = int(head.strip())
        except ValueError:
            raise ValueError(f"malformed information set line: {text!r}") from None
        idx = tuple(int(v) for v in rest.split())
        return cls(n, idx)


# ---------------------------------------------------------------------------
# channel synthesis (splitting)
# ---------------------------------------------------------------------------


def channel_minus(
    ch: DiscreteChannel, cap: int = DEFAULT_OUTPUT_CAP
) -> DiscreteChannel:
    """Single-step synthesis for the first input of the 2x2 kernel.

    Output alphabet is the pair (y1, y2) packed as y1 * out + y2.
    """
    q, y = ch.input_size, ch.output_size
    if y * y > cap:
        raise ResourceLimitError(f"minus alphabet {y}^2 exceeds cap {cap}")
    t = ch.transitions
    out = np.zeros((q, y * y))
    for u1 in range(q):
        acc = np.zeros((y, y))
        for u2 in range(q):
            acc += np.multiply.outer(t[u1 ^ u2], t[u2])
        out[u1] = acc.reshape(-1) / q
    return DiscreteChannel(out)


def channel_plus(
    ch: DiscreteChannel, cap: int = DEFAULT_OUTPUT_CAP
) -> DiscreteChannel:
    """Single-step synthesis for the second kernel input; the first input
    symbol joins the output, packed as (y1 * out + y2) * q + a."""
    q, y = ch.input_size, ch.output_size
    if y * y * q > cap:
        raise ResourceLimitError(f"plus alphabet {y}^2*{q} exceeds cap {cap}")
    t = ch.transitions
    out = np.zeros((q, y, y, q))
    for x in range(q):
        for a in range(q):
            out[x, :, :, a] = np.multiply.outer(t[a ^ x], t[x]) / q
    return DiscreteChannel(out.reshape(q, y * y * q))


def split_channel_exact(
    ch: DiscreteChannel,
    n: int,
    l: int,
    merge_tol: float = 0.0,
    cap: int = DEFAULT_OUTPUT_CAP,
) -> DiscreteChannel:
    """The synthesized channel seen by input index l of an n-block.

    Realized by the branch recursion (exact probabilities); outputs with
    identical posteriors are merged after each step, which preserves every
    decision-relevant quantity while keeping alphabets bounded.
    """
    _check_power_of_two(n)
    if not 0 <= l < n:
        raise ValueError(f"index {l} out of range for n={n}")
    width = n.bit_length() - 1
    c = ch
    for j in range(width - 1, -1, -1):
        branch = (l >> j) & 1
        c = channel_plus(c, cap) if branch else channel_minus(c, cap)
        c = merge_outputs(c, merge_tol)
    return c


def split_levels(
    ch: DiscreteChannel, k: int, merge_tol: float = 0.0
) -> list[list[DiscreteChannel]]:
    """Levels 0..k of the split walk; level j holds the 2^j split channels
    of a 2^j block, in natural index order.

    One level at a time: every channel of a level yields its minus and
    plus channels, merged as in `split_channel_exact`, so entry l of level
    j equals `split_channel_exact(ch, 2**j, l, merge_tol)`.
    """
    if k < 0:
        raise ValueError("depth k must be nonnegative")
    levels = [[ch]]
    for _ in range(k):
        levels.append([
            merge_outputs(step(c), merge_tol)
            for c in levels[-1]
            for step in (channel_minus, channel_plus)
        ])
    return levels


def split_channels(
    ch: DiscreteChannel, k: int, merge_tol: float = 0.0
) -> list[DiscreteChannel]:
    """All 2^k split channels of a 2^k block, in natural index order: the
    last level of `split_levels`."""
    return split_levels(ch, k, merge_tol)[-1]


def bec_split_bhattacharyya(epsilon: float, n: int) -> np.ndarray:
    """Per-index Bhattacharyya values of an erasure channel's splits.

    The two-branch recursion z -> (2z - z^2, z^2), expanded in natural
    index order.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"erasure probability {epsilon} not in [0, 1]")
    _check_power_of_two(n)
    z = np.array([float(epsilon)])
    while len(z) < n:
        z = np.column_stack([2 * z - z * z, z * z]).reshape(-1)
    return z


# ---------------------------------------------------------------------------
# information sets
# ---------------------------------------------------------------------------


def _erasure_parameter(ch: DiscreteChannel, method: str = "auto") -> float:
    """The erasure probability of the erasure channel that stands in for
    a binary channel in construction.

    An erasure channel stands for itself.  Any other channel, and every
    channel under method="surrogate", gets the erasure channel with its
    Bhattacharyya parameter: among binary symmetric channels with that
    parameter the erasure channel has the largest split parameters, so a
    set reliable for it is reliable for the original.
    """
    eps = None if method == "surrogate" else is_bec_like(ch)
    return min(1.0, bhattacharyya(ch)) if eps is None else eps


def _construction_values(ch: DiscreteChannel, n: int, method: str) -> np.ndarray:
    """Per-index reliability figures (smaller is better): the split
    Bhattacharyya parameters of the channel's erasure stand-in, or, with
    method="exact" (small n), of the channel's own split channels."""
    if method not in ("auto", "exact", "surrogate"):
        raise ValueError(f"unknown construction method {method!r}")
    if ch.input_size != 2:
        raise ValueError("information set construction expects a binary channel")
    if method == "exact":
        _check_power_of_two(n)
        splits = split_channels(ch, n.bit_length() - 1)
        return np.array([bhattacharyya(c) for c in splits])
    return bec_split_bhattacharyya(_erasure_parameter(ch, method), n)


def _set_size(z, rate, threshold) -> int:
    """The set size: the figures <= threshold, or floor(len(z) * rate)."""
    if threshold is not None:
        return int(np.count_nonzero(z <= threshold))
    if rate > 1.0 or rate < 0.0:
        raise ValueError(f"rate {rate} not in [0, 1]")
    return int(np.floor(len(z) * rate))


def select_info_set(z, rate=None, threshold=None) -> InformationSet:
    """The indices with the smallest of the n reliability figures `z`.

    With `threshold`, every index whose figure is <= threshold; otherwise
    the floor(n * rate) smallest, ties going to the lower index.
    """
    size = _set_size(z, rate, threshold)
    order = np.argsort(z, kind="stable")
    return InformationSet(len(z), tuple(sorted(int(i) for i in order[:size])))


def build_info_set(
    ch: DiscreteChannel,
    n: int,
    rate: float | None = None,
    threshold: float | None = None,
    method: str = "auto",
) -> InformationSet:
    """Choose the indices with the smallest split reliability figures.

    Exactly one of `rate` (target |A| = floor(n * rate)) and `threshold`
    (keep every index with figure <= threshold) must be given.
    """
    if (rate is None) == (threshold is None):
        raise ValueError("specify exactly one of rate and threshold")
    return select_info_set(_construction_values(ch, n, method), rate, threshold)


def monotone_info_sets(
    channels,
    n: int,
    rates=None,
    threshold: float | None = None,
    method: str = "auto",
    size_multiple: int = 1,
) -> list[InformationSet]:
    """Nested information sets for a degradation-ordered channel list.

    `channels[0]` is the least degraded channel; each later channel must be
    a degraded version of its predecessor (checked by the feasibility
    test).  With method="surrogate" the channels need not be degraded:
    each is replaced by its erasure stand-in, and the list must be ordered
    by nondecreasing Bhattacharyya parameter, which orders the stand-ins
    by degradation.  Construction runs worst channel first, then augments,
    so A[S-1] <= ... <= A[0] holds by construction.  Set sizes are rounded
    down to `size_multiple`.
    """
    channels = list(channels)
    s_count = len(channels)
    if s_count == 0:
        raise ValueError("need at least one channel")
    if (rates is None) == (threshold is None):
        raise ValueError("specify exactly one of rates and threshold")
    if rates is not None and len(rates) != s_count:
        raise ValueError("one rate per channel required")
    if size_multiple < 1:
        raise ValueError(f"size_multiple must be at least 1, got {size_multiple}")
    for s in range(s_count - 1):
        better, worse = channels[s], channels[s + 1]
        if method == "surrogate":
            if bhattacharyya(better) > bhattacharyya(worse) + 1e-12:
                raise ValueError(
                    f"channels must be ordered by nondecreasing Bhattacharyya "
                    f"parameter; channel {s + 1} has a smaller one than channel {s}"
                )
        elif is_degraded(better, worse) is None:
            raise ValueError(
                f"channel {s + 1} is not a degraded version of channel {s}"
            )
    zs = [_construction_values(ch, n, method) for ch in channels]
    sets: list[InformationSet | None] = [None] * s_count
    prev: set[int] = set()
    for s in range(s_count - 1, -1, -1):
        z = zs[s]
        size = _set_size(z, None if rates is None else rates[s], threshold)
        size -= size % size_multiple
        if size < len(prev):
            raise ValueError(
                f"set size for channel {s} ({size}) is below the nested "
                f"minimum {len(prev)}; rate targets must follow the "
                "degradation order"
            )
        chosen = set(prev)
        for idx in np.argsort(z, kind="stable"):
            if len(chosen) >= size:
                break
            chosen.add(int(idx))
        sets[s] = InformationSet(n, tuple(sorted(chosen)))
        prev = chosen
    return sets


# ---------------------------------------------------------------------------
# successive cancellation decoding
# ---------------------------------------------------------------------------


# rows x q x n likelihood floats, the size of `evaluate`'s default chunk and
# of every walk slice; a decoder holds about half that, at depths 2 and up.
DECODER_FLOATS = 1 << 21

# A channel group whose node likelihoods take more distinct values than this
# keeps them as floats; fewer are held as uint8 classes (`_likelihood_classes`).
_CLASS_CAP = 64

# Right children of at least this many symbols (size x rows) select planes by
# masked XOR: it takes more numpy calls, which timed slower on smaller nodes.
_XOR_SELECT_MIN = 4096


def _normalise(out: np.ndarray) -> None:
    """Divide a node by its plane sum, a zero sum (all planes +0) by the
    least subnormal; exact mode skips this, as it would only grow rationals."""
    if out.dtype.kind != "O":
        total = np.add.reduce(out, axis=0)
        np.maximum(total, 5e-324, out=total)
        out /= total


def _integers(values) -> np.ndarray:
    """`values` as an array of an integer type: as given, or as int64 where
    every value is integral."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        with np.errstate(invalid="ignore"):
            a, given = a.astype(np.int64), a
        if not np.array_equal(a, given):
            raise ValueError("symbols must be integers")
    return a


def _table_fits(q: int, outputs: int, m: int) -> bool:
    """Whether a channel's table of m-output words fits one tile's budget."""
    return q * sum(q**t for t in range(m)) * outputs**m <= DECODER_FLOATS >> 4


@functools.lru_cache(maxsize=16)
def _word_table(channel: DiscreteChannel, m: int, exact: bool) -> np.ndarray:
    """(q, 1 + q + ... + q^(m-1), k^m) leaves of m-symbol words on a channel
    of k outputs: [:, o_t + p, y] is index t's given its decided prefix p
    (t symbols) on output word y, both first symbol most significant, with
    o_t = 1 + q + ... + q^(t-1).  An m-symbol decoder decides every word under
    every prefix of m - 1 symbols, amended in; index t reads the rows whose
    later prefix symbols are 0.  Decoders on equal channels share a table."""
    q, k = channel.transitions.shape
    words = np.indices((k,) * m).reshape(m, -1).T
    prefixes = np.repeat(np.indices((q,) * (m - 1)).reshape(m - 1, -1), k**m, axis=1)
    dec = ScDecoder(channel, np.tile(words, (q ** (m - 1), 1)), exact)
    leaves = []
    for t in range(m):
        dec.decide()
        leaves.append(dec._leaf().reshape(q, q**t, -1, k**m)[:, :, 0].copy())
        if t < m - 1:
            dec.amend(prefixes[t], np.ones(dec.batch, dtype=bool))
    table = np.concatenate(leaves, axis=1)
    table.flags.writeable = False
    return table


def _word_columns(channels) -> np.ndarray:
    """(q, columns): every channel's table of 4-output words, word-major
    (column word * ranks + prefix rank), one channel after another."""
    tables = [_word_table(ch, 4, False) for ch in channels]
    return np.concatenate([t.transpose(0, 2, 1).reshape(len(t), -1) for t in tables], axis=1)


class _Classes(NamedTuple):
    """A channel group's node likelihoods as K classes: the (1, columns)
    classes of `_word_columns`, a left child's class at code f K + s and a
    right child's at (f K + s) q + left, from its halves' classes f and s,
    each class's symbol (a tie decides the smallest) and its (q, K) floats."""

    columns: np.ndarray
    left: np.ndarray
    right: np.ndarray
    decision: np.ndarray
    floats: np.ndarray
    count: np.intp


@functools.lru_cache(maxsize=16)
def _likelihood_classes(channels: tuple) -> _Classes | None:
    """Every normalised likelihood that a node of a decoder on this
    channel group can hold, as classes; None past _CLASS_CAP of them.

    A child's likelihoods at a position depend only on its halves' values
    there (and, in a right child, on one left symbol), so the float bit
    patterns of the depth-2 table's columns, closed under `_node` and
    `_normalise`, are all that any deeper node holds.  The children are
    computed on (q, K^2, 1) and (q, K^2, q) buffers, whose planes sum one
    after another as a node's do; for q > 4 a one-row leaf's planes sum
    pairwise, so those groups keep their floats.
    """
    q = channels[0].input_size
    if q > 4:
        return None
    columns = _word_columns(channels)
    probe = ScDecoder(channels[0], np.zeros(2, np.uint8))  # lends its _node
    found, count = columns.T.view(np.uint64), 0
    while True:
        bits, inverse = np.unique(found, axis=0, return_inverse=True)
        if len(bits) == count:  # no new class: closed
            break
        count = len(bits)
        if count > _CLASS_CAP:
            return None
        floats = bits.view(np.float64).T
        f, s, c = np.indices((count, count, q), np.uint8).reshape(3, count * count, q)
        left, right = np.empty((q, count * count, 1)), np.empty((q, count * count, q))
        probe._scratch = np.empty(right.size)
        probe._node(left, floats[:, f[:, :1]], floats[:, s[:, :1]], None)
        probe._node(right, floats[:, f], floats[:, s], c)
        _normalise(left)
        _normalise(right)
        found = np.concatenate([columns, left.reshape(q, -1), right.reshape(q, -1)], axis=1)
        found = found.T.view(np.uint64)
    codes, cut = inverse.reshape(-1).astype(np.uint8), columns.shape[1]
    classes = _Classes(
        codes[None, :cut], codes[cut : cut + count**2], codes[cut + count**2 :],
        floats.argmax(axis=0).astype(np.uint8), floats, np.intp(count),
    )
    for table in classes[:-1]:
        table.flags.writeable = False
    return classes


class ScDecoder:
    """Stepwise successive cancellation decoder over a batch of words.

    Indices must be visited in order 0..n-1; each is either decided from
    the split-channel likelihoods (`decide`) or supplied externally
    (`inject`), which is how frozen symbols resolved mid-decode enter.
    `amend` overwrites the last index's symbols on some rows before any
    later step reads them.

    The rows may come from several channels of one input size: `channel`
    and `received` are then sequences, one channel and one block of
    received rows each, and the blocks' rows follow one another.  Only the
    initial likelihoods depend on the channel, so for q <= 4 each row
    decides as it would in a decoder of its own block.  For q >= 8 a
    one-row leaf is a (q, 1, 1) buffer, whose plane sum numpy takes
    pairwise rather than plane by plane as on a larger node, so its last
    bits may differ from the same row's leaf in a batch.

    The decoder is lazy.  Depth d >= 2 of the code tree holds one node's
    likelihoods as a (q, n >> d, rows) buffer, about q n / 2 floats per
    row in all, and the received and fixed symbols are narrow (n, rows)
    arrays.  A depth-2 likelihood at position j depends only on the outputs
    y_{j + r n/4}, r < 4, and, in the node of rank t, the re-encoded
    symbols at j of the t depth-2 subtrees before it (each re-encoded
    once).  So for n >= 8, where every channel's table of 4-output words
    fits a tile's budget (DECODER_FLOATS / 16 floats), a depth-2 node is one
    gather from those tables.  Otherwise it is built in tiles of rows
    (within one block) from depth-1 tiles, gathered from the channel's
    table of output pairs, or computed from the channel where that passes
    the budget too.  A channel's first decoder builds its tables
    (`_word_table`).  `inject` only records symbols; `decide` computes the
    nodes on the path to its leaf below the deepest one that the previous
    decided index shares, a right child from its parent and its re-encoded
    left sibling, and decides a binary leaf by one compare.  Work is
    O(n log n) per word.

    Where a group takes the tables of 4-output words and its normalised
    likelihoods take at most _CLASS_CAP values, closed under a node's
    combines (`_likelihood_classes`: erasure channels take four), each node
    holds one uint8 class per position, a (1, n >> d, rows) buffer.  A child
    is then one take from a table of its halves' classes (and a right
    child's left symbol), and a leaf decides by one take from its classes'
    symbols, with the same decisions and leaf floats as the float path.  A
    group's first decoder builds its classes; other groups keep floats.

    With `exact=True` all arithmetic runs on rationals, without the tables
    of 4-output words, so likelihood ties are broken exactly (ties resolve
    to the smallest symbol value).
    """

    def __init__(self, channel, received, exact: bool = False):
        if isinstance(channel, DiscreteChannel):
            channel, received = (channel,), (received,)
        channels = tuple(channel)
        blocks = [np.atleast_2d(_integers(y)) for y in received]
        if not channels or len(channels) != len(blocks):
            raise ValueError("one block of received rows per channel required")
        if any(y.ndim != 2 for y in blocks):
            raise ValueError("received must be a vector or a batch of vectors")
        n, q = blocks[0].shape[1], channels[0].input_size
        if any(y.shape[1] != n for y in blocks):
            raise ValueError("received blocks disagree on block length")
        if any(ch.input_size != q for ch in channels):
            raise ValueError("channels disagree on input size")
        _check_power_of_two(n)
        _check_power_of_two(q)
        for ch, y in zip(channels, blocks):
            if (y.dtype.kind != "u" and np.any(y < 0)) or np.any(y >= ch.output_size):
                raise ValueError("received symbol out of the output alphabet")
        ends = np.cumsum([len(y) for y in blocks])
        batch = int(ends[-1])
        dtype = object if exact else np.float64
        self.n, self.q, self.batch = n, q, batch
        self._depth = n.bit_length() - 1
        # f[flips[c]] is plane v ^ c of f, its planes split into bit axes
        # (most significant first) for q > 2: c reverses the axes of its bits
        m = q.bit_length() - 1
        self._bits = (2,) * m
        self._flips = [tuple(slice(None, None, 1 - (c >> b & 1) * 2) for b in range(m)[::-1])
                       for c in range(q)]
        top = max(ch.output_size for ch in channels) - 1
        self._received = np.empty((n, batch), dtype=np.min_scalar_type(top))
        # depth-2 nodes gathered from the channels' tables of 4-output words
        self._quads = not exact and n >= 8 and all(
            _table_fits(q, ch.output_size, 4) for ch in channels
        )
        # where the group's likelihoods form few classes, a node holds classes
        self._classes = _likelihood_classes(channels) if self._quads else None
        tile = max(1, (DECODER_FLOATS >> 4) // (q * n))
        self._tiles = []  # (rows, transitions, pair table or None): within one block
        for ch, y, end in zip(channels, blocks, ends):
            self._received[:, end - len(y) : end] = y.T
            w = ch.transitions
            if exact:
                w = np.array([[Fraction(p) for p in r] for r in w], dtype=object)
            # a two-symbol word's leaf is normalised whole, as a node is
            table = None
            if n > 2 and not self._quads and _table_fits(q, ch.output_size, 2):
                table = _word_table(ch, 2, exact).reshape(q, -1)
            self._tiles += [
                (slice(a, min(a + tile, end)), w, table)
                for a in range(end - len(y), end, tile)
            ]
        g = n >> 2  # the size of a depth-2 node
        if self._quads:
            self._words_from(channels, ends)
        # re-encoded depth-2 subtrees, and how many are so far
        self._coded = np.empty((g if self._quads else 3 * g, batch), np.min_scalar_type(q - 1))
        self._encoded = 0
        first = min(2, self._depth)  # the shallowest depth held
        # q planes of likelihoods per node, or one plane of their classes
        planes, like = (q, dtype) if self._classes is None else (1, np.uint8)
        self._like = [None] * first + [
            np.empty((planes, n >> d, batch), dtype=like) for d in range(first, self._depth + 1)
        ]
        if not self._depth:  # a one-symbol word decides on its channel likelihoods
            for rows, w, _ in self._tiles:
                self._like[0][:, :, rows] = self._channel(rows, w, 0, 1)
        # the minus step's products: the largest node not tiled, or one
        # depth-1 tile computed from its channel; a gather's codes
        self._scratch = np.empty(q * max((n >> 3) * batch, (n >> 1) * min(tile, batch)), dtype)
        self._decided = np.zeros((n, batch), dtype=np.min_scalar_type(q - 1))
        # a binary leaf's compare writes bools into its row, with no cast
        self._flags = self._decided.view(np.bool_) if q == 2 else None
        self._i = 0
        self._last = None  # the last decided index, whose path is held

    def _words_from(self, channels, ends) -> None:
        """The depth-2 table of every channel's 4-output words
        (`_word_columns`, or their classes), and each row's column of its
        word at prefix rank 0 in it."""
        g, ranks = self.n >> 2, sum(self.q**t for t in range(4))
        self._table = _word_columns(channels) if self._classes is None else self._classes.columns
        self._words = np.zeros((g, self.batch), np.min_scalar_type(self._table.shape[1] - 1))
        self._prefix = np.zeros((g, self.batch), np.min_scalar_type(ranks - 1))
        base = 0  # the block's first column
        for ch, start, end in zip(channels, np.r_[0, ends[:-1]], ends):
            words = self._words[:, start:end]
            for r in range(4):
                words *= ch.output_size
                words += self._received[r * g : (r + 1) * g, start:end]
            words *= ranks
            words += base
            base += ranks * ch.output_size**4

    def _channel(self, rows, w, lo: int, hi: int) -> np.ndarray:
        """(q, hi - lo, rows) channel likelihoods of one block's rows."""
        return np.take(w, self._received[lo:hi, rows], axis=1, mode="clip")

    def _pairs(self, rows, w, table, left) -> np.ndarray:
        """One tile's (q, n / 2, rows) depth-1 node, the left child or the
        right one given `left`: gathered from the pair table, or computed
        from the channel, and not yet normalised, where there is none."""
        h = self.n >> 1
        if table is None:
            out = np.empty((self.q, h, rows.stop - rows.start), w.dtype)
            self._node(out, self._channel(rows, w, 0, h), self._channel(rows, w, h, self.n), left)
            return out
        y, k = self._received[:, rows], w.shape[1]
        codes = y[:h].astype(np.intp) if left is None else (left + np.intp(1)) * k + y[:h]
        codes *= k
        codes += y[h:]
        return np.take(table, codes, axis=1, mode="clip")

    def _reencode(self, t: int) -> None:
        """Re-encode each depth-2 subtree before rank t once: into the
        tables' prefix rank, or into `_coded`, where subtrees 0 and 1 end
        as the first half's transform."""
        g = self.n >> 2
        for r in range(self._encoded, t):
            e = self._coded if self._quads else self._coded[r * g : (r + 1) * g]
            np.copyto(e, self._decided[r * g : (r + 1) * g])
            _butterflies(e, axis=0)
            if self._quads:  # rank q p + 1 + e
                self._prefix *= self.q
                self._prefix += e
                self._prefix += 1
            elif r == 1:
                self._coded[:g] ^= e
        self._encoded = max(self._encoded, t)

    def _combine(self, d: int, i: int) -> None:
        """Compute the depth-d node on the path to index i from its parent;
        a depth-2 node (a depth-1 leaf when n = 2) by one gather, or one
        tile of rows at a time from its depth-1 parent's tile.

        Decisions and ties rest on this float order: a left child sums
        out[v] = f[v ^ c] s[c] over c = 0..q-1, a right child is
        out[x] = f[left ^ x] s[x], and both are divided by their plane sum.
        """
        size, out = self.n >> d, self._like[d]
        if d > 2:
            start = i >> (self._depth - d) << (self._depth - d)
            left = None
            if start & size:
                left = self._decided[start - size : start]
                if size > 1:  # a single symbol is its own transform
                    left = _butterflies(left.copy(), axis=0)
            parent = self._like[d - 1]
            if self._classes is not None:
                self._gather(out, parent[:, :size], parent[:, size:], left)
                return
            self._node(out, parent[:, :size], parent[:, size:], left)
            _normalise(out)
            return
        up = left = None
        if d == 1:  # n = 2
            up = self._decided[:1] if i else None
        else:
            t = i >> (self._depth - 2)  # the node's rank
            self._reencode(t)
            if self._quads:  # normalised in the table, or classes
                codes = self._scratch[: out[0].size].view(np.intp).reshape(out.shape[1:])
                np.add(self._words, self._prefix, out=codes)
                self._table.take(codes, axis=1, out=out, mode="clip")
                return
            up = self._coded[: 2 * size] if t & 2 else None
            left = self._coded[(t - 1) * size : t * size] if t & 1 else None
        for rows, w, table in self._tiles:  # a tile's parent goes when the loop moves on
            parent = self._pairs(rows, w, table, None if up is None else up[:, rows])
            if d == 1:
                out[:, :, rows] = parent
                continue
            if table is None:
                _normalise(parent)
            sub = None if left is None else left[:, rows]
            self._node(out[:, :, rows], parent[:, :size], parent[:, size:], sub)
        _normalise(out)  # as a whole: numpy sums a (q, 1, 1) tile's planes pairwise

    def _node(self, out, f, s, left) -> None:
        """The left child of halves f, s, or the right one given `left`."""
        o, g = out, f
        if self.q > 2:  # planes by bit axes, where a flip is a view
            o, g = out.reshape(self._bits + out.shape[1:]), f.reshape(self._bits + f.shape[1:])
        if left is not None:
            if out.dtype != object and out[0].size >= _XOR_SELECT_MIN:
                self._xor_select(out, f, left)
            else:
                np.copyto(out, f)
                for c in range(1, self.q):
                    np.copyto(o, g[self._flips[c]], where=left == c)
            out *= s
        else:
            product = self._scratch[: out.size].reshape(o.shape)
            np.multiply(f, s[0], out=out)
            for c in range(1, self.q):
                np.multiply(g[self._flips[c]], s[c], out=product)
                o += product

    def _gather(self, out, f, s, left) -> None:
        """The classes of the left child of halves f, s, or of the right
        one given `left`, by one take at their codes."""
        codes = self._scratch[: out.size].view(np.intp).reshape(out.shape)
        np.multiply(f, self._classes.count, out=codes)
        codes += s
        table = self._classes.left
        if left is not None:
            codes *= self.q
            codes += left
            table = self._classes.right
        table.take(codes, out=out, mode="clip")

    def _xor_select(self, out, f, left) -> None:
        """out[x] = f[x ^ left] on the float bit patterns, one bit of `left`
        per level: the masked XOR of each plane pair swaps it where the bit
        is set."""
        q, size, rows = out.shape
        src = f
        for b in range(q.bit_length() - 1):
            pairs = (q >> (b + 1), 2, 1 << b, size, rows)
            a = src.view(np.uint64).reshape(pairs)
            o = out.view(np.uint64).reshape(pairs)
            t = self._scratch[: out.size // 2].view(np.uint64).reshape(a[:, 0].shape)
            np.bitwise_xor(a[:, 0], a[:, 1], out=t)
            t &= np.negative((left >> b) & 1, dtype=np.uint64)  # all ones where set
            np.bitwise_xor(a[:, 0], t, out=o[:, 0])
            np.bitwise_xor(a[:, 1], t, out=o[:, 1])
            src = out

    def decide(self) -> np.ndarray:
        """Pick the likelihood-maximizing symbol at the current index."""
        i = self._i
        if i >= self.n:
            raise RuntimeError("decoder already finished")
        depth = self._depth
        shared = 0 if self._last is None else depth - (i ^ self._last).bit_length()
        for d in range(max(shared + 1, min(2, depth)), depth + 1):
            self._combine(d, i)
        leaf = self._like[depth][:, 0]
        self._i, self._last = i + 1, i
        if self._classes is not None:
            symbols = self._classes.decision.take(leaf[0], out=self._decided[i], mode="clip")
            return symbols.astype(np.int64)
        if self.q == 2:  # a tie decides 0, as argmax's first maximum does
            return np.greater(leaf[1], leaf[0], out=self._flags[i]).astype(np.int64)
        self._decided[i] = values = leaf.argmax(axis=0)
        return values

    def _leaf(self) -> np.ndarray:
        """The (q, rows) likelihoods of the leaf decided last."""
        leaf = self._like[self._depth][:, 0]
        return leaf if self._classes is None else self._classes.floats[:, leaf[0]]

    def inject(self, values, index: int | None = None) -> np.ndarray:
        """Supply the current index's symbols, one or one per row.  A 2-D
        (rows or 1, count) array supplies the next `count` indices at once."""
        i = self._i
        values = _integers(values)
        if values.ndim > 2:
            raise ValueError("inject takes a scalar, a row or a 2-D block")
        count = values.shape[1] if values.ndim == 2 else 1
        if i >= self.n:
            raise RuntimeError("decoder already finished")
        if index is not None and index != i:
            raise RuntimeError(f"out-of-order stepping: at index {i}, got {index}")
        if i + count > self.n:
            raise RuntimeError(f"{count} indices from {i} run past n={self.n}")
        shape = (self.batch, count) if values.ndim == 2 else (self.batch,)
        full = np.empty(shape, dtype=np.int64)
        full[...] = values  # broadcasts, or raises ValueError
        if (full < 0).any() or (full >= self.q).any():
            raise ValueError("injected symbol out of range")
        self._decided[i : i + count] = full.reshape(self.batch, -1).T
        self._i += count
        return full

    def amend(self, values, rows) -> None:
        """Overwrite the last fixed index's symbols, one per row, where the
        boolean `rows` is true.  No node computed so far depends on them."""
        if self._i == 0:
            raise RuntimeError("no index fixed yet")
        values = _integers(values).astype(np.int64, copy=False)
        rows = np.asarray(rows, dtype=bool)
        if values.shape != (self.batch,) or rows.shape != (self.batch,):
            raise ValueError(f"amend takes {self.batch} symbols and {self.batch} flags")
        # a negative symbol reads as at least 2^63 in uint64
        if np.count_nonzero(values[rows].view(np.uint64) >= self.q):
            raise ValueError("amended symbol out of range")
        np.copyto(self._decided[self._i - 1], values, where=rows, casting="unsafe")

    @property
    def decisions(self) -> np.ndarray:
        """All symbols fixed so far, decided and injected alike, as a
        (rows, indices) array."""
        return self._decided[: self._i].T.astype(np.int64, order="C")

    @property
    def codeword(self) -> np.ndarray:
        """Re-encoded transform output; available once finished."""
        if self._i < self.n:
            raise RuntimeError("decoder has not finished")
        return polar_encode(self.decisions)


def _walk_steps(info_sets) -> list:
    """(first index, index count, support) per step of `_sc_walk`; an
    index's support is the channels whose sets hold it, and a run of
    indices that no set holds is one step with no support."""
    n = info_sets[0].n
    held = np.array([np.isin(np.arange(n), a.indices) for a in info_sets])
    order = np.lexsort(held)  # indices of one support end up side by side
    new = np.r_[True, (held[:, order[1:]] != held[:, order[:-1]]).any(axis=0)]
    which = np.empty(n, dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    supports = [tuple(np.flatnonzero(p).tolist()) or None for p in held[:, order[new]].T]
    # a step starts at every held index and at the start of each unheld run
    starts = np.flatnonzero(held.any(axis=0) | np.r_[True, held[:, :-1].any(axis=0)])
    steps = zip(starts.tolist(), np.diff(np.r_[starts, n]).tolist(), which[starts].tolist())
    return [(k, count, supports[w]) for k, count, w in steps]


def _sc_walk(dec, steps, frozen, out, completions=(), symbols=None, lanes=None):
    """Walk `steps` with one `ScDecoder` whose rows are grouped by channel,
    one equal block each, into out[channel, :, index].  A step without
    support injects its run of `frozen`, a (rows or 1, n) array; at any
    other index every row decides.  Where `completions` holds the
    support, a (table, off) pair, MDS completion of the support's
    decisions through table[j][v] (symbol v at channel support[j])
    overwrites (`amend`) the rows that `off` marks.  `symbols` and
    `lanes` convert decoder values to field symbols and back where a row
    is a bit plane, whose symbols are written index by index; otherwise
    the decoder's symbols, injected, decided and amended, fill `out` once
    at the end.
    """
    s_count = len(out)
    for k, count, support in steps:
        if support is None:
            dec.inject(frozen[:, k : k + count], index=k)
            continue
        values = dec.decide()
        decided = (values if symbols is None else symbols(values)).reshape(s_count, -1)
        if support in completions:
            table, off = completions[support]
            full = table[0][decided[support[0]]]
            for j in range(1, len(support)):
                full ^= table[j][decided[support[j]]]
            decided = full.T
            values = decided.reshape(-1)
            dec.amend(values if lanes is None else lanes(values), off)
        if symbols is not None:
            out[:, :, k] = decided
    if symbols is None:
        out[...] = dec._decided.T.reshape(out.shape)


def list_decode(
    channel: DiscreteChannel,
    received,
    info_set: InformationSet,
    frozen,
    list_size: int = 1,
    exact: bool = False,
) -> np.ndarray:
    """Decode a batch of words whose frozen values are all known up front.

    `frozen` is a (batch, n) array (or one length-n row for every word)
    whose entries off the information set are the frozen symbols; entries
    on it are ignored.  Returns the decided input vectors, frozen symbols
    included, as a (batch, n) array.

    `list_size=1` is successive cancellation through `ScDecoder`, with its
    decisions and tie rule, on rationals with `exact=True`; each run of
    frozen indices is injected as one block.  A larger list size runs
    successive cancellation list decoding (Tal & Vardy, IEEE Trans. IT
    2015) on a binary-input channel and returns the most likely surviving
    path; it has no exact mode.
    """
    received = np.atleast_2d(_integers(received))
    batch, n = received.shape
    _check_power_of_two(n)
    if info_set.n != n:
        raise ValueError("information set and received words disagree on n")
    frozen = np.broadcast_to(_integers(frozen).astype(np.int64, copy=False), (batch, n))
    if int(list_size) != list_size or list_size < 1:
        raise ValueError(f"list size must be an integer >= 1, got {list_size!r}")
    if list_size == 1:
        out = frozen[None].copy()  # decisions overwrite the information set
        _sc_walk(ScDecoder(channel, received, exact), _walk_steps([info_set]), frozen, out)
        return out[0]
    if exact:
        raise ValueError("exact arithmetic needs list size 1")
    if channel.input_size != 2:
        raise ValueError("list decoding expects a binary-input channel")
    if np.any(received < 0) or np.any(received >= channel.output_size):
        raise ValueError("received symbol out of the output alphabet")
    if np.any((frozen != 0) & (frozen != 1)):
        raise ValueError("frozen symbols must be 0 or 1")
    return _ListDecoder(channel, received, info_set, frozen, list_size).run()


# An infinite LLR is held as this finite value so that sums of opposite
# certainties stay numbers; any real LLR sum is far below it.
_LLR_CAP = 1e30


# exp() leaves its fast path where its result underflows; no argument
# below this one changes a sum that the result enters.
_EXP_FLOOR = -700.0


def _exp_neg(x: np.ndarray, out=None) -> np.ndarray:
    """exp(-x), for x >= 0, floored at exp(_EXP_FLOOR)."""
    out = np.negative(x, out=out)
    np.maximum(out, _EXP_FLOOR, out=out)
    return np.exp(out, out=out)


def _softplus_neg(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(-x)), for x >= 0."""
    e = _exp_neg(x)
    return np.log1p(e, out=e)


def _llr_minus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact LLR of the first kernel input, 2 atanh(tanh(a/2) tanh(b/2)).

    With m = min(|a|, |b|), w = exp(-||a| - |b||) and v = exp(-2m) it is
    sign(ab) (m + log1p(w (v - 1) / (1 + w))), which stays exact for
    arbitrarily large magnitudes.
    """
    s = np.abs(a)
    t = np.abs(b)
    m = np.minimum(s, t)
    w = s
    w -= t
    np.abs(w, out=w)
    _exp_neg(w, out=w)
    v = np.multiply(m, 2.0, out=t)
    _exp_neg(v, out=v)
    v -= 1.0
    v *= w
    w += 1.0
    v /= w
    np.log1p(v, out=v)
    m += v
    np.multiply(a, b, out=v)
    return np.copysign(m, v, out=m)


class _ListDecoder:
    """Successive cancellation list decoding over (word, path) rows.

    Row b*L + l holds path l of word b.  Each tree depth keeps the LLRs of
    its current node and the left-child bits that node holds until its
    right child is done; both are read through per-depth row maps, so a
    path copy at an information index only reindexes the maps.  Work per
    word is O(L n log n).

    Two kinds of node are decided in one step.  By the chain rule the
    penalties that successive cancellation adds leaf by leaf inside a node
    with input LLRs a sum to sum_j -log P(x_j | a_j), x being the node's
    re-encoded bits.  A node without information indices therefore adds
    that sum to each path metric, and a node whose only information index
    is its last leaf (a repetition node, the single leaf included) ranks
    both values of that leaf by it.  Candidates are ranked by metric, ties
    going to the lower path and then to bit 0.
    """

    def __init__(self, channel, received, info_set, frozen, list_size):
        self.batch, self.n = received.shape
        self.L = list_size
        self.rows = self.batch * list_size
        self.depth = self.n.bit_length() - 1
        is_info = np.zeros(self.n, dtype=bool)
        is_info[list(info_set.indices)] = True
        self.info_before = [0] + np.cumsum(is_info).tolist()
        # coded[d]: the frozen values, 0 on the information set, re-encoded
        # within every depth-d node; a node's bits are [left ^ right, right]
        coded = np.where(is_info, 0, frozen).astype(np.int8)
        self.coded = [coded]
        for half in (1 << i for i in range(self.depth)):
            pairs = coded.reshape(self.batch, -1, 2, half)
            coded = np.concatenate(
                [pairs[:, :, :1] ^ pairs[:, :, 1:], pairs[:, :, 1:]], axis=2
            ).reshape(self.batch, self.n)
            self.coded.insert(0, coded)
        w = channel.transitions
        with np.errstate(divide="ignore", invalid="ignore"):
            llr = np.log(w[0]) - np.log(w[1])
        llr = np.nan_to_num(llr, nan=0.0, posinf=_LLR_CAP, neginf=-_LLR_CAP)
        self.llr = [llr[received]] + [None] * self.depth
        self.held = [None] * self.depth
        # rows 0..depth map the LLRs, rows depth+1.. the held bits
        self.maps = np.empty((2 * self.depth + 1, self.rows), dtype=np.intp)
        self.maps[0] = np.arange(self.rows) // self.L
        self.identity = np.arange(self.rows)
        self.offsets = np.arange(0, 2 * self.rows, 2 * self.L)[:, None]
        # path copies so far, and their count when each map was reset
        self.copies = 0
        self.stamp = [-1] * (2 * self.depth + 1)
        self.metric = np.full(self.rows, np.inf)
        self.metric[:: self.L] = 0.0

    def run(self) -> np.ndarray:
        x = self._node(0, 0).reshape(self.batch, self.L, self.n)
        best = np.argmin(self.metric.reshape(self.batch, self.L), axis=1)
        return polar_encode(x[np.arange(self.batch), best]).astype(np.int64)

    def _read(self, store, slot: int) -> np.ndarray:
        if self.stamp[slot] == self.copies:
            return store
        return store[self.maps[slot]]

    def _write(self, slot: int) -> None:
        self.maps[slot] = self.identity
        self.stamp[slot] = self.copies

    def _node(self, d: int, start: int) -> np.ndarray:
        """Decode the depth-d node over leaves [start, start + size) and
        return its re-encoded bits, one row per path."""
        size = self.n >> d
        stop = start + size
        alpha = self._read(self.llr[d], d)
        info = self.info_before[stop] - self.info_before[start]
        last_only = info == 1 and self.info_before[stop - 1] == self.info_before[start]
        if info == 0 or last_only:
            x = np.repeat(self.coded[d][:, start:stop], self.L, axis=0)
            mag = np.abs(alpha)
            wrong = (alpha < 0) ^ x  # x_j against the sign of a_j
            common = _softplus_neg(mag).sum(axis=1)
            cost = common + (mag * wrong).sum(axis=1)
            if info == 0:
                self.metric += cost
                return x
            flipped = common + (mag * (1 - wrong)).sum(axis=1)
            bit = self._branch(self.metric + cost, self.metric + flipped)
            return x ^ bit[:, None]
        half = size // 2
        self.llr[d + 1] = _llr_minus(alpha[:, :half], alpha[:, half:])
        self._write(d + 1)
        left = self._node(d + 1, start)
        alpha = self._read(self.llr[d], d)
        self.llr[d + 1] = alpha[:, half:] + alpha[:, :half] * (1 - 2 * left)
        self._write(d + 1)
        slot = self.depth + 1 + d
        self.held[d] = left
        self._write(slot)
        right = self._node(d + 1, start + half)
        left = self._read(self.held[d], slot)
        return np.concatenate([left ^ right, right], axis=1)

    def _branch(self, keep_cost, flip_cost) -> np.ndarray:
        """Split every path into its two candidates, given their metrics,
        and keep the best L; returns the flip bit of each new path."""
        cand = np.empty((self.batch, 2 * self.L))
        cand[:, 0::2] = keep_cost.reshape(self.batch, self.L)
        cand[:, 1::2] = flip_cost.reshape(self.batch, self.L)
        order = np.argsort(cand, axis=1, kind="stable")
        pick = (order[:, : self.L] + self.offsets).reshape(-1)
        self.metric = cand.reshape(-1)[pick]
        self.maps = self.maps[:, pick // 2]
        self.copies += 1
        return (pick % 2).astype(np.int8)


# ---------------------------------------------------------------------------
# exact error-event probabilities (small instances)
# ---------------------------------------------------------------------------


def error_event_probability(
    ch: DiscreteChannel,
    n: int,
    l: int,
    d: int,
    u,
    cap: int = 1 << 22,
) -> float:
    """Probability that index l's split-channel likelihood under the true
    symbol is <= the likelihood under the offset symbol u_l + d, given the
    transmitted input vector u.

    Evaluated by exact rational enumeration; ties therefore count toward
    the event exactly as written.
    """
    _check_power_of_two(n)
    q, y_size = ch.input_size, ch.output_size
    _check_power_of_two(q)
    u = np.asarray(u, dtype=np.int64)
    if u.shape != (n,):
        raise ValueError(f"input vector must have length {n}")
    if np.any(u < 0) or np.any(u >= q):
        raise ValueError("input symbol out of range")
    if not 0 <= l < n:
        raise ValueError(f"index {l} out of range")
    if not 1 <= d < q:
        raise ValueError(f"offset d={d} must be a nonzero symbol")
    cost = (y_size**n) * (q ** (n - 1 - l)) * 2
    if cost > cap:
        raise ResourceLimitError(f"enumeration cost {cost} exceeds cap {cap}")

    wf = [[Fraction(p) for p in row] for row in ch.transitions]

    def likelihood(cw, y) -> Fraction:
        term = Fraction(1)
        for t in range(n):
            term *= wf[cw[t]][y[t]]
            if term == 0:
                break
        return term

    suffixes = list(itertools.product(range(q), repeat=n - 1 - l))
    cw_true, cw_alt = (
        [polar_encode(np.array([*u[:l], symbol, *suffix])) for suffix in suffixes]
        for symbol in (u[l], u[l] ^ d)
    )
    x_sent = polar_encode(u)
    total = Fraction(0)
    for y in itertools.product(range(y_size), repeat=n):
        p_y = likelihood(x_sent, y)
        if p_y and sum(likelihood(c, y) for c in cw_true) <= sum(likelihood(c, y) for c in cw_alt):
            total += p_y
    return float(total)


# ---------------------------------------------------------------------------
# symbol-level erasure evolution for GF(2^m) constructions
# ---------------------------------------------------------------------------


def _subspaces(m: int) -> list[frozenset]:
    """All GF(2)-linear subspaces of the m-bit vector space (m <= 4)."""
    q = 1 << m
    seen = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for space in frontier:
            for g in range(1, q):
                if g in space:
                    continue
                # adjoining one generator to a subspace doubles it
                cand = frozenset(space | {v ^ g for v in space})
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def symbol_erasure_split_reliability(eps_bit: float, m: int, n: int) -> np.ndarray:
    """Per-index probability that a GF(2^m) split input stays ambiguous
    when each of the m underlying binary uses erases independently.

    Knowledge of a symbol observed through erasures is always "value up to
    a coset of a subspace"; the kernel maps subspace pairs to their sum
    (first input) or intersection (second input), so the evolution is
    exact on the subspace distribution.  The figure returned for an index
    is the probability its residual subspace is nontrivial, which upper
    bounds the symbol decision error there.  Used to build information
    sets for the GF(2^m) scheme.
    """
    if m < 1 or m > 4:
        raise ValueError("supported for 1 <= m <= 4")
    if not 0.0 <= eps_bit <= 1.0:
        raise ValueError(f"bit erasure probability {eps_bit} not in [0, 1]")
    _check_power_of_two(n)
    subs = _subspaces(m)
    index_of = {s: i for i, s in enumerate(subs)}
    nsub = len(subs)

    def span_of(a: frozenset, b: frozenset) -> frozenset:
        span = set(a)
        for g in b:
            span |= {v ^ g for v in span}
        return frozenset(span)

    # row i nsub + j of each scatter marks the sum or intersection of i, j
    scatter_sum = np.zeros((nsub * nsub, nsub))
    scatter_int = np.zeros((nsub * nsub, nsub))
    for i, a in enumerate(subs):
        for j, b in enumerate(subs):
            scatter_sum[i * nsub + j, index_of[span_of(a, b)]] = 1.0
            scatter_int[i * nsub + j, index_of[frozenset(a & b)]] = 1.0

    # initial distribution: erased bit positions span the ambiguity space
    init = np.zeros(nsub)
    for erased in itertools.product((0, 1), repeat=m):
        p = 1.0
        span = {0}
        for pos, e in enumerate(erased):
            p *= eps_bit if e else (1.0 - eps_bit)
            if e:
                unit = 1 << (m - 1 - pos)
                span |= {v ^ unit for v in span}
        init[index_of[frozenset(span)]] += p

    dist = init[None, :]
    while dist.shape[0] < n:
        pair = np.einsum("ai,aj->aij", dist, dist).reshape(dist.shape[0], -1)
        dist = np.stack([pair @ scatter_sum, pair @ scatter_int], axis=1).reshape(-1, nsub)
    return 1.0 - dist[:, index_of[frozenset({0})]]
