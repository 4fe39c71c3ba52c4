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

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

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
from .gf import FieldSpec

BINARY = FieldSpec(1)


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
    """Apply the polar transform along the last axis (self-inverse)."""
    x = np.array(u, dtype=np.int64)
    _check_power_of_two(x.shape[-1])
    return _butterflies(x)


@dataclass(frozen=True)
class PolarTransform:
    """Block length and field of the Kronecker-power transform."""

    n: int
    field: FieldSpec = BINARY

    def __post_init__(self):
        _check_power_of_two(self.n)

    def encode(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        if u.shape[-1] != self.n:
            raise ValueError(f"input length {u.shape[-1]} != n={self.n}")
        self.field._check_range(u)
        return polar_encode(u)

    # the transform is an involution in characteristic 2
    inverse = encode

    def matrix(self) -> np.ndarray:
        """The n x n 0/1 generator matrix (row i = transform of e_i)."""
        return polar_encode(np.eye(self.n, dtype=np.int64))


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
    initial likelihoods depend on the channel, so each row decides as it
    would in a decoder of its own block.

    The decoder is lazy.  Depth d of the code tree holds one node's
    likelihoods as a (q, n >> d, rows) buffer, and the symbols fixed so
    far are kept as an (n, rows) array, so every step runs over contiguous
    rows of the whole batch.  `inject` only records symbols; `decide`
    computes the nodes on the path to its leaf below the deepest one that
    the previous decided index shares, a right child from its parent and
    its re-encoded left sibling.  A subtree whose indices were all
    injected is never computed.  Work is O(n log n) per word.

    With `exact=True` all arithmetic runs on rationals, so likelihood ties
    are broken exactly (ties resolve to the smallest symbol value).
    """

    def __init__(self, channel, received, exact: bool = False):
        if isinstance(channel, DiscreteChannel):
            channel, received = (channel,), (received,)
        channels = tuple(channel)
        blocks = [np.atleast_2d(np.asarray(y, dtype=np.int64)) for y in received]
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
            if np.any(y < 0) or np.any(y >= ch.output_size):
                raise ValueError("received symbol out of the output alphabet")
        ends = np.cumsum([len(y) for y in blocks])
        batch = int(ends[-1])
        dtype = object if exact else np.float64
        self.n, self.q, self.batch = n, q, batch
        self._depth = n.bit_length() - 1
        self._like = [
            np.empty((q, n >> d, batch), dtype=dtype) for d in range(self._depth + 1)
        ]
        for ch, y, end in zip(channels, blocks, ends):
            w = ch.transitions
            if exact:
                w = np.array([[Fraction(p) for p in r] for r in w], dtype=object)
            block = self._like[0][:, :, end - len(y) : end]
            np.take(w, y.T, axis=1, out=block, mode="clip")  # y is checked above
        # the minus step's products, for the largest node
        self._scratch = np.empty(q * (n >> 1) * batch, dtype=dtype)
        # block[flips[c]][v] is block[v ^ c]; v ^ (q - 1) is a reversed view
        self._flips = [np.arange(q) ^ c for c in range(q - 1)]
        self._flips.append(slice(None, None, -1))
        self._decided = np.zeros((n, batch), dtype=np.min_scalar_type(q - 1))
        self._i = 0
        self._last = None  # the last decided index, whose path is held

    def _combine(self, d: int, i: int) -> None:
        """Compute the depth-d node on the path to index i from its parent.

        Decisions and ties rest on this float order: a left child sums
        out[v] = f[v ^ c] s[c] over c = 0..q-1, a right child is
        out[x] = f[left ^ x] s[x], and both are divided by their plane sum.
        """
        size, out = self.n >> d, self._like[d]
        f, s = self._like[d - 1][:, :size], self._like[d - 1][:, size:]
        start = i >> (self._depth - d) << (self._depth - d)
        if start & size:
            left = self._decided[start - size : start]
            if size > 1:  # a single symbol is its own transform
                left = _butterflies(left.copy(), axis=0)
            np.copyto(out, f)
            for c in range(1, self.q):
                np.copyto(out, f[self._flips[c]], where=left == c)
            out *= s
        else:
            product = self._scratch[: out.size].reshape(out.shape)
            np.multiply(f, s[0], out=out)
            for c in range(1, self.q):
                np.multiply(f[self._flips[c]], s[c], out=product)
                out += product
        if out.dtype != object:
            # exact mode skips this: it would only grow the rationals
            total = np.add.reduce(out, axis=0)
            total[total == 0.0] = 1.0
            out /= total

    def decide(self) -> np.ndarray:
        """Pick the likelihood-maximizing symbol at the current index."""
        i = self._i
        if i >= self.n:
            raise RuntimeError("decoder already finished")
        depth = self._depth
        shared = 0 if self._last is None else depth - (i ^ self._last).bit_length()
        for d in range(shared + 1, depth + 1):
            self._combine(d, i)
        values = self._like[depth][:, 0].argmax(axis=0)
        self._decided[i] = values
        self._i, self._last = i + 1, i
        return values.astype(np.int64, copy=False)

    def inject(self, values, index: int | None = None) -> np.ndarray:
        """Supply the current index's symbols, one or one per row.  A 2-D
        (rows or 1, count) array supplies the next `count` indices at once."""
        i = self._i
        values = np.asarray(values, dtype=np.int64)
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
        values = np.asarray(values, dtype=np.int64)
        rows = np.asarray(rows, dtype=bool)
        if values.shape != (self.batch,) or rows.shape != (self.batch,):
            raise ValueError(f"amend takes {self.batch} symbols and {self.batch} flags")
        amended = values[rows]
        if (amended < 0).any() or (amended >= self.q).any():
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


def sc_decode(
    transform: PolarTransform,
    info_set: InformationSet,
    channel: DiscreteChannel,
    received,
    resolver=None,
    exact: bool = False,
) -> np.ndarray:
    """One-shot successive cancellation decode of a single word.

    `resolver(index, decided_prefix) -> symbol` supplies frozen symbols;
    it defaults to all-zero.  The result carries the resolver's symbols
    off the information set and likelihood decisions on it.
    """
    received = np.asarray(received, dtype=np.int64)
    if received.shape != (transform.n,):
        raise ValueError(f"received must have length {transform.n}")
    if info_set.n != transform.n:
        raise ValueError("information set and transform disagree on n")
    dec = ScDecoder(channel, received[None, :], exact=exact)
    for i in range(transform.n):
        if i in info_set:
            dec.decide()
        else:
            prefix = tuple(dec.decisions[0].tolist())
            dec.inject(0 if resolver is None else int(resolver(i, prefix)), index=i)
    return dec.decisions[0]


def list_decode(
    channel: DiscreteChannel,
    received,
    info_set: InformationSet,
    frozen,
    list_size: int = 1,
) -> np.ndarray:
    """Decode a batch of words whose frozen values are all known up front.

    `frozen` is a (batch, n) array (or one length-n row for every word)
    whose entries off the information set are the frozen symbols; entries
    on it are ignored.  Returns the decided input vectors, frozen symbols
    included, as a (batch, n) array.

    `list_size=1` is successive cancellation through `ScDecoder`, with its
    decisions and tie rule; each run of frozen indices is injected as one
    block.  A larger list size runs successive cancellation list decoding
    (Tal & Vardy, IEEE Trans. IT 2015) on a binary-input channel and
    returns the most likely surviving path.
    """
    received = np.atleast_2d(np.asarray(received, dtype=np.int64))
    batch, n = received.shape
    _check_power_of_two(n)
    if info_set.n != n:
        raise ValueError("information set and received words disagree on n")
    frozen = np.broadcast_to(np.asarray(frozen, dtype=np.int64), (batch, n))
    if int(list_size) != list_size or list_size < 1:
        raise ValueError(f"list size must be an integer >= 1, got {list_size!r}")
    if list_size == 1:
        dec, start = ScDecoder(channel, received), 0
        for i in [*info_set.indices, n]:
            if i > start:
                dec.inject(frozen[:, start:i], index=start)
            if i < n:
                dec.decide()
            start = i + 1
        return dec.decisions
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
        return polar_encode(x[np.arange(self.batch), best])

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
    prefix = [int(v) for v in u[:l]]
    true_sym = int(u[l])
    alt_sym = true_sym ^ d

    def codewords_for(symbol: int) -> list[np.ndarray]:
        words = []
        for suffix in itertools.product(range(q), repeat=n - 1 - l):
            vec = np.array(prefix + [symbol] + list(suffix), dtype=np.int64)
            words.append(polar_encode(vec))
        return words

    cw_true = codewords_for(true_sym)
    cw_alt = codewords_for(alt_sym)
    x_sent = polar_encode(u)

    total = Fraction(0)
    for y in itertools.product(range(y_size), repeat=n):
        p_y = Fraction(1)
        for t in range(n):
            p_y *= wf[x_sent[t]][y[t]]
            if p_y == 0:
                break
        if p_y == 0:
            continue

        def split_mass(words) -> Fraction:
            mass = Fraction(0)
            for cw in words:
                term = Fraction(1)
                for t in range(n):
                    term *= wf[cw[t]][y[t]]
                    if term == 0:
                        break
                mass += term
            return mass

        if split_mass(cw_true) <= split_mass(cw_alt):
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

    sum_map = np.zeros((nsub, nsub), dtype=np.int64)
    int_map = np.zeros((nsub, nsub), dtype=np.int64)
    for i, a in enumerate(subs):
        for j, b in enumerate(subs):
            sum_map[i, j] = index_of[span_of(a, b)]
            int_map[i, j] = index_of[frozenset(a & b)]
    scatter_sum = np.zeros((nsub * nsub, nsub))
    scatter_int = np.zeros((nsub * nsub, nsub))
    for i in range(nsub):
        for j in range(nsub):
            scatter_sum[i * nsub + j, sum_map[i, j]] = 1.0
            scatter_int[i * nsub + j, int_map[i, j]] = 1.0

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
        minus = pair @ scatter_sum
        plus = pair @ scatter_int
        dist = np.stack([minus, plus], axis=1).reshape(-1, nsub)
    trivial = index_of[frozenset({0})]
    return 1.0 - dist[:, trivial]
