"""The three parallel coding schemes over S arbitrarily-assigned channels.

All schemes share the same protection idea: whenever a transform input
index is information-bearing on only d of the S channels, the S symbols
occupying that index across the codewords form a codeword of an (S, d)
MDS code.  Any d received-side symbols then determine the rest, so the
decoder never needs to know which codeword landed on which channel ahead
of time -- it only needs the assignment map itself.

Conventions:

* Channel lists are ordered best first (capacities nonincreasing for the
  degraded scheme).
* `pi` maps channel index s to the codeword label carried on that
  channel: channel s receives codeword pi[s].
* MDS codeword position j corresponds to codeword label j.
"""

from __future__ import annotations

import numpy as np

from .channel import capacity_uniform, channel_from_text, channel_to_text, product_power
from .gf import FieldSpec, bits_to_symbols, symbols_to_bits
from .mds import MdsFamily
from .polar import (
    DECODER_FLOATS,
    InformationSet,
    _erasure_parameter,
    _integers,
    _sc_walk,
    _walk_steps,
    ScDecoder,
    build_info_set,
    list_decode,
    monotone_info_sets,
    polar_encode,
    select_info_set,
    symbol_erasure_split_reliability,
)


class ConstructionError(ValueError):
    """Raised when a scheme cannot be built for the requested channels."""


def _validate_pi(pi, s_count: int) -> tuple[int, ...]:
    pi = tuple(int(v) for v in pi)
    if sorted(pi) != list(range(s_count)):
        raise ValueError(f"pi must be a bijection on 0..{s_count - 1}")
    return pi


def _as_batch(bits, k: int) -> tuple[np.ndarray, bool]:
    bits = np.asarray(bits)
    squeeze = bits.ndim == 1
    if squeeze:
        bits = bits[None, :]
    if bits.ndim != 2 or bits.shape[1] != k:
        raise ValueError(f"expected {k} information bits per message")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("information bits must be 0 or 1")
    return bits.astype(np.uint8, copy=False), squeeze


def _received_batch(received, s_count: int, uses: int) -> tuple[np.ndarray, bool]:
    """(S, batch, uses) received words, not copied if already an array."""
    y = np.asarray(received)
    squeeze = y.ndim == 2
    if squeeze:
        y = y[:, None]
    if y.ndim != 3 or len(y) != s_count:
        raise ValueError(f"expected {s_count} received sequences")
    if y.shape[2] != uses:
        raise ValueError(f"each received sequence must have {uses} uses")
    if not y.shape[1]:
        raise ValueError("expected at least one received word per channel")
    return y, squeeze


def _check_capacity_order(channels) -> None:
    caps = [capacity_uniform(ch) for ch in channels]
    for s in range(len(caps) - 1):
        if caps[s] < caps[s + 1] - 1e-9:
            raise ConstructionError(
                f"channels must be ordered by nonincreasing capacity; "
                f"channel {s} has {caps[s]:.6f} < {caps[s + 1]:.6f}"
            )


def _completions(steps, family, pi) -> dict:
    """`_sc_walk`'s completion tables for permutation `pi`, by partial
    support p: table[j, v] completes symbol v at channel p[j] and 0
    elsewhere."""
    s_count, q = len(pi), family.spec.q
    completions = {}
    for _, _, p in steps:
        if p is not None and len(p) < s_count and p not in completions:
            units = np.arange(q)[:, None] * np.eye(len(p), dtype=np.int64)[:, None]
            table = family.code(len(p)).complete_batch(pi[list(p)], units)
            completions[p] = table[:, :, pi]
    return completions


class _Scheme:
    """What the degraded and coupled schemes share: the checks of one set
    per channel, the field, the MDS family and the steps of one SC walk
    (`_walk`).  A subclass supplies `_decoder_input` and may convert
    decoder rows that hold bit planes (`_symbols`, `_lanes`); it defines
    `encode` and `decode` itself.
    """

    def __init__(self, channels, info_sets, m: int, field_poly: int):
        channels = tuple(channels)
        info_sets = tuple(info_sets)
        if len(channels) != len(info_sets):
            raise ValueError("one information set per channel required")
        if not channels:
            raise ValueError("need at least one channel")
        n = info_sets[0].n
        if any(a.n != n for a in info_sets):
            raise ValueError("information sets disagree on block length")
        self.channels = channels
        self.info_sets = info_sets
        self.S = len(channels)
        self.n = n
        self.m = m
        self.field = FieldSpec(m, field_poly)
        self._symbol_type = np.min_scalar_type(self.field.q - 1)
        self.family: MdsFamily = MdsFamily(self.field, self.S)
        self._steps = _walk_steps(info_sets)
        self._frozen = np.zeros((1, n), dtype=np.uint8)  # the walk's frozen symbols
        # an index that d of the S sets hold carries an (S, d) codeword
        missing = {len(p) for _, _, p in self._steps if p} - set(self.family.dims)
        if missing:
            raise ConstructionError(
                f"MDS family over GF(2^{m}) lacks dimensions {sorted(missing)} "
                f"needed for length {self.S}"
            )

    # a decoder row holds whole symbols unless a subclass converts
    _symbols = _lanes = None

    def _walk(self, y: np.ndarray, pi) -> np.ndarray:
        """Symbols u[label, batch, index] from one `ScDecoder` walk over all
        S channels (`_sc_walk`), in the fewest slices of messages of one
        size whose decoders stay within DECODER_FLOATS, one alive at a time."""
        channels, blocks = self._decoder_input(y)
        batch = y.shape[1]
        per = len(blocks[0]) // batch  # decoder rows per message and channel
        floats = sum(map(len, blocks)) * channels[0].input_size * self.n
        step = -(-batch // -(-floats // DECODER_FLOATS))  # ceilings
        completions = _completions(self._steps, self.family, np.array(pi))
        out = np.zeros((self.S, batch, self.n), dtype=self._symbol_type)  # by channel
        for a in range(0, batch, step):
            dec = ScDecoder(channels, [rows[a * per : (a + step) * per] for rows in blocks])
            count = dec.batch // self.S  # rows per channel
            tables = {  # a completion amends the rows of the channels off its support
                p: (table, np.repeat([s not in p for s in range(self.S)], count))
                for p, table in completions.items()
            }
            part = out[:, a : a + step]
            _sc_walk(dec, self._steps, self._frozen, part, tables, self._symbols, self._lanes)
            del dec
        return out[np.argsort(pi)]

    def rate(self) -> float:
        return scheme_rate(self)


# ---------------------------------------------------------------------------
# degraded channel-after-channel scheme
# ---------------------------------------------------------------------------


class DegradedScheme(_Scheme):
    """Channel-after-channel scheme for stochastically degraded lists.

    Layer j (0-based) occupies the index range sets[j] \\ sets[j+1]; a
    layer's symbol rows 0..j are information, rows j+1..S-1 are the MDS
    completions in the dimension-(j+1) family code.  Decoding runs best
    channel first; before stage s the layer s-1 completions reconstruct
    every still-unknown frozen value that stage needs.

    A frozen value at index k depends only on earlier stages' decisions
    at k, so with m = 1 and `list_size=1` (the defaults) one `ScDecoder`
    walks all stages index by index, as `CoupledScheme` does: at an index
    of layer j channels 0..j decide and completion amends the rest.  Each
    row sees its stage decoder's operations, so decisions are unchanged.
    Stages run one after another where a symbol spans m > 1 indices, and
    where a larger list size L runs list decoding on each stage
    (`list_decode`: L paths per word as rows of one `ScDecoder`) and keeps
    the most likely path.
    """

    kind = "degraded"

    def __init__(
        self,
        channels,
        info_sets,
        m: int = 1,
        b=None,
        field_poly: int = 0,
        list_size: int = 1,
    ):
        info_sets = tuple(info_sets)
        for s in range(len(info_sets) - 1):
            if not info_sets[s + 1].issubset(info_sets[s]):
                raise ValueError(
                    f"information sets must be nested: set {s + 1} is not "
                    f"contained in set {s}"
                )
        super().__init__(channels, info_sets, m, field_poly)
        n = self.n
        if n % m or any(len(a) % m for a in info_sets):
            raise ValueError("n and every set size must be multiples of m")
        k1 = len(info_sets[0])
        if b is None:
            b = np.zeros(n - k1, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if b.shape != (n - k1,):
            raise ValueError(f"frozen vector must have length {n - k1}")
        if np.any((b != 0) & (b != 1)):
            raise ValueError("frozen vector must be binary")
        b.flags.writeable = False
        if int(list_size) != list_size or list_size < 1:
            raise ValueError(f"list size must be an integer >= 1, got {list_size!r}")

        self.b = b
        self.list_size = int(list_size)
        # layer j index block: sets[j] minus sets[j+1] (empty set past the end)
        members = [set(a.indices) for a in info_sets] + [set()]
        self._layers = [
            sorted(members[j] - members[j + 1]) for j in range(self.S)
        ]
        # label and index of each information bit, in message order:
        # label-major, then layers S-1 down to the label's own
        labels, indices = [], []
        for s in range(self.S):
            for j in range(self.S - 1, s - 1, -1):
                labels += [s] * len(self._layers[j])
                indices += self._layers[j]
        self._free_labels = np.array(labels, dtype=np.int64)
        self._free_indices = np.array(indices, dtype=np.int64)
        self._frozen[0, sorted(set(range(n)) - members[0])] = b  # b off sets[0]
        self._walks = m == 1 and self.list_size == 1  # see the class docstring

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        channels,
        n: int,
        m: int = 1,
        rates=None,
        threshold: float | None = None,
        b=None,
        surrogate: bool = False,
        list_size: int = 1,
    ) -> "DegradedScheme":
        """Construct sets and assemble the scheme.

        The channels must be ordered best first, each a degraded version
        of its predecessor.  With `surrogate=True` they need not be
        degraded: sets come from their erasure surrogates, and the
        channels must be ordered by nondecreasing Bhattacharyya parameter
        (see `monotone_info_sets`).  `list_size` picks the stage decoder
        (see the class docstring).
        """
        channels = list(channels)
        if not surrogate:
            _check_capacity_order(channels)
        try:
            sets = monotone_info_sets(
                channels,
                n,
                rates=rates,
                threshold=threshold,
                method="surrogate" if surrogate else "auto",
                size_multiple=m,
            )
        except ValueError as exc:
            raise ConstructionError(str(exc)) from None
        return cls(channels, sets, m=m, b=b, list_size=list_size)

    # -- layout helpers ------------------------------------------------------

    @property
    def uses_per_channel(self) -> int:
        return self.n

    @property
    def info_bit_count(self) -> int:
        return sum(len(a) for a in self.info_sets)

    def layer_indices(self, j: int) -> list[int]:
        return self._layers[j]

    # -- encode --------------------------------------------------------------

    def _fill_u(self, bits: np.ndarray) -> np.ndarray:
        """Scatter info bits and MDS completions into u[label, batch, index]."""
        batch = bits.shape[0]
        u = np.zeros((self.S, batch, self.n), dtype=np.uint8)
        u[self._free_labels, np.arange(batch)[:, None], self._free_indices] = bits
        # complete each layer's missing rows through the family code
        for j in range(self.S - 1):
            self._complete_layer(u, j, tuple(range(j + 1)))
        return u

    def _complete_layer(self, u: np.ndarray, j: int, known_labels) -> None:
        """Complete layer j of u[label] on every label off `known_labels`,
        the j + 1 labels that hold it, through the family code."""
        idx = self._layers[j]
        if not idx:
            return
        known = np.stack(
            [bits_to_symbols(u[t][:, idx], self.field) for t in known_labels],
            axis=-1,
        )  # (batch, K, j + 1)
        full = self.family.code(j + 1).complete_batch(known_labels, known)
        for t in set(range(self.S)) - set(known_labels):
            u[t][:, idx] = symbols_to_bits(full[..., t], self.field)

    def encode(self, info_bits) -> np.ndarray:
        """Encode k info bits into S codewords of n bits: (S, batch, n)."""
        bits, squeeze = _as_batch(info_bits, self.info_bit_count)
        x = polar_encode(self._fill_u(bits) | self._frozen)
        return x[:, 0] if squeeze else x

    # -- decode --------------------------------------------------------------

    def _extract_bits(self, u: np.ndarray) -> np.ndarray:
        # all three indices advanced: a C-ordered (batch, bits) result
        rows = np.arange(u.shape[1])[:, None]
        return u[self._free_labels, rows, self._free_indices]

    def _decoder_input(self, y: np.ndarray):
        return self.channels, list(y)

    def decode(self, received, pi):
        """Recover all information bits from the S received vectors.

        `received[s]` is the output sequence of channel s (which carried
        codeword pi[s]).
        """
        pi = _validate_pi(pi, self.S)
        y, squeeze = _received_batch(received, self.S, self.n)
        u = self._walk(y, pi) if self._walks else self._decode_stages(y, pi)
        bits = self._extract_bits(u)
        return bits[0] if squeeze else bits

    def _decode_stages(self, y: np.ndarray, pi) -> np.ndarray:
        """Decode stage by stage, best channel first; u[label, batch, index]
        holds every frozen value of stage s when it starts."""
        u = np.zeros((self.S, y.shape[1], self.n), dtype=np.uint8) | self._frozen
        for s in range(self.S):
            if s:
                self._complete_layer(u, s - 1, pi[:s])
            u[pi[s]] = list_decode(
                self.channels[s], y[s], self.info_sets[s], u[pi[s]], self.list_size
            )
        return u


# ---------------------------------------------------------------------------
# coupled schemes: per-index MDS coupling of independently built codes
# ---------------------------------------------------------------------------


class CoupledScheme(_Scheme):
    """S polar codes over GF(2^m), coupled index by index through MDS codes.

    Codeword s carries free symbols on its set A^(s).  At transform index
    k the S symbols form a codeword of the family code whose dimension is
    the number of sets that hold k; the sets that hold k supply it, the
    rest is completed.  Each channel spends m*n binary uses per block.

    One `ScDecoder` per slice of messages decodes all S channels, its rows
    grouped by channel, walking the indices in order (`_Scheme._walk`, with
    frozen symbols 0).

    A subclass fixes how each channel's set is built (`_info_set`), how
    the m bit planes of a codeword are laid out for transmission
    (`_layout`), how the received uses become decoder rows
    (`_decoder_input`) and, when a row holds a bit plane, how decoder
    values and symbols convert (`_symbols`, `_lanes`).  It also binds
    `encode` and `decode` in its own namespace: the benchmark's chunk
    probe replaces and restores `type(scheme).encode`, which leaves it
    there, and its tracer wraps only classes that own both.
    """

    list_size = 1  # components always run successive cancellation

    def __init__(self, channels, info_sets, m: int, field_poly: int = 0):
        super().__init__(channels, info_sets, m, field_poly)
        # the indices that share each support: encoding completes a whole
        # group in one call
        groups: dict = {}
        for k, _, support in self._steps:
            if support is not None:
                groups.setdefault(support, []).append(k)
        self._groups = [(list(p), np.array(idx)) for p, idx in groups.items()]
        # label and index of each free symbol, in message order
        self._free_labels = np.repeat(np.arange(self.S), [len(a) for a in self.info_sets])
        self._free_indices = np.array(
            [k for a in self.info_sets for k in a.indices], dtype=np.int64
        )

    @classmethod
    def build(
        cls,
        channels,
        n: int,
        m: int,
        rates=None,
        threshold: float | None = None,
    ) -> "CoupledScheme":
        """Build each channel's set on its own (`_info_set`), at a rate per
        channel or one threshold, and couple them."""
        channels = list(channels)
        if (rates is None) == (threshold is None):
            raise ValueError("specify exactly one of rates and threshold")
        if rates is not None and len(rates) != len(channels):
            raise ValueError("one rate per channel required")
        sets = [
            cls._info_set(ch, n, m, None if rates is None else rates[s], threshold)
            for s, ch in enumerate(channels)
        ]
        return cls(channels, sets, m)

    @property
    def uses_per_channel(self) -> int:
        return self.m * self.n

    @property
    def info_bit_count(self) -> int:
        return self.m * sum(len(a) for a in self.info_sets)

    def encode(self, info_bits) -> np.ndarray:
        """Encode into S words of m*n bits each: (S, batch, m*n)."""
        bits, squeeze = _as_batch(info_bits, self.info_bit_count)
        batch = bits.shape[0]
        c = np.zeros((batch, self.S, self.n), dtype=self._symbol_type)
        c[:, self._free_labels, self._free_indices] = bits_to_symbols(bits, self.field)
        for support, idx in self._groups:
            known = c[:, support][:, :, idx].swapaxes(1, 2)  # (batch, K, d)
            full = self.family.code(len(support)).complete_batch(support, known)
            c[:, :, idx] = full.swapaxes(1, 2)
        # the kernel is 0/1, so the transform acts on every bit plane alike
        planes = symbols_to_bits(polar_encode(c), self.field)
        planes = planes.reshape(batch, self.S, self.n, self.m).transpose(1, 0, 2, 3)
        x = self._layout(planes)
        return x[:, 0] if squeeze else x

    def decode(self, received, pi):
        """Recover the information bits; `received[s]` is the output
        sequence of channel s, which carried codeword pi[s]."""
        pi = _validate_pi(pi, self.S)
        y, squeeze = _received_batch(received, self.S, self.uses_per_channel)
        symbols = self._walk(y, pi)
        free = symbols[self._free_labels, :, self._free_indices].T
        bits = symbols_to_bits(free, self.field)
        return bits[0] if squeeze else bits


class InterleavedScheme(CoupledScheme):
    """m interleaved binary polar codes per channel.

    Bit plane l of channel s's codeword is a binary polar codeword sent on
    uses [l*n, (l+1)*n).  One binary decoder per channel decodes all m
    lanes of every message as separate rows.
    """

    kind = "interleaved"
    encode = CoupledScheme.encode
    decode = CoupledScheme.decode

    @staticmethod
    def _info_set(channel, n: int, m: int, rate, threshold) -> InformationSet:
        return build_info_set(channel, n, rate=rate, threshold=threshold)

    def _layout(self, planes: np.ndarray) -> np.ndarray:
        return planes.swapaxes(2, 3).reshape(self.S, -1, self.m * self.n)

    def _decoder_input(self, y: np.ndarray):
        # row b*m + l of channel s's block holds lane l of message b
        return self.channels, list(y.reshape(self.S, -1, self.n))

    def _symbols(self, lanes: np.ndarray) -> np.ndarray:
        return bits_to_symbols(lanes.reshape(-1, self.m), self.field)[:, 0]

    def _lanes(self, symbols: np.ndarray) -> np.ndarray:
        return symbols_to_bits(symbols[:, None], self.field).reshape(-1)


class NonBinaryScheme(CoupledScheme):
    """One GF(2^m) polar code per channel over the m-use product channel.

    The m bits of symbol k are sent on uses [k*m, (k+1)*m), and the
    receiver groups every m uses into one product-channel output.
    """

    kind = "nonbinary"
    encode = CoupledScheme.encode
    decode = CoupledScheme.decode

    def __init__(self, channels, info_sets, m: int, field_poly: int = 0):
        super().__init__(channels, info_sets, m, field_poly)
        self.super_channels = tuple(product_power(ch, m) for ch in self.channels)

    @staticmethod
    def _info_set(channel, n: int, m: int, rate, threshold) -> InformationSet:
        """The symbol-level erasure evolution's set, seeded with the erasure
        probability of the channel's erasure stand-in (its own for an
        erasure channel, its Bhattacharyya parameter otherwise)."""
        z = symbol_erasure_split_reliability(_erasure_parameter(channel), m, n)
        return select_info_set(z, rate, threshold)

    def _layout(self, planes: np.ndarray) -> np.ndarray:
        return planes.reshape(self.S, -1, self.n * self.m)

    def pack_received(self, y_bits: np.ndarray, channel_index: int) -> np.ndarray:
        """Group m consecutive binary-channel outputs into product-channel
        output indices (first use most significant), of the narrowest
        unsigned type that holds them."""
        y_bits = _integers(y_bits)
        base = self.channels[channel_index].output_size
        if (y_bits.dtype.kind != "u" and np.any(y_bits < 0)) or np.any(y_bits >= base):
            raise ValueError("received symbol out of the output alphabet")
        dtype = np.min_scalar_type(base**self.m - 1)
        shape = y_bits.shape[:-1] + (self.n, self.m)
        grouped = y_bits.astype(dtype, copy=False).reshape(shape)
        out = grouped[..., 0].copy()
        for i in range(1, self.m):
            out *= base
            out += grouped[..., i]
        return out

    def _decoder_input(self, y: np.ndarray):
        # ScDecoder checks the packed outputs again, and keeps that check: it is public
        return self.super_channels, [self.pack_received(y[s], s) for s in range(self.S)]


SCHEMES = {cls.kind: cls for cls in (DegradedScheme, InterleavedScheme, NonBinaryScheme)}


def scheme_rate(scheme) -> float:
    """Total information bits per channel use, summed over the S channels.

    All three schemes transmit |A^(s)| * m bits in n * m uses on channel
    s, so the m factors cancel.
    """
    return sum(len(a) for a in scheme.info_sets) / scheme.n


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def scheme_to_manifest(scheme) -> str:
    """Text manifest sufficient to rebuild the scheme bit-exactly.

    A degraded scheme that list-decodes its stages gets a `list L` line;
    a manifest without one reads as L=1, successive cancellation.
    """
    lines = [
        f"scheme {scheme.kind}",
        f"S {scheme.S}",
        f"n {scheme.n}",
        f"m {scheme.m}",
        f"poly 0x{scheme.field.primitive_poly:x}",
    ]
    for ch in scheme.channels:
        lines.append(f"channel {channel_to_text(ch)}")
    for a in scheme.info_sets:
        lines.append(f"set {a.to_text()}")
    if scheme.kind == "degraded":
        lines.append("b " + ("".join(str(v) for v in scheme.b) or "-"))
        if scheme.list_size > 1:
            lines.append(f"list {scheme.list_size}")
    return "\n".join(lines) + "\n"


def scheme_from_manifest(text: str):
    fields = {}
    channels = []
    sets = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "channel":
            channels.append(channel_from_text(rest))
        elif key == "set":
            sets.append(InformationSet.from_text(rest))
        elif key in ("scheme", "S", "n", "m", "poly", "b", "list"):
            fields[key] = rest.strip()
        else:
            raise ValueError(f"unknown manifest key {key!r}")
    for required in ("scheme", "S", "n", "m", "poly"):
        if required not in fields:
            raise ValueError(f"manifest is missing the {required!r} field")
    kind = fields["scheme"]
    if kind not in SCHEMES:
        raise ValueError(f"unknown scheme kind {kind!r}")
    n = int(fields["n"])
    if len(channels) != int(fields["S"]) or len(sets) != len(channels):
        raise ValueError("manifest channel/set count disagrees with S")
    if any(a.n != n for a in sets):
        raise ValueError("manifest sets disagree with n")
    options = {"field_poly": int(fields["poly"], 16)}
    list_size = int(fields.get("list", 1))
    if kind == "degraded":
        b = fields.get("b", "-")
        options["b"] = None if b in ("-", "") else np.array([int(c) for c in b])
        options["list_size"] = list_size
    elif list_size != 1:
        raise ValueError(f"a {kind} scheme has no list decoder")
    elif "b" in fields:
        raise ValueError(f"a {kind} scheme has no frozen vector")
    return SCHEMES[kind](channels, sets, m=int(fields["m"]), **options)
