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

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import (
    DiscreteChannel,
    capacity_uniform,
    is_bec_like,
    product_power,
)
from .gf import FieldSpec, bits_to_symbols, symbols_to_bits
from .mds import MdsFamily
from .polar import (
    InformationSet,
    _erasure_parameter,
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
    bits = np.asarray(bits, dtype=np.int64)
    squeeze = bits.ndim == 1
    if squeeze:
        bits = bits[None, :]
    if bits.ndim != 2 or bits.shape[1] != k:
        raise ValueError(f"expected {k} information bits per message")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("information bits must be 0 or 1")
    return bits, squeeze


def _received_batch(received, s_count: int, uses: int) -> tuple[np.ndarray, bool]:
    arrays = [np.asarray(r, dtype=np.int64) for r in received]
    if len(arrays) != s_count:
        raise ValueError(f"expected {s_count} received sequences")
    squeeze = arrays[0].ndim == 1
    arrays = [a[None, :] if a.ndim == 1 else a for a in arrays]
    for a in arrays:
        if a.ndim != 2 or a.shape[1] != uses:
            raise ValueError(f"each received sequence must have {uses} uses")
    return np.stack(arrays), squeeze


def _check_capacity_order(channels) -> None:
    caps = [capacity_uniform(ch) for ch in channels]
    for s in range(len(caps) - 1):
        if caps[s] < caps[s + 1] - 1e-9:
            raise ConstructionError(
                f"channels must be ordered by nonincreasing capacity; "
                f"channel {s} has {caps[s]:.6f} < {caps[s + 1]:.6f}"
            )


# ---------------------------------------------------------------------------
# degraded channel-after-channel scheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageRecord:
    """What one decoding stage produced (used by tests and diagnostics)."""

    channel: int
    codeword: int
    resolved_layers: dict
    decoded_layers: dict


class DegradedScheme:
    """Channel-after-channel scheme for stochastically degraded lists.

    Layer j (0-based) occupies the index range sets[j] \\ sets[j+1]; a
    layer's symbol rows 0..j are information, rows j+1..S-1 are the MDS
    completions in the dimension-(j+1) family code.  Decoding runs best
    channel first; before stage s the layer s-1 completions reconstruct
    every still-unknown frozen value that stage needs.

    Every frozen value of a stage is therefore known before the stage
    starts, so any decoder of that stage's polar code serves.  With
    `list_size=1` (the default) each stage runs successive cancellation;
    a larger list size runs successive cancellation list decoding with
    that many paths and keeps the most likely one.
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
        channels = tuple(channels)
        info_sets = tuple(info_sets)
        s_count = len(channels)
        if s_count != len(info_sets):
            raise ValueError("one information set per channel required")
        if s_count < 1:
            raise ValueError("need at least one channel")
        n = info_sets[0].n
        if any(a.n != n for a in info_sets):
            raise ValueError("information sets disagree on block length")
        for s in range(s_count - 1):
            if not info_sets[s + 1].issubset(info_sets[s]):
                raise ValueError(
                    f"information sets must be nested: set {s + 1} is not "
                    f"contained in set {s}"
                )
        field = FieldSpec(m, field_poly)
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

        self.channels = channels
        self.info_sets = info_sets
        self.S = s_count
        self.n = n
        self.m = m
        self.field = field
        self.family: MdsFamily = MdsFamily(field, s_count)
        self.b = b
        self.list_size = int(list_size)
        # layer j index block: sets[j] minus sets[j+1] (empty set past the end)
        members = [set(a.indices) for a in info_sets] + [set()]
        self._layers = [
            sorted(members[j] - members[j + 1]) for j in range(s_count)
        ]
        self._frozen_positions = sorted(set(range(n)) - members[0])
        needed = {j + 1 for j in range(s_count - 1) if len(self._layers[j])}
        missing = needed - set(self.family.dims)
        if missing:
            raise ConstructionError(
                f"MDS family over GF(2^{m}) lacks dimensions {sorted(missing)} "
                f"needed for length {s_count}"
            )

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

    def _info_cells(self):
        """(row, layer) pairs that hold plain information bits, in the
        deterministic fill order: row-major, outermost layer last."""
        for s in range(self.S):
            for j in range(self.S - 1, s - 1, -1):
                yield s, j

    # -- encode --------------------------------------------------------------

    def _fill_u(self, bits: np.ndarray) -> np.ndarray:
        """Scatter info bits and MDS completions into u[label, batch, index]."""
        batch = bits.shape[0]
        u = np.zeros((self.S, batch, self.n), dtype=np.int64)
        pos = 0
        for s, j in self._info_cells():
            width = len(self._layers[j])
            if width:
                u[s][:, self._layers[j]] = bits[:, pos : pos + width]
            pos += width
        # complete each layer's missing rows through the family code
        for j in range(self.S - 1):
            idx = self._layers[j]
            if not idx:
                continue
            dim = j + 1
            code = self.family.code(dim)
            known = np.stack(
                [bits_to_symbols(u[s][:, idx], self.field) for s in range(dim)],
                axis=-1,
            )  # (batch, K, dim)
            full = code.complete_batch(tuple(range(dim)), known)
            for s in range(dim, self.S):
                u[s][:, idx] = symbols_to_bits(full[..., s], self.field)
        return u

    def encode(self, info_bits) -> np.ndarray:
        """Encode k info bits into S codewords of n bits: (S, batch, n)."""
        bits, squeeze = _as_batch(info_bits, self.info_bit_count)
        u = self._fill_u(bits)
        if self._frozen_positions:
            u[:, :, self._frozen_positions] = self.b
        x = polar_encode(u)
        return x[:, 0] if squeeze else x

    # -- decode --------------------------------------------------------------

    def _extract_bits(self, u: np.ndarray) -> np.ndarray:
        batch = u.shape[1]
        out = np.zeros((batch, self.info_bit_count), dtype=np.int64)
        pos = 0
        for s, j in self._info_cells():
            width = len(self._layers[j])
            if width:
                out[:, pos : pos + width] = u[s][:, self._layers[j]]
            pos += width
        return out

    def decode(self, received, pi, trace: bool = False):
        """Recover all information bits from the S received vectors.

        `received[s]` is the output sequence of channel s (which carried
        codeword pi[s]).  Returns the bit array, plus the per-stage trace
        when requested.
        """
        pi = _validate_pi(pi, self.S)
        y, squeeze = _received_batch(received, self.S, self.n)
        batch = y.shape[1]
        u = np.zeros((self.S, batch, self.n), dtype=np.int64)
        records = []
        for s in range(self.S):
            label = pi[s]
            resolved = {}
            if s >= 1:
                j = s - 1
                idx = self._layers[j]
                if idx:
                    code = self.family.code(s)
                    vals = np.stack(
                        [
                            bits_to_symbols(u[pi[t]][:, idx], self.field)
                            for t in range(s)
                        ],
                        axis=-1,
                    )
                    full = code.complete_batch(tuple(pi[t] for t in range(s)), vals)
                    for t in range(s, self.S):
                        u[pi[t]][:, idx] = symbols_to_bits(
                            full[..., pi[t]], self.field
                        )
                    resolved[j] = u[label][:, idx].copy()
            # frozen values for this stage: static vector plus resolved layers
            frozen_vals = np.zeros((batch, self.n), dtype=np.int64)
            if self._frozen_positions:
                frozen_vals[:, self._frozen_positions] = self.b
            for j in range(s):
                idx = self._layers[j]
                if idx:
                    frozen_vals[:, idx] = u[label][:, idx]
            u[label] = list_decode(
                self.channels[s], y[s], self.info_sets[s], frozen_vals,
                self.list_size,
            )
            if trace:
                records.append(
                    StageRecord(
                        channel=s,
                        codeword=label,
                        resolved_layers=resolved,
                        decoded_layers={
                            j: u[label][:, self._layers[j]].copy()
                            for j in range(s, self.S)
                            if self._layers[j]
                        },
                    )
                )
        bits = self._extract_bits(u)
        if squeeze:
            bits = bits[0]
        return (bits, records) if trace else bits

    def rate(self) -> float:
        return scheme_rate(self)


# ---------------------------------------------------------------------------
# coupled schemes: per-index MDS coupling of independently built codes
# ---------------------------------------------------------------------------


class CoupledScheme:
    """S polar codes over GF(2^m), coupled index by index through MDS codes.

    Codeword s carries free symbols on its set A^(s).  At transform index
    k the S symbols form a codeword of the family code whose dimension is
    the number of sets that hold k; the sets that hold k supply it, the
    rest is completed.  Each channel spends m*n binary uses per block.

    One `ScDecoder` decodes all S channels, its rows grouped by channel,
    and walks the indices in order.  A run of indices that no set holds is
    injected as one block of zeros.  At any other index every row
    decides; where only some sets hold the index, MDS completion of the
    decisions of the channels whose sets hold it overwrites (`amend`) the
    rows of the others before anyone moves on.

    A subclass fixes how the m bit planes of a codeword are laid out for
    transmission (`_layout`), how the received uses become decoder rows
    (`_decoder_input`) and, when a row holds a bit plane, how decoder
    values and symbols convert (`_symbols`, `_lanes`).  It also binds
    `encode` and `decode` in its own namespace: the benchmark's chunk
    probe replaces and restores `type(scheme).encode`, which leaves it
    there, and its tracer wraps only classes that own both.
    """

    list_size = 1  # components always run successive cancellation

    def __init__(self, channels, info_sets, m: int, field_poly: int = 0):
        channels = tuple(channels)
        info_sets = tuple(info_sets)
        if len(channels) != len(info_sets):
            raise ValueError("one information set per channel required")
        n = info_sets[0].n
        if any(a.n != n for a in info_sets):
            raise ValueError("information sets disagree on block length")
        self.channels = channels
        self.info_sets = info_sets
        self.S = len(channels)
        self.n = n
        self.m = m
        self.field = FieldSpec(m, field_poly)
        self.family: MdsFamily = MdsFamily(self.field, self.S)
        # each index's support (the channels whose sets hold it), and the
        # indices that share each nonempty support: encoding completes a
        # whole group in one call
        supports = [
            tuple(s for s, a in enumerate(info_sets) if k in a) for k in range(n)
        ]
        groups: dict = {}
        for k, support in enumerate(supports):
            if support:
                groups.setdefault(support, []).append(k)
        self._groups = [(list(p), np.array(idx)) for p, idx in groups.items()]
        missing = {len(p) for p in groups} - set(self.family.dims)
        if missing:
            raise ConstructionError(f"MDS family lacks dimensions {sorted(missing)}")
        # the decode walk: (first index, index count, support, channels off
        # it); a run of indices that no set holds has no support
        self._steps = []
        k = 0
        for empty, run in itertools.groupby(supports, key=lambda p: not p):
            run = list(run)
            if empty:
                self._steps.append((k, len(run), None, None))
            else:
                for j, p in enumerate(run, k):
                    off = np.array([s not in p for s in range(self.S)])
                    self._steps.append((j, 1, list(p), off))
            k += len(run)
        # label and index of each free symbol, in message order
        self._free_labels = np.repeat(np.arange(self.S), [len(a) for a in info_sets])
        self._free_indices = np.array(
            [k for a in info_sets for k in a.indices], dtype=np.int64
        )

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
        c = np.zeros((batch, self.S, self.n), dtype=np.int64)
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
        pi = np.array(_validate_pi(pi, self.S))
        y, squeeze = _received_batch(received, self.S, self.uses_per_channel)
        batch = y.shape[1]
        dec = ScDecoder(*self._decoder_input(y))
        symbols = np.zeros((self.S, batch, self.n), dtype=np.int64)  # by channel
        for k, count, support, off in self._steps:
            if support is None:
                dec.inject(np.zeros((1, count), dtype=np.int64), index=k)
                continue
            decided = self._symbols(dec.decide()).reshape(self.S, batch)
            if len(support) < self.S:
                code = self.family.code(len(support))
                decided = code.complete_batch(pi[support], decided[support].T).T[pi]
                rows = np.repeat(off, dec.batch // self.S)
                dec.amend(self._lanes(decided.reshape(-1)), rows)
            symbols[:, :, k] = decided
        channel_of = np.argsort(pi)  # the channel that carried each label
        free = symbols[channel_of[self._free_labels], :, self._free_indices].T
        bits = symbols_to_bits(free, self.field)
        return bits[0] if squeeze else bits

    def _symbols(self, values: np.ndarray) -> np.ndarray:
        return values

    def _lanes(self, symbols: np.ndarray) -> np.ndarray:
        return symbols

    def rate(self) -> float:
        return scheme_rate(self)


class InterleavedScheme(CoupledScheme):
    """m interleaved binary polar codes per channel.

    Bit plane l of channel s's codeword is a binary polar codeword sent on
    uses [l*n, (l+1)*n).  One binary decoder per channel decodes all m
    lanes of every message as separate rows.
    """

    kind = "interleaved"
    encode = CoupledScheme.encode
    decode = CoupledScheme.decode

    @classmethod
    def build(
        cls,
        channels,
        n: int,
        m: int,
        rates=None,
        threshold: float | None = None,
    ) -> "InterleavedScheme":
        channels = list(channels)
        if (rates is None) == (threshold is None):
            raise ValueError("specify exactly one of rates and threshold")
        sets = [
            build_info_set(
                ch,
                n,
                rate=None if rates is None else rates[s],
                threshold=threshold,
            )
            for s, ch in enumerate(channels)
        ]
        return cls(channels, sets, m)

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

    @classmethod
    def build(
        cls,
        channels,
        n: int,
        m: int,
        rates=None,
        threshold: float | None = None,
    ) -> "NonBinaryScheme":
        """Sets come from the symbol-level erasure evolution, seeded with
        the erasure probability of each channel's erasure stand-in (its
        own for an erasure channel, its Bhattacharyya parameter otherwise)."""
        channels = list(channels)
        if (rates is None) == (threshold is None):
            raise ValueError("specify exactly one of rates and threshold")
        sets = []
        for idx, ch in enumerate(channels):
            z = symbol_erasure_split_reliability(_erasure_parameter(ch), m, n)
            rate = None if rates is None else rates[idx]
            sets.append(select_info_set(z, rate, threshold))
        return cls(channels, sets, m)

    def _layout(self, planes: np.ndarray) -> np.ndarray:
        return planes.reshape(self.S, -1, self.n * self.m)

    def pack_received(self, y_bits: np.ndarray, channel_index: int) -> np.ndarray:
        """Group m consecutive binary-channel outputs into product-channel
        output indices (first use most significant)."""
        y_bits = np.asarray(y_bits, dtype=np.int64)
        base = self.channels[channel_index].output_size
        grouped = y_bits.reshape(y_bits.shape[:-1] + (self.n, self.m))
        out = np.zeros(grouped.shape[:-1], dtype=np.int64)
        for i in range(self.m):
            out = out * base + grouped[..., i]
        return out

    def _decoder_input(self, y: np.ndarray):
        return self.super_channels, [self.pack_received(y[s], s) for s in range(self.S)]


def scheme_rate(scheme) -> float:
    """Total information bits per channel use, summed over the S channels.

    All three schemes transmit |A^(s)| * m bits in n * m uses on channel
    s, so the m factors cancel.
    """
    return sum(len(a) for a in scheme.info_sets) / scheme.n


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def _channel_descriptor(ch: DiscreteChannel) -> str:
    from . import channel as chmod

    eps = is_bec_like(ch)
    if eps is not None and ch == chmod.bec(eps):
        return f"bec {float(eps)!r}"
    if ch.input_size == 2 and ch.output_size == 2:
        p = float(ch.transitions[0, 1])
        if ch == chmod.bsc(p):
            return f"bsc {p!r}"
    flat = " ".join(repr(float(v)) for v in ch.transitions.reshape(-1))
    return f"matrix {ch.input_size} {ch.output_size} {flat}"


def _channel_from_descriptor(text: str) -> DiscreteChannel:
    from . import channel as chmod

    parts = text.split()
    kind = parts[0]
    if kind == "bec":
        return chmod.bec(float(parts[1]))
    if kind == "bsc":
        return chmod.bsc(float(parts[1]))
    if kind == "matrix":
        q, out = int(parts[1]), int(parts[2])
        vals = [float(v) for v in parts[3:]]
        if len(vals) != q * out:
            raise ValueError("matrix descriptor has the wrong entry count")
        return DiscreteChannel(np.array(vals).reshape(q, out))
    raise ValueError(f"unknown channel descriptor {kind!r}")


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
        lines.append(f"channel {_channel_descriptor(ch)}")
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
    b_bits = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "channel":
            channels.append(_channel_from_descriptor(rest))
        elif key == "set":
            sets.append(InformationSet.from_text(rest))
        elif key == "b":
            b_bits = rest.strip()
        else:
            fields[key] = rest.strip()
    list_size = int(fields.pop("list", 1))
    for required in ("scheme", "S", "n", "m", "poly"):
        if required not in fields:
            raise ValueError(f"manifest is missing the {required!r} field")
    kind = fields["scheme"]
    s_count = int(fields["S"])
    n = int(fields["n"])
    m = int(fields["m"])
    poly = int(fields["poly"], 16)
    if len(channels) != s_count or len(sets) != s_count:
        raise ValueError("manifest channel/set count disagrees with S")
    if any(a.n != n for a in sets):
        raise ValueError("manifest sets disagree with n")
    if kind == "degraded":
        if b_bits in (None, "-", ""):
            b = None
        else:
            b = np.array([int(c) for c in b_bits], dtype=np.int64)
        return DegradedScheme(
            channels, sets, m=m, b=b, field_poly=poly, list_size=list_size
        )
    if list_size != 1:
        raise ValueError(f"a {kind} scheme has no list decoder")
    if kind == "interleaved":
        return InterleavedScheme(channels, sets, m, field_poly=poly)
    if kind == "nonbinary":
        return NonBinaryScheme(channels, sets, m, field_poly=poly)
    raise ValueError(f"unknown scheme kind {kind!r}")
