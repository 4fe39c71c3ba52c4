"""Monte Carlo harness for the permuted parallel channel.

Randomness is counter-based: every draw is determined by
(master_seed, trial index, lane), where lanes 0..S-1 carry per-channel
noise and lane S carries the message bits.  Results are therefore
independent of chunking and of how trials are split across workers.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
from dataclasses import dataclass
from itertools import permutations as _all_permutations

import numpy as np

_WILSON_Z = 1.959963984540054  # two-sided 95%
MAX_ALL_PERMUTATIONS_S = 6  # permutations="all" enumerates at most 6! = 720


@dataclass(frozen=True)
class PermutedParallelChannel:
    """S parallel channels plus the fixed codeword-to-channel assignment.

    Channel s receives codeword pi[s]; the assignment is unknown to the
    encoder and known to the decoder.
    """

    channels: tuple
    pi: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        pi = tuple(int(v) for v in self.pi)
        if sorted(pi) != list(range(len(channels))):
            raise ValueError("pi must be a bijection on the channel indices")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "pi", pi)

    @property
    def S(self) -> int:
        return len(self.channels)


# One Philox, rekeyed for every draw: building a generator per (trial,
# lane) costs several times as much as setting the state of this one.
_LANE_BITS = np.random.Philox(0)
_LANE_GEN = np.random.Generator(_LANE_BITS)
_LANE_LOCK = threading.Lock()
_FRESH_STATE = _LANE_BITS.state  # zero counter, nothing buffered


def _lane_draw(seed: int, trial: int, lane: int, out: np.ndarray) -> None:
    """Fill `out` from the start of the (trial, lane) stream, that of
    `Generator(Philox(key=[seed, trial << 8 | lane]))`: uniforms on [0, 1)
    for a float array, fair bits for an integer one."""
    key = np.array([seed, (trial << 8) | lane], dtype=np.uint64)
    with _LANE_LOCK:
        _FRESH_STATE["state"]["key"] = key
        _LANE_BITS.state = _FRESH_STATE
        if out.dtype.kind == "f":
            _LANE_GEN.random(out=out)
        else:
            out[...] = _LANE_GEN.integers(0, 2, out.shape)


def transmit(
    channel: PermutedParallelChannel, codewords, seed: int, trial: int = 0
) -> np.ndarray:
    """Send the S codewords of one trial, or of consecutive trials, through
    the assigned channels.

    `codewords` is (S, uses) for trial `trial`, or (S, b, uses) for the b
    trials from `trial` on; codewords[label] holds the codewords with that
    label.  The output, of the same shape, has channel s's observation of
    codeword pi[s] in row s.  Each use takes one uniform u from the
    (trial, lane s) stream and outputs the first index whose cumulative
    transition probability exceeds u.
    """
    codewords = np.asarray(codewords, dtype=np.int64)
    if codewords.ndim not in (2, 3) or codewords.shape[0] != channel.S:
        raise ValueError(f"expected {channel.S} codewords of equal length")
    x = codewords.reshape(channel.S, -1, codewords.shape[-1])
    y = np.zeros_like(x)
    u = np.empty(x.shape[1:])
    for s, ch in enumerate(channel.channels):
        for i in range(x.shape[1]):
            _lane_draw(seed, trial + i, s, u[i])
        cdf = np.cumsum(ch.transitions, axis=1)
        # the first index whose cumulative sum exceeds u is the number of
        # sums u reaches among all but the last, which is 1 in exact terms
        for j in range(ch.output_size - 1):
            y[s] += u >= cdf[:, j][x[channel.pi[s]]]
    return y.reshape(codewords.shape)


@dataclass(frozen=True)
class TrialReport:
    """Monte Carlo outcome for one permutation."""

    permutation: tuple
    n: int
    rate: float
    trials: int
    errors: int
    bler: float
    ci_low: float
    ci_high: float
    seed: int
    bit_errors: int = 0

    @property
    def bit_error_rate(self) -> float:
        return self.bit_errors / max(1, self.trials)


def _wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    z = _WILSON_Z
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def _run_trial_range(scheme, channels, pi, seed, start, stop, chunk):
    """Error counts over [start, stop); deterministic per trial."""
    s_count = len(channels)
    k = scheme.info_bit_count
    ppc = PermutedParallelChannel(tuple(channels), tuple(pi))
    block_errors = 0
    bit_errors = 0
    t = start
    while t < stop:
        b = min(chunk, stop - t)
        msgs = np.empty((b, k), dtype=np.int64)
        for i in range(b):
            _lane_draw(seed, t + i, s_count, msgs[i])
        y = transmit(ppc, scheme.encode(msgs), seed, t)  # (S, b, uses)
        decoded = scheme.decode(list(y), pi)
        wrong = decoded != msgs
        block_errors += int(np.count_nonzero(wrong.any(axis=1)))
        bit_errors += int(np.count_nonzero(wrong))
        t += b
    return block_errors, bit_errors


def _worker(args):
    return _run_trial_range(*args)


def evaluate(
    scheme,
    permutations="all",
    trials: int = 1000,
    master_seed: int = 0,
    channels=None,
    workers: int = 1,
    chunk: int | None = None,
) -> list[TrialReport]:
    """Estimate the block error rate per permutation.

    `permutations` is "all" (S! of them; rejected for S > 6) or an
    explicit list.  `channels` overrides the scheme's design channels for
    the actual transmission and decoding.  Output is reproducible for a
    fixed master_seed regardless of `workers` and `chunk`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    channels = list(channels) if channels is not None else list(scheme.channels)
    s_count = len(channels)
    if permutations == "all":
        if s_count > MAX_ALL_PERMUTATIONS_S:
            raise ValueError(
                f"refusing to enumerate more than {MAX_ALL_PERMUTATIONS_S}! "
                "permutations; pass an explicit list"
            )
        perm_list = [tuple(p) for p in _all_permutations(range(s_count))]
    else:
        perm_list = [tuple(int(v) for v in p) for p in permutations]
    uses = scheme.uses_per_channel
    if chunk is None:
        # keep decoder working sets around a few hundred MB; a list
        # decoder holds list_size paths per trial
        per_trial = uses * 2**scheme.m * scheme.list_size
        chunk = max(1, min(trials, (1 << 21) // per_trial))
    rate = scheme.rate()
    if workers > 1:
        # one pool for the whole call: every permutation's trials are split
        # into the same ranges, and the counts are summed per permutation
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        tasks = [
            (scheme, channels, pi, master_seed, a, b, chunk)
            for pi in perm_list
            for a, b in ranges
        ]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_worker, tasks)
        per = len(ranges)
        counts = [
            tuple(map(sum, zip(*parts[i * per : (i + 1) * per])))
            for i in range(len(perm_list))
        ]
    else:
        counts = [
            _run_trial_range(scheme, channels, pi, master_seed, 0, trials, chunk)
            for pi in perm_list
        ]
    reports = []
    for pi, (block_errors, bit_errors) in zip(perm_list, counts):
        lo, hi = _wilson_interval(block_errors, trials)
        reports.append(
            TrialReport(
                permutation=pi,
                n=uses,
                rate=rate,
                trials=trials,
                errors=block_errors,
                bler=block_errors / trials,
                ci_low=lo,
                ci_high=hi,
                seed=master_seed,
                bit_errors=bit_errors,
            )
        )
    return reports


CSV_HEADER = "permutation,n,rate,trials,errors,bler,ci_low,ci_high,seed"


def reports_to_csv(reports) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        perm = "-".join(str(v) for v in r.permutation)
        lines.append(
            f"{perm},{r.n},{r.rate!r},{r.trials},{r.errors},"
            f"{r.bler!r},{r.ci_low!r},{r.ci_high!r},{r.seed}"
        )
    return "\n".join(lines) + "\n"
