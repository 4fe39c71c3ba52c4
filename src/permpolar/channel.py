"""Finite-alphabet channel models and measurements.

A DiscreteChannel is a row-stochastic transition matrix with inputs on the
rows.  Everything downstream (Bhattacharyya, capacity, degradation tests,
channel products, output merging) operates on this one type.  Outputs are
plain column indices, so received data is always an integer array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12
DEFAULT_OUTPUT_CAP = 1 << 20


class ResourceLimitError(RuntimeError):
    """Raised when a synthesized alphabet would exceed the configured cap."""


@dataclass(frozen=True)
class DiscreteChannel:
    """Finite-alphabet channel p(y|x) as a q x out matrix."""

    transitions: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transitions, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
            raise ValueError("transition matrix must be 2-D and nonempty")
        if np.any(t < -ROW_SUM_TOL):
            raise ValueError("transition probabilities must be nonnegative")
        rows = t.sum(axis=1)
        if not np.all(np.abs(rows - 1.0) <= 1e-9):  # NaN fails too
            raise ValueError("every transition row must sum to 1")
        t = np.clip(t, 0.0, None)
        t = t / t.sum(axis=1, keepdims=True)
        t.flags.writeable = False
        object.__setattr__(self, "transitions", t)

    @property
    def input_size(self) -> int:
        return self.transitions.shape[0]

    @property
    def output_size(self) -> int:
        return self.transitions.shape[1]

    def __eq__(self, other):
        return isinstance(other, DiscreteChannel) and np.array_equal(
            self.transitions, other.transitions
        )

    def __hash__(self):
        return hash(self.transitions.tobytes())

    def __repr__(self):
        return f"DiscreteChannel(q={self.input_size}, out={self.output_size})"


def bec(epsilon: float) -> DiscreteChannel:
    """Binary erasure channel; outputs are (0, 1, erasure)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"erasure probability {epsilon} not in [0, 1]")
    return DiscreteChannel(
        np.array([[1.0 - epsilon, 0.0, epsilon], [0.0, 1.0 - epsilon, epsilon]])
    )


def bsc(p: float) -> DiscreteChannel:
    """Binary symmetric channel with crossover probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"crossover probability {p} not in [0, 1]")
    return DiscreteChannel(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def q_ary_symmetric(q: int, p: float) -> DiscreteChannel:
    """q-ary symmetric channel: stays put w.p. 1-p, else uniform error."""
    if q < 2:
        raise ValueError("need q >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"error probability {p} not in [0, 1]")
    t = np.full((q, q), p / (q - 1))
    np.fill_diagonal(t, 1.0 - p)
    return DiscreteChannel(t)


def bhattacharyya(ch: DiscreteChannel) -> float:
    """Binary Bhattacharyya parameter sum_y sqrt(p(y|0) p(y|1))."""
    if ch.input_size != 2:
        raise ValueError("binary definition; use bhattacharyya_qary for q > 2")
    t = ch.transitions
    return float(np.sum(np.sqrt(t[0] * t[1])))


def bhattacharyya_qary(ch: DiscreteChannel) -> float:
    """Max pairwise Bhattacharyya over distinct input symbols.

    Diagnostic figure for q > 2 channels; the constructions never consume
    it, the binary parameter does all analytical work.
    """
    t = ch.transitions
    worst = 0.0
    for a in range(ch.input_size):
        for b in range(a + 1, ch.input_size):
            worst = max(worst, float(np.sum(np.sqrt(t[a] * t[b]))))
    return worst


def capacity_uniform(ch: DiscreteChannel) -> float:
    """Mutual information in bits between an equiprobable input and the output."""
    t = ch.transitions
    q = ch.input_size
    py = t.mean(axis=0)
    mask = t > 0
    ratio = np.zeros_like(t)
    ratio[mask] = t[mask] / np.broadcast_to(py, t.shape)[mask]
    terms = np.zeros_like(t)
    terms[mask] = t[mask] * np.log2(ratio[mask])
    return float(terms.sum() / q)


def is_degraded(
    p1: DiscreteChannel, p2: DiscreteChannel, tol: float = 1e-9
) -> np.ndarray | None:
    """Search for a channel D with P2 = P1 @ D.

    Returns the witness matrix, or None when none exists within `tol`;
    absence is a result, not an error.  Two erasure-like channels (see
    `is_bec_like`) are decided in closed form: BEC(e2) is a degraded
    BEC(e1) iff e1 <= e2.  Any other pair is a min-max-residual LP, and
    `scipy.optimize` is imported at the first one.
    """
    if p1.input_size != p2.input_size:
        raise ValueError("channels must share an input alphabet")
    e1, e2 = is_bec_like(p1, tol), is_bec_like(p2, tol)
    if e1 is not None and e2 is not None:
        if e1 > e2 + tol:
            return None
        d = _erasure_witness(p1.transitions, p2.transitions, tol)
        if np.max(np.abs(p1.transitions @ d - p2.transitions)) <= tol:
            return d
    return _lp_witness(p1, p2, tol)


def _erasure_witness(t1: np.ndarray, t2: np.ndarray, tol: float) -> np.ndarray:
    """D with t1 @ D = t2 for erasure-like channels with e1 <= e2: a known
    output of x stays known w.p. (1 - e2) / (1 - e1), spread over t2's
    known outputs of x by mass; all other mass goes to t2's erasures."""
    known1 = (t1 > tol) & ~np.all(t1 > tol, axis=0)
    erased2 = np.all(t2 > tol, axis=0)
    known2 = np.where(erased2, 0.0, t2 * (t2 > tol))
    w = t2.mean(axis=0) * erased2
    w = w / w.sum() if w.sum() > 0 else t2.mean(axis=0)
    d = np.tile(w, (t1.shape[1], 1))
    for x in range(2):
        k1, k2 = t1[x, known1[x]].sum(), known2[x].sum()
        if k1 > 0 and k2 > 0:
            r = min(1.0, k2 / k1)
            d[known1[x]] = r * known2[x] / k2 + (1.0 - r) * w
    return d


def _lp_witness(p1: DiscreteChannel, p2: DiscreteChannel, tol: float):
    """`is_degraded` for any pair, by linear feasibility."""
    from scipy.optimize import linprog

    q = p1.input_size
    y1, y2 = p1.output_size, p2.output_size
    nvar = y1 * y2 + 1  # D entries plus the residual bound t

    # equality: each row of D sums to 1
    a_eq = np.zeros((y1, nvar))
    for i in range(y1):
        a_eq[i, i * y2 : (i + 1) * y2] = 1.0
    b_eq = np.ones(y1)

    # inequalities: |(P1 D - P2)[x, j]| <= t
    n_c = q * y2
    a_ub = np.zeros((2 * n_c, nvar))
    b_ub = np.zeros(2 * n_c)
    t1 = p1.transitions
    t2 = p2.transitions
    row = 0
    for x in range(q):
        for j in range(y2):
            for i in range(y1):
                a_ub[row, i * y2 + j] = t1[x, i]
                a_ub[row + n_c, i * y2 + j] = -t1[x, i]
            a_ub[row, -1] = -1.0
            a_ub[row + n_c, -1] = -1.0
            b_ub[row] = t2[x, j]
            b_ub[row + n_c] = -t2[x, j]
            row += 1

    c = np.zeros(nvar)
    c[-1] = 1.0
    bounds = [(0.0, 1.0)] * (y1 * y2) + [(0.0, 2.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if not res.success or res.x[-1] > tol:
        return None
    d = np.clip(res.x[:-1].reshape(y1, y2), 0.0, None)
    d = d / d.sum(axis=1, keepdims=True)
    residual = float(np.max(np.abs(t1 @ d - t2)))
    if residual > tol:
        d = res.x[:-1].reshape(y1, y2)
        residual = float(np.max(np.abs(t1 @ d - t2)))
        if residual > tol:
            return None
    return d


@dataclass(frozen=True)
class SymmetryWitness:
    """Output symmetry certificate.

    For q = 2 `table` is an involutive output permutation T with
    p(y|0) = p(T(y)|1).  For q > 2 `table[y, d]` is a map, bijective in y
    for each d, with p(y|x) = p(table[y, d] | x + d) for all x.
    """

    q: int
    table: np.ndarray

    def check(self, ch: DiscreteChannel, tol: float = 1e-9) -> bool:
        t = ch.transitions
        if self.q == 2:
            perm = self.table
            if np.any(perm[perm] != np.arange(ch.output_size)):
                return False
            return bool(np.all(np.abs(t[0] - t[1][perm]) <= tol))
        for d in range(self.q):
            tau = self.table[:, d]
            if len(set(tau.tolist())) != ch.output_size:
                return False
            for x in range(self.q):
                if np.any(np.abs(t[x] - t[x ^ d][tau]) > tol):
                    return False
        return True


def _match_vectors(vectors: np.ndarray, targets: np.ndarray, tol: float):
    """Greedy bijection tau with vectors[tau[y]] == targets[y] within tol."""
    n = len(vectors)
    used = np.zeros(n, dtype=bool)
    tau = np.full(n, -1, dtype=np.int64)
    for y in range(n):
        found = -1
        for cand in range(n):
            if used[cand]:
                continue
            if np.all(np.abs(vectors[cand] - targets[y]) <= tol):
                found = cand
                break
        if found < 0:
            return None
        used[found] = True
        tau[y] = found
    return tau


def check_symmetry(ch: DiscreteChannel, tol: float = 1e-9) -> SymmetryWitness | None:
    """Find an output-symmetry witness, or None when the channel has none."""
    t = ch.transitions
    q = ch.input_size
    n_out = ch.output_size
    if q == 2:
        # pair outputs whose likelihood pairs are mirror images
        perm = np.full(n_out, -1, dtype=np.int64)
        for y in range(n_out):
            if perm[y] >= 0:
                continue
            partner = -1
            for cand in range(y, n_out):
                if perm[cand] >= 0:
                    continue
                if (
                    abs(t[0, cand] - t[1, y]) <= tol
                    and abs(t[1, cand] - t[0, y]) <= tol
                ):
                    partner = cand
                    break
            if partner < 0:
                return None
            perm[y] = partner
            perm[partner] = y
        witness = SymmetryWitness(2, perm)
        return witness if witness.check(ch, tol) else None

    columns = t.T  # likelihood vector per output
    table = np.zeros((n_out, q), dtype=np.int64)
    for d in range(q):
        # want p(tau(y)|x+d) = p(y|x), i.e. column[tau(y)][x+d] = column[y][x]
        targets = columns[:, [x ^ d for x in range(q)]]
        tau = _match_vectors(columns, targets, tol)
        if tau is None:
            return None
        table[:, d] = tau
    witness = SymmetryWitness(q, table)
    return witness if witness.check(ch, tol) else None


def product_power(
    ch: DiscreteChannel, m: int, cap: int = DEFAULT_OUTPUT_CAP
) -> DiscreteChannel:
    """View m uses of a binary channel as one GF(2^m)-input channel.

    Input symbol x maps to its m bits (MSB first, matching the bit/symbol
    packing); output index packs the m per-use outputs with the first use
    most significant.
    """
    if ch.input_size != 2:
        raise ValueError("product_power expects a binary-input channel")
    if m < 1:
        raise ValueError("need m >= 1")
    if ch.output_size**m > cap:
        raise ResourceLimitError(
            f"output alphabet {ch.output_size}^{m} exceeds cap {cap}"
        )
    if m == 1:
        return ch
    t = ch.transitions
    rows = []
    for x in range(1 << m):
        bits = [(x >> (m - 1 - i)) & 1 for i in range(m)]
        row = t[bits[0]]
        for b in bits[1:]:
            row = np.multiply.outer(row, t[b]).reshape(-1)
        rows.append(row)
    return DiscreteChannel(np.stack(rows))


def merge_outputs(ch: DiscreteChannel, tol: float = 0.0) -> DiscreteChannel:
    """Merge outputs with (near-)identical posterior direction.

    Outputs whose normalized likelihood vectors agree within `tol`
    (infinity norm; tol=0 means exact equality) are summed.  With tol=0
    the merged channel is a sufficient statistic: capacity and
    Bhattacharyya are unchanged; with tol>0 they move by O(tol).
    Zero-probability outputs are dropped.
    """
    t = ch.transitions
    totals = t.sum(axis=0)
    keep = totals > 0
    t = t[:, keep]
    totals = totals[keep]
    directions = t / totals  # columns normalized to unit mass
    order = np.lexsort(directions[::-1])  # deterministic sweep order
    merged_cols = []
    i = 0
    while i < len(order):
        j = i + 1
        base = directions[:, order[i]]
        while j < len(order) and np.all(
            np.abs(directions[:, order[j]] - base) <= tol
        ):
            j += 1
        merged_cols.append(t[:, order[i:j]].sum(axis=1))
        i = j
    return DiscreteChannel(np.stack(merged_cols, axis=1))


def is_bec_like(ch: DiscreteChannel, tol: float = 1e-9) -> float | None:
    """Return the erasure probability if the channel is a BEC up to output
    relabeling/merging, else None."""
    if ch.input_size != 2:
        return None
    t = ch.transitions
    erased0 = erased1 = 0.0
    for y in range(ch.output_size):
        p0, p1 = t[0, y], t[1, y]
        if p0 > tol and p1 > tol:
            if abs(p0 - p1) > tol:
                return None
            erased0 += p0
            erased1 += p1
    if abs(erased0 - erased1) > max(tol, 1e-9):
        return None
    return float(0.5 * (erased0 + erased1))


def channel_to_text(ch: DiscreteChannel) -> str:
    """One line: `bec e` or `bsc p` when the channel is exactly that one,
    else `matrix q out` followed by the q rows of probabilities."""
    eps = is_bec_like(ch)
    if eps is not None and ch == bec(eps):
        return f"bec {eps!r}"
    p = float(ch.transitions[0, 1]) if ch.transitions.shape == (2, 2) else None
    if p is not None and ch == bsc(p):
        return f"bsc {p!r}"
    flat = " ".join(repr(float(v)) for v in ch.transitions.reshape(-1))
    return f"matrix {ch.input_size} {ch.output_size} {flat}"


def channel_from_text(text: str) -> DiscreteChannel:
    """Read `channel_to_text`'s form, `qsc q p`, or the older layout: a
    line `q out`, then q rows of out probabilities.

    Probabilities are kept as written, not renormalised: a row that was
    normalised once need not survive a second normalisation, and then a
    channel would not read back as itself.
    """
    kind, *args = text.split() or [""]
    arity = {"bec": 1, "bsc": 1, "qsc": 2}.get(kind)
    if arity is not None:
        if len(args) != arity:
            raise ValueError(f"{kind!r} takes {arity} values, got {len(args)}")
        if kind == "qsc":
            return q_ary_symmetric(int(args[0]), float(args[1]))
        return (bec if kind == "bec" else bsc)(float(args[0]))
    if kind == "matrix":
        q, out = (int(v) for v in args[:2])
        values = args[2:]
    else:
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        try:
            q, out = (int(v) for v in lines[0])
        except (ValueError, IndexError):
            raise ValueError("expected bec, bsc, qsc, matrix or a 'q out' line") from None
        if any(len(row) != out for row in lines[1:]):
            raise ValueError(f"expected {out} entries per row")
        values = [v for row in lines[1:] for v in row]
    if len(values) != q * out:
        raise ValueError(f"a {q} x {out} matrix takes {q * out} entries, got {len(values)}")
    t = np.array(values, dtype=np.float64).reshape(q, out)
    ch = DiscreteChannel(t)  # validates
    t = np.clip(t, 0.0, None)
    t.flags.writeable = False
    object.__setattr__(ch, "transitions", t)
    return ch
