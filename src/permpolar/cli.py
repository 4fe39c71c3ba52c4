"""Batch front-end: construct schemes, simulate, compute rate bounds.

Configuration is a plain key = value text file; unknown keys are
rejected.  All output is deterministic under a fixed seed.

Exit codes: 0 success, 2 configuration error, 3 construction infeasible,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field

import numpy as np

from . import channel as chmod
from .channel import ResourceLimitError
from .compound import (
    DEFAULT_MERGE_TOL,
    DEPTH_CAP,
    bound_table,
    capacity_ascending,
)
from .parallel import (
    SCHEMES,
    ConstructionError,
    DegradedScheme,
    InterleavedScheme,
    NonBinaryScheme,
    scheme_from_manifest,
    scheme_to_manifest,
)
from .simrunner import MAX_ALL_PERMUTATIONS_S, evaluate, reports_to_csv


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Parsed experiment description."""

    scheme: str = "degraded"
    channels: list = field(default_factory=list)
    n: int = 0
    m: int = 1
    rates: list | None = None
    threshold: float | None = None
    trials: int = 1000
    seed: int = 0
    permutations: str | list = "all"
    out: str | None = None
    depth: int = 4
    merge_tol: float = DEFAULT_MERGE_TOL
    surrogate: bool = False


def _parse_channel(token: str):
    """`file:PATH`, or a channel's text form with `:` between its fields,
    such as `bec:0.1` (see `channel.channel_from_text`)."""
    kind, _, path = token.partition(":")
    try:
        if kind == "file":
            with open(path) as fh:
                return chmod.channel_from_text(fh.read())
        return chmod.channel_from_text(token.replace(":", " "))
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad channel token {token!r}: {exc}") from None


def _parse_permutations(value: str):
    """`all`, or `;`-separated comma lists such as `0,1,2;2,1,0`."""
    if value == "all":
        return "all"
    return [tuple(int(v) for v in grp.split(",")) for grp in value.split(";")]


def _one_of(*choices):
    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value

    return parse


# one parser per ExperimentConfig field
_PARSERS = {
    "scheme": _one_of(*SCHEMES),
    "channels": lambda v: [_parse_channel(t) for t in v.split()],
    "n": int,
    "m": int,
    "rates": lambda v: [float(t) for t in v.split()],
    "threshold": float,
    "trials": int,
    "seed": int,
    "permutations": _parse_permutations,
    "out": str,
    "depth": int,
    "merge_tol": float,
    "surrogate": lambda v: _one_of("true", "false")(v) == "true",
}


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return cfg


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _build_scheme(cfg: ExperimentConfig):
    if not cfg.channels:
        raise ConfigError("config must list channels")
    if cfg.n < 1:
        raise ConfigError("config must set n")
    if (cfg.rates is None) == (cfg.threshold is None):
        raise ConfigError("set exactly one of rates and threshold")
    if cfg.rates is not None and len(cfg.rates) != len(cfg.channels):
        raise ConfigError("need one rate per channel")
    if cfg.m < 1:
        raise ConfigError(f"m must be at least 1, got {cfg.m}")
    if cfg.surrogate and cfg.scheme != "degraded":
        raise ConfigError(f"surrogate = true needs scheme = degraded, not {cfg.scheme}")
    options = {"surrogate": True} if cfg.surrogate else {}
    try:
        return SCHEMES[cfg.scheme].build(
            cfg.channels, cfg.n, m=cfg.m, rates=cfg.rates, threshold=cfg.threshold, **options
        )
    except ValueError as exc:  # ConstructionError included
        raise ConstructionError(str(exc)) from None


def cmd_construct(args) -> int:
    cfg = _load_config(args.config)
    out = args.out or cfg.out
    if not out:
        raise ConfigError("construct needs an output path (--out or out=)")
    scheme = _build_scheme(cfg)
    manifest = scheme_to_manifest(scheme)
    with open(out, "w") as fh:
        fh.write(manifest)
    for s, a in enumerate(scheme.info_sets):
        print(f"channel {s}: |A| = {len(a)}")
    print(f"scheme_rate = {scheme.rate()!r}")
    print(f"manifest written to {out}")
    return 0


def _load_manifest(path: str):
    try:
        with open(path) as fh:
            return scheme_from_manifest(fh.read())
    except ConstructionError:
        raise
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad manifest {path}: {exc}") from None


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    scheme = _load_manifest(args.manifest)
    if cfg.channels and list(scheme.channels) != list(cfg.channels):
        raise ConfigError("manifest channels do not match the config channels")
    if cfg.n and scheme.n != cfg.n:
        raise ConfigError("manifest n does not match the config n")
    trials = cfg.trials if args.trials is None else args.trials
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    seed = cfg.seed if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {seed}")
    if args.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {args.workers}")
    permutations = cfg.permutations
    if args.permutations:
        try:
            permutations = _parse_permutations(args.permutations)
        except ValueError as exc:
            raise ConfigError(f"--permutations: {exc}") from None
    if permutations == "all" and scheme.S > MAX_ALL_PERMUTATIONS_S:
        raise ConfigError(
            f"permutations = all would enumerate {scheme.S}! assignments, "
            f"more than {MAX_ALL_PERMUTATIONS_S}!; pass --permutations"
        )
    if permutations != "all":
        for pi in permutations:
            if sorted(pi) != list(range(scheme.S)):
                raise ConfigError(
                    f"permutation {','.join(map(str, pi))} is not a bijection "
                    f"on 0..{scheme.S - 1}"
                )
    reports = evaluate(
        scheme,
        permutations=permutations,
        trials=trials,
        master_seed=seed,
        workers=args.workers,
    )
    csv = reports_to_csv(reports)
    out = args.out or cfg.out
    if out:
        with open(out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    if not cfg.channels:
        raise ConfigError("config must list channels")
    if cfg.depth > DEPTH_CAP:
        raise ResourceLimitError(
            f"depth {cfg.depth} exceeds cap {DEPTH_CAP}"
        )
    if cfg.depth < 0:
        raise ConfigError(f"depth {cfg.depth} is negative")
    if any(ch.input_size != 2 for ch in cfg.channels):
        raise ConfigError("bounds need binary-input channels")
    ordered = capacity_ascending(cfg.channels)
    lines = ["k,compound_lower,parallel_lower,parallel_upper,merge_tol"]
    rows = bound_table(ordered, cfg.depth, merge_tol=cfg.merge_tol)
    for k, (cl, pl, pu) in enumerate(rows):
        lines.append(f"{k},{cl!r},{pl!r},{pu!r},{cfg.merge_tol!r}")
    csv = "\n".join(lines) + "\n"
    out = args.out or cfg.out
    if out:
        with open(out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1

    import itertools

    from .gf import FieldSpec, bits_to_symbols
    from .mds import GrsCode, MdsFamily
    from .polar import (
        InformationSet,
        bec_split_bhattacharyya,
        list_decode,
        polar_encode,
        split_channel_exact,
    )

    f4 = FieldSpec(2)
    check("gf: GF(4) 2*3 = 1", f4.mul(2, 3) == 1)
    check(
        "gf: MSB-first packing",
        np.array_equal(bits_to_symbols([1, 0, 0, 1], f4), [2, 1]),
    )
    code = GrsCode(f4, 3, 2, [1, 2, 3])
    check(
        "mds: completion matches encoding",
        np.array_equal(code.complete({1: 3, 2: 2}), code.encode([1, 1])),
    )
    binary = MdsFamily(FieldSpec(1), 3)
    ok = binary.kind == "structured"
    for d in binary.dims:
        c = binary.code(d)
        words = c.encode(list(itertools.product((0, 1), repeat=d)))
        ok &= all(
            np.array_equal(c.complete_batch(p, words[:, list(p)]), words)
            for p in itertools.permutations(range(3), d)
        )
    check("mds: GF(2) repetition/parity/whole-space completion", ok)
    z = bec_split_bhattacharyya(0.5, 16)
    zx = [
        chmod.bhattacharyya(split_channel_exact(chmod.bec(0.5), 16, l))
        for l in range(16)
    ]
    check("polar: erasure recursion vs synthesis", np.allclose(z, zx, atol=1e-12))
    rng = np.random.default_rng(0)
    full = InformationSet(16, tuple(range(16)))
    u = rng.integers(0, 2, 16)
    ok = np.array_equal(list_decode(chmod.bsc(0.0), polar_encode(u), full, 0)[0], u)
    check("polar: noiseless decode", ok)
    # erasure likelihoods normalize to 0, 1/2 and 1, exact in floats
    ok = True
    for _ in range(20):
        u = rng.integers(0, 2, 16)
        info = InformationSet(16, tuple(np.flatnonzero(rng.random(16) < 0.6)))
        y = np.where(rng.random(16) < 0.4, 2, polar_encode(u))
        args = (chmod.bec(0.4), y, info, u)
        ok &= np.array_equal(list_decode(*args), list_decode(*args, exact=True))
    u = rng.integers(0, 4, 16)
    quad = chmod.q_ary_symmetric(4, 0.0)
    args = (quad, polar_encode(u), full, 0)
    ok &= all(np.array_equal(list_decode(*args, exact=e)[0], u) for e in (False, True))
    # an independent oracle: on the erasure channel every input vector
    # that agrees with the unerased outputs is equally likely, so the
    # successive argmax counts them, ties going to 0
    u_all = np.array(list(itertools.product((0, 1), repeat=4)))
    x_all = polar_encode(u_all)
    full4 = InformationSet(4, tuple(range(4)))
    for y in itertools.product(range(3), repeat=4):
        alive = np.all((x_all == y) | (np.array(y) == 2), axis=1)
        ref = []
        for l in range(4):
            ones = np.count_nonzero(alive & (u_all[:, l] == 1))
            zeros = np.count_nonzero(alive & (u_all[:, l] == 0))
            ref.append(int(ones > zeros))
            alive &= u_all[:, l] == ref[-1]
        lib = list_decode(chmod.bec(0.5), np.array(y), full4, 0)[0]
        ok &= np.array_equal(lib, ref)
    check("polar: float SC equals exact-rational SC", ok)
    # float decisions on a seeded noisy corpus, pinned: near-ties there
    # move with the order of the minus sum and of the plane sum, with the
    # division by the plane sum and with the tie rule
    crng, digest = np.random.default_rng(7), hashlib.sha256()
    for ch in (chmod.bsc(0.2), chmod.product_power(chmod.bsc(0.11002), 2)):
        mask = crng.random(64) < 0.5
        u = crng.integers(0, ch.input_size, (20, 64))
        cdf = np.cumsum(ch.transitions, axis=1)
        y = (crng.random(u.shape)[..., None] < cdf[polar_encode(u)]).argmax(-1)
        info = InformationSet(64, tuple(np.flatnonzero(mask)))
        digest.update(list_decode(ch, y, info, u).tobytes())
    check("polar: float SC decisions on a pinned noisy corpus",
          digest.hexdigest()[:16] == "b7bf2ff91d70e9fc")

    def round_trips(sch) -> bool:
        bits = rng.integers(0, 2, sch.info_bit_count)
        x = sch.encode(bits)
        return all(
            np.array_equal(sch.decode([x[pi[s]] for s in range(sch.S)], pi), bits)
            for pi in itertools.permutations(range(sch.S))
        )

    noiseless = chmod.bsc(0.0)
    sch = DegradedScheme(
        [noiseless] * 3,
        [
            InformationSet(8, (1, 3, 4, 5, 6, 7)),
            InformationSet(8, (3, 5, 6, 7)),
            InformationSet(8, (6, 7)),
        ],
    )
    check("parallel: degraded scheme over all assignments", round_trips(sch))
    coupled_sets = [InformationSet(8, (2, 3, 6, 7)), InformationSet(8, (1, 5, 6, 7))]
    for cls in (InterleavedScheme, NonBinaryScheme):
        sch = cls([noiseless] * 2, coupled_sets, m=2)
        check(f"parallel: {cls.kind} scheme over all assignments", round_trips(sch))

    ch_list = [chmod.bec(0.2), chmod.bec(0.4)]
    sch2 = DegradedScheme.build(ch_list, 64, rates=[0.5, 0.3])
    reports_a = evaluate(sch2, trials=50, master_seed=9)
    reports_b = evaluate(sch2, trials=50, master_seed=9)
    check(
        "simrunner: fixed-seed reproducibility",
        reports_to_csv(reports_a) == reports_to_csv(reports_b),
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="permpolar",
        description="Polar coding schemes for permuted parallel channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a scheme manifest")
    p_con.add_argument("--config", required=True)
    p_con.add_argument("--out")
    p_con.set_defaults(func=cmd_construct)

    p_sim = sub.add_parser("simulate", help="Monte Carlo evaluation")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--manifest", required=True)
    p_sim.add_argument("--out")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--permutations")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_bnd = sub.add_parser("bounds", help="rate bounds for a channel list")
    p_bnd.add_argument("--config", required=True)
    p_bnd.add_argument("--out")
    p_bnd.set_defaults(func=cmd_bounds)

    p_self = sub.add_parser("selftest", help="quick internal checks")
    p_self.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionError,) as exc:
        print(f"construction infeasible: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
