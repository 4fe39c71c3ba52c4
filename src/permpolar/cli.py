"""Batch front-end: construct schemes, simulate, compute rate bounds.

Configuration is a plain key = value text file; unknown keys are
rejected.  All output is deterministic under a fixed seed.

Exit codes: 0 success, 2 configuration error, 3 construction infeasible,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import channel as chmod
from .channel import ResourceLimitError, capacity_uniform
from .compound import (
    DEFAULT_DEPTH_CAP,
    DEFAULT_MERGE_TOL,
    compound_lower_bound,
    parallel_rate_lower,
    parallel_rate_upper,
)
from .parallel import (
    ConstructionError,
    DegradedScheme,
    InterleavedScheme,
    NonBinaryScheme,
    scheme_from_manifest,
    scheme_to_manifest,
)
from .simrunner import evaluate, reports_to_csv


class ConfigError(ValueError):
    pass


_KNOWN_KEYS = {
    "scheme",
    "channels",
    "n",
    "m",
    "rates",
    "threshold",
    "trials",
    "seed",
    "permutations",
    "out",
    "depth",
    "merge_tol",
    "surrogate",
}


@dataclass
class ExperimentConfig:
    """Parsed experiment description."""

    scheme: str = "degraded"
    channels: list = field(default_factory=list)
    channel_specs: list = field(default_factory=list)
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
    parts = token.split(":")
    kind = parts[0]
    try:
        if kind == "bec":
            return chmod.bec(float(parts[1]))
        if kind == "bsc":
            return chmod.bsc(float(parts[1]))
        if kind == "qsc":
            return chmod.q_ary_symmetric(int(parts[1]), float(parts[2]))
        if kind == "file":
            with open(parts[1]) as fh:
                return chmod.channel_from_text(fh.read())
    except (IndexError, ValueError, OSError) as exc:
        raise ConfigError(f"bad channel token {token!r}: {exc}") from None
    raise ConfigError(f"unknown channel kind {kind!r}")


def _parse_permutations(value: str):
    """`all`, or `;`-separated comma lists such as `0,1,2;2,1,0`."""
    if value == "all":
        return "all"
    return [tuple(int(v) for v in grp.split(",")) for grp in value.split(";")]


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "scheme":
                if value not in ("degraded", "interleaved", "nonbinary"):
                    raise ConfigError(
                        f"line {lineno}: unknown scheme {value!r}"
                    )
                cfg.scheme = value
            elif key == "channels":
                cfg.channel_specs = value.split()
                cfg.channels = [_parse_channel(t) for t in cfg.channel_specs]
            elif key == "n":
                cfg.n = int(value)
            elif key == "m":
                cfg.m = int(value)
            elif key == "rates":
                cfg.rates = [float(v) for v in value.split()]
            elif key == "threshold":
                cfg.threshold = float(value)
            elif key == "trials":
                cfg.trials = int(value)
            elif key == "seed":
                cfg.seed = int(value)
            elif key == "permutations":
                cfg.permutations = _parse_permutations(value)
            elif key == "out":
                cfg.out = value
            elif key == "depth":
                cfg.depth = int(value)
            elif key == "merge_tol":
                cfg.merge_tol = float(value)
            elif key == "surrogate":
                if value not in ("true", "false"):
                    raise ConfigError(
                        f"line {lineno}: surrogate must be true or false"
                    )
                cfg.surrogate = value == "true"
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
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
    if cfg.scheme == "degraded":
        return DegradedScheme.build(
            cfg.channels,
            cfg.n,
            m=cfg.m,
            rates=cfg.rates,
            threshold=cfg.threshold,
            surrogate=cfg.surrogate,
        )
    if cfg.scheme == "interleaved":
        return InterleavedScheme.build(
            cfg.channels, cfg.n, cfg.m, rates=cfg.rates, threshold=cfg.threshold
        )
    return NonBinaryScheme.build(
        cfg.channels, cfg.n, cfg.m, rates=cfg.rates, threshold=cfg.threshold
    )


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
    if cfg.depth > DEFAULT_DEPTH_CAP:
        raise ResourceLimitError(
            f"depth {cfg.depth} exceeds cap {DEFAULT_DEPTH_CAP}"
        )
    ordered = sorted(cfg.channels, key=capacity_uniform)
    lines = ["k,compound_lower,parallel_lower,parallel_upper,merge_tol"]
    for k in range(cfg.depth + 1):
        cl = compound_lower_bound(ordered, k, merge_tol=cfg.merge_tol)
        pl = parallel_rate_lower(ordered, k, merge_tol=cfg.merge_tol)
        pu = parallel_rate_upper(ordered, k, merge_tol=cfg.merge_tol)
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

    from .gf import FieldSpec, bits_to_symbols
    from .mds import GrsCode
    from .polar import (
        InformationSet,
        PolarTransform,
        bec_split_bhattacharyya,
        polar_encode,
        sc_decode,
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
    z = bec_split_bhattacharyya(0.5, 16)
    zx = [
        chmod.bhattacharyya(split_channel_exact(chmod.bec(0.5), 16, l))
        for l in range(16)
    ]
    check("polar: erasure recursion vs synthesis", np.allclose(z, zx, atol=1e-12))
    rng = np.random.default_rng(0)
    t = PolarTransform(16)
    full = InformationSet(16, tuple(range(16)))
    u = rng.integers(0, 2, 16)
    ok = np.array_equal(
        sc_decode(t, full, chmod.bsc(0.0), polar_encode(u)), u
    )
    check("polar: noiseless decode", ok)

    import itertools

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
