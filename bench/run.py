"""permpolar benchmark: decoded trials per second, single-message latency,
set-up time and peak memory, with an optional outside-in layer trace.

    python3 bench/run.py --workload degraded --seed 1 --seconds 44 --trace 0

Runs from the root of a checkout and imports `permpolar` from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.  A
fuller record (workload properties, run metadata, every sample) goes to
`bench/out/`.  The exit code is 0 only when every operation and check
passed; it is 2, with no result line, when `permpolar` cannot be imported
from the checkout.  See `bench/README.md` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracing import Tracer, installed  # noqa: E402

OUT = HERE / "out"

LATENCY_SAMPLES = 40  # p75 then has 10 samples beyond it
SETUP_LAUNCHES = 5
BLER_Z_LIMIT = 4.0  # two-sided: about 1e-4 false alarms per run on symbol, fewer on degraded
DEADLINE_S = 140.0  # stop adding samples; the run must end within 180 s
SHORT_BLOCK_TRIALS = 4
# trials of the call that probes evaluate's default chunk: the largest
# block the benchmark times, about 19 s on symbol, so that a block begun
# just before DEADLINE_S still ends in time.  A larger chunk is flagged.
PROBE_TRIALS = 4096

# seed tags keep each phase's random inputs apart
TAG_ROUND_TRIP, TAG_WARM, TAG_BLOCK, TAG_SINGLE, TAG_PROBE = 1, 2, 3, 4, 5

SETUP_CODE = (
    "import sys; sys.path.insert(0, {bench!r}); import workloads; "
    "workloads.WORKLOADS[{name!r}].build()"
)


class CheckFailed(Exception):
    """An output of the program is wrong."""


class ProbeDone(Exception):
    """Stops the chunk probe at its first `encode` call."""


def derive_seed(seed: int, tag: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1, np.uint64)[0])


def bler_consistent(counts: dict, reference: dict):
    """Test a run's block-error counts against the reference.

    Both map a permutation key to {"trials", "errors"}.  The statistic is
    the run's excess of errors over what each permutation's reference rate
    predicts, over its standard error: a two-proportion z-test summed over
    permutations, so that a run which times some permutations more often
    than others is not biased.  Returns (passes, z).  A different but legal
    random stream passes in all but about 1 run of 10,000; a decoder whose error
    count moves by more than four standard errors fails.
    """
    excess = var = 0.0
    for key, run in counts.items():
        n, e = run["trials"], run["errors"]
        ref_n, ref_e = reference[key]["trials"], reference[key]["errors"]
        pooled = (e + ref_e) / (n + ref_n)
        excess += e - n * ref_e / ref_n
        var += pooled * (1.0 - pooled) * n * (1.0 + n / ref_n)
    z = 0.0 if var == 0.0 else excess / math.sqrt(var)
    return abs(z) <= BLER_Z_LIMIT, z


def cpu_seconds() -> float:
    """CPU time of this process and its finished children."""
    return sum(os.times()[:4])


class Samples:
    """Timed `evaluate` calls of one kind: `trials` trials per call, each
    on the next permutation in turn.  With a tracer, every untraced call is
    followed by a traced one on the same permutation."""

    def __init__(self, trials: int, chunk, tag: int, minimum: int, tracer=None):
        self.trials = trials
        self.chunk = chunk
        self.tag = tag
        self.minimum = minimum  # calls (or call pairs) to take at least
        self.tracer = tracer
        self.taken = 0
        self.seconds: list[float] = []
        self.traced_seconds: list[float] = []
        self.traced_over_plain: list[float] = []  # per adjacent pair
        self.wall = 0.0
        self.cpu = 0.0

    def record(self) -> dict:
        calls = len(self.seconds) + len(self.traced_seconds)
        return {
            "trials_per_call": self.trials,
            "trials": self.trials * calls,
            "seconds": self.seconds,
            "traced_seconds": self.traced_seconds,
            "traced_over_plain": self.traced_over_plain,
            "wall_s": self.wall,
            "cpu_over_wall": self.cpu / self.wall if self.wall else None,
        }


class Run:
    """One benchmark run: counts operations, pools block errors and keeps
    every sample for the record."""

    def __init__(self, args, wl):
        self.started = time.perf_counter()
        self.args = args
        self.wl = wl
        self.workload = wl.WORKLOADS[args.workload]
        self.scheme = self.workload.build()
        self.perms = wl.all_permutations(self.scheme)
        self.block_trials = SHORT_BLOCK_TRIALS  # until the chunk probe sets it
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pool: dict = {}  # block errors of every evaluate call, by permutation
        self.phases: dict = {}

    # -- bookkeeping ----------------------------------------------------------

    def op(self, what: str, fn, *args, **kwargs):
        """Run one operation; an exception or failed check counts as failed."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted and reported
            self.count(what, f"{type(exc).__name__}: {exc}")
            return None
        self.count(what, None)
        return result

    def count(self, what: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")

    def past_deadline(self) -> bool:
        return time.perf_counter() - self.started > DEADLINE_S

    @contextmanager
    def phase(self, name: str):
        """Record a phase's wall time and the CPU time over wall time of
        this process and its children."""
        wall, cpu = time.perf_counter(), cpu_seconds()
        record = {}
        yield record
        wall = time.perf_counter() - wall
        record["wall_s"] = wall
        record["cpu_over_wall"] = (cpu_seconds() - cpu) / wall if wall else None
        self.phases[name] = record

    # -- operations -----------------------------------------------------------

    def evaluate(self, pi, trials: int, seed: int, chunk=None, tracer=None) -> float:
        """One timed `evaluate` call on one permutation; returns seconds."""
        call = self.wl.permpolar.evaluate
        kwargs = dict(permutations=[pi], trials=trials, master_seed=seed, chunk=chunk)
        start = time.perf_counter()
        if tracer is None:
            reports = call(self.scheme, **kwargs)
        else:
            reports = tracer.call("simrunner.evaluate", call, self.scheme, **kwargs)
        elapsed = time.perf_counter() - start
        if len(reports) != 1:
            raise CheckFailed(f"{len(reports)} reports for one permutation")
        (report,) = reports
        if tuple(report.permutation) != tuple(pi) or report.trials != trials:
            raise CheckFailed(f"report {report} does not match the request")
        if not 0 <= report.errors <= trials:
            raise CheckFailed(f"{report.errors} block errors in {trials} trials")
        counts = self.pool.setdefault(self.wl.permutation_key(pi), {"trials": 0, "errors": 0})
        counts["trials"] += trials
        counts["errors"] += report.errors
        if tracer is not None:
            tracer.trials += trials
        return elapsed

    def round_trip(self, pi, messages) -> None:
        """Noiseless transmission: every message must come back exactly."""
        x = self.scheme.encode(messages)  # (S, batch, uses)
        decoded = self.scheme.decode([x[pi[s]] for s in range(self.scheme.S)], pi)
        if not np.array_equal(decoded, messages):
            wrong = int(np.count_nonzero((decoded != messages).any(axis=1)))
            raise CheckFailed(f"noiseless round trip lost {wrong} of {len(messages)} messages")

    def probe_chunk(self) -> int:
        """The batch size `evaluate` chooses at its default chunk for
        PROBE_TRIALS trials, read from its first `encode` call, where the
        call is stopped."""
        cls = type(self.scheme)
        original = cls.encode
        sizes = []

        def encode(scheme, info_bits):
            sizes.append(int(np.shape(info_bits)[0]))
            raise ProbeDone

        cls.encode = encode
        try:
            self.wl.permpolar.evaluate(self.scheme, permutations=[self.perms[0]],
                                       trials=PROBE_TRIALS,
                                       master_seed=derive_seed(self.args.seed, TAG_PROBE, 0))
        except ProbeDone:
            pass
        finally:
            cls.encode = original
        if not sizes:
            raise CheckFailed("evaluate never called encode")
        return sizes[0]

    def launch_setup(self) -> float:
        code = SETUP_CODE.format(bench=str(HERE), name=self.args.workload)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise CheckFailed(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return elapsed

    # -- phases -----------------------------------------------------------------

    def check_round_trips(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([self.args.seed, TAG_ROUND_TRIP]))
        with self.phase("round_trip") as rec:
            for pi in self.perms:
                messages = rng.integers(0, 2, (4, self.scheme.info_bit_count))
                self.op(f"round trip {pi}", self.round_trip, pi, messages)
            rec["permutations"] = len(self.perms)

    def warm_up(self) -> None:
        """Find the chunk `evaluate` chooses, which is the size of a timed
        block, and fill caches with one block and one single-message call."""
        with self.phase("warm_up") as rec:
            chunk = self.op("chunk probe", self.probe_chunk)
            if chunk is not None and not self.args.short:
                self.block_trials = chunk
            rec["chunk"] = chunk
            # the default chunk may be larger; blocks then time only part of it
            rec["chunk_capped"] = chunk == PROBE_TRIALS
            self.op("warm-up block", self.evaluate, self.perms[0], self.block_trials,
                    derive_seed(self.args.seed, TAG_WARM, 0))
            self.op("warm-up single", self.evaluate, self.perms[0], 1,
                    derive_seed(self.args.seed, TAG_WARM, 1), chunk=1)

    def measure_setup(self) -> list[float]:
        launches = 1 if self.args.short else SETUP_LAUNCHES
        with self.phase("setup") as rec:
            times = [self.op("set-up launch", self.launch_setup) for _ in range(launches)]
            times = [t for t in times if t is not None]
            rec["launches"] = launches
        return times

    def sample(self, kind: Samples) -> None:
        i = kind.taken
        kind.taken += 1
        pi = self.perms[i % len(self.perms)]
        times = []
        for traced in (False, True) if kind.tracer else (False,):
            seed = derive_seed(self.args.seed, kind.tag, 2 * i + traced)
            tracer = kind.tracer if traced else None
            wall, cpu = time.perf_counter(), cpu_seconds()
            with installed(tracer) if traced else nullcontext():
                t = self.op(f"{'traced ' * traced}{kind.trials}-trial call {pi}",
                            self.evaluate, pi, kind.trials, seed, kind.chunk, tracer)
            kind.wall += time.perf_counter() - wall
            kind.cpu += cpu_seconds() - cpu
            times.append(t)
            if t is not None:
                (kind.traced_seconds if traced else kind.seconds).append(t)
        if len(times) == 2 and None not in times:
            kind.traced_over_plain.append(times[1] / times[0])

    def measure(self, seconds: float, tracers: dict):
        """Default-chunk blocks and single messages, interleaved so that
        both sample the whole measuring window: the kind that has used less
        time goes next.  Each kind runs for at least `seconds/2`, at least
        one block per permutation and LATENCY_SAMPLES single messages (one
        call pair each when tracing)."""
        few = bool(tracers) or self.args.short
        blocks = Samples(self.block_trials, None, TAG_BLOCK, 1 if few else len(self.perms),
                         tracers.get("batch"))
        singles = Samples(1, 1, TAG_SINGLE, len(self.perms) if few else LATENCY_SAMPLES,
                          tracers.get("b1"))

        def behind(kind):
            return kind.taken < kind.minimum or kind.wall < seconds / 2

        while not self.past_deadline():
            pending = [k for k in (blocks, singles) if behind(k)]
            if not pending:
                break
            self.sample(min(pending, key=lambda k: k.wall))
        self.phases.update(blocks=blocks.record(), singles=singles.record())
        return self.phases["blocks"], self.phases["singles"]

    def check_bler(self) -> dict:
        ref = self.wl.load_reference()[self.args.workload]
        ok, z = bler_consistent(self.pool, ref)
        self.count("block-error count", None if ok else (
            f"block errors {self.pool} are inconsistent with the reference (z={z:.2f})"))
        return {"by_permutation": self.pool, "reference": ref, "z": z, "z_limit": BLER_Z_LIMIT}

    def properties(self) -> dict:
        s = self.scheme
        n = s.n
        return {
            "scheme": type(s).__name__,
            "S": s.S,
            "n": n,
            "m": s.m,
            # alphabet of the SC decoder: the product channel's for symbol-level
            "q": getattr(s, "super_channels", s.channels)[0].input_size,
            "uses_per_channel": getattr(s, "uses_per_channel", n),
            "info_bits": s.info_bit_count,
            "permutations": len(self.perms),
            "block_trials": self.block_trials,
            "chunk": self.phases["warm_up"]["chunk"],
            "chunk_capped": self.phases["warm_up"]["chunk_capped"],
            "known_share_per_stage": [1.0 - len(a) / n for a in s.info_sets],
            "trials_per_phase": {k: self.phases[k]["trials"] for k in ("blocks", "singles")},
        }


def metadata() -> dict:
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            rev = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end(setup_s: list, blocks: dict, singles: dict) -> dict:
    rates = [blocks["trials_per_call"] / t for t in blocks["seconds"]]
    latency_ms = [t * 1e3 for t in singles["seconds"]]
    metrics = {}
    if rates:
        metrics["trials_per_s"] = {"value": statistics.median(rates), "unit": "1/s"}
    if len(latency_ms) >= 2:
        metrics["latency_ms_p50"] = {"value": statistics.median(latency_ms), "unit": "ms"}
        metrics["latency_ms_p75"] = {"value": statistics.quantiles(latency_ms, n=4)[2], "unit": "ms"}
    if setup_s:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    return metrics


def per_layer(tracers: dict, blocks: dict, singles: dict) -> tuple[dict, list]:
    metrics, missing = {}, []
    for prefix, tracer in tracers.items():
        got, lost = tracer.layer_metrics(prefix)
        metrics.update(got)
        missing += lost
        # pairs are adjacent in time, so a change of machine speed between
        # them is rarer than across the whole phase
        ratios = (blocks if prefix == "batch" else singles)["traced_over_plain"]
        if ratios:
            overhead = 100.0 * (statistics.median(ratios) - 1.0)
            metrics[f"{prefix}.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
        else:
            missing.append(f"{prefix}.trace_overhead_pct")
    return metrics, missing


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="minimal work per phase, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds < 0:
        ap.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"cannot import permpolar from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not wl.source_is_checkout():
        print(f"permpolar was not imported from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    try:
        run = Run(args, wl)
    except Exception as exc:  # nothing can be measured without a scheme
        print(f"building workload {args.workload} failed: {type(exc).__name__}: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    setup_s = [] if args.trace else run.measure_setup()
    run.check_round_trips()
    run.warm_up()
    tracers = {"batch": Tracer("batch"), "b1": Tracer("b1")} if args.trace else {}
    blocks, singles = run.measure(args.seconds, tracers)
    bler = run.check_bler()

    if args.trace:
        metrics, missing = per_layer(tracers, blocks, singles)
    else:
        metrics, missing = end_to_end(setup_s, blocks, singles), []
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "metrics": metrics,
        "missing": missing,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(1, run.attempted),
        "problems": run.problems,
        "properties": run.properties(),
        "phases": run.phases,
        "setup_s": setup_s,
        "bler": bler,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "metadata": metadata(),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = OUT / f"{stem}-spans.tsv.gz"
        spans.unlink(missing_ok=True)
        for tracer in tracers.values():
            tracer.write(spans)

    print_summary(record, stem)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def print_summary(record: dict, stem: str) -> None:
    props = record["properties"]
    print(f"workload {record['workload']}: " + ", ".join(
        f"{k}={props[k]}" for k in ("scheme", "S", "n", "m", "q", "uses_per_channel", "chunk",
                                    "permutations", "trials_per_phase")))
    if props["chunk_capped"]:
        print(f"note: evaluate's default chunk is at least {PROBE_TRIALS} trials; "
              f"blocks of {PROBE_TRIALS} time only part of it")
    phases = record["phases"]
    print(f"samples: {len(phases['blocks']['seconds'])} blocks of {props['block_trials']} "
          f"trials, {len(phases['singles']['seconds'])} single messages; cpu/wall " + ", ".join(
              f"{k} {v['cpu_over_wall']:.2f}" for k, v in phases.items()
              if v.get("cpu_over_wall") is not None))
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name in record["missing"]:
        print(f"  {name}: missing (the layer never ran)")
    bler = record["bler"]

    def total(counts):
        return "{}/{}".format(*(sum(c[k] for c in counts.values()) for k in ("errors", "trials")))

    print(f"block errors {total(bler['by_permutation'])} vs reference "
          f"{total(bler['reference'])}, by permutation: z={bler['z']:.2f}")
    print(f"failed {record['failed']} of {record['attempted']} operations "
          f"(failed_frac {record['failed_frac']:.4g})")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(f"record: {OUT.relative_to(ROOT) / (stem + '.json')}")


if __name__ == "__main__":
    sys.exit(main())
