"""Tests of the benchmark itself: its short mode emits every metric that
BENCHMARK.json names, and a wrong decoder makes it fail."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    code = run.main(list(argv) + ["--seed", "3", "--seconds", "0", "--short"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_end_to_end_metric(capsys, workload):
    code, result = _result(capsys, "--workload", workload, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_traced_run_emits_every_per_layer_metric(capsys, workload):
    code, result = _result(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        if name.endswith("_calls"):
            assert metric["value"] > 0, name


class CorruptOneBit:
    """Stub scheme: the real one, except that decoding flips the first
    information bit of the first message."""

    def __init__(self, scheme):
        self._scheme = scheme

    def __getattr__(self, name):
        return getattr(self._scheme, name)

    def encode(self, info_bits):
        return self._scheme.encode(info_bits)

    def decode(self, received, pi):
        bits = np.array(self._scheme.decode(received, pi))
        flat = bits.reshape(-1, bits.shape[-1])
        flat[0, 0] ^= 1
        return bits


def test_corrupted_decoder_fails_the_run(capsys, monkeypatch):
    real = workloads.WORKLOADS["symbol"]
    stub = workloads.Workload(real.name, lambda: CorruptOneBit(real.build()))
    monkeypatch.setitem(workloads.WORKLOADS, "symbol", stub)
    code, result = _result(capsys, "--workload", "symbol", "--trace", "0")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_chunk_above_the_largest_block_is_flagged(capsys, monkeypatch):
    # evaluate's default chunk is 2^21 / (2 n) trials: 4096 at n = 256
    def short_degraded():
        channels = [workloads.bec(e) for e in (0.1, 0.3, 0.5)]
        rates = [workloads.capacity_uniform(c) - 0.15 for c in channels]
        return workloads.DegradedScheme.build(channels, 256, rates=rates)

    monkeypatch.setitem(workloads.WORKLOADS, "degraded",
                        workloads.Workload("degraded", short_degraded))
    _result(capsys, "--workload", "degraded", "--trace", "0")
    record = json.loads((run.OUT / "degraded-seed3-trace0.json").read_text())
    assert record["properties"]["chunk"] == run.PROBE_TRIALS
    assert record["properties"]["chunk_capped"]


# trials per permutation that one 44-second run pools, at the low end of
# what runs decode: degraded times 8 blocks of 1024 over its 6 permutations
# and symbol 19 blocks of 256 over its 2, plus the single messages
RUN_TRIALS = {"degraded": [2064, 2064, 1040, 1040, 1040, 1040], "symbol": [2450, 2450]}


def _counts(reference, trials, errors):
    """Run counts with `errors(n, p)` errors in `n` trials of each
    permutation, whose reference rate is `p`."""
    return {
        key: {"trials": n, "errors": int(errors(n, ref["errors"] / ref["trials"]))}
        for (key, ref), n in zip(reference.items(), trials)
    }


# the smallest rise of the error rate that the check must catch: on symbol
# a run expects only about 14 errors, so a doubling gives z of about 3.7
# and fails in only two runs of five (see README)
@pytest.mark.parametrize("workload, rise", [("degraded", 2.0), ("symbol", 3.0)])
def test_block_error_check(workload, rise):
    ref = workloads.load_reference()[workload]
    trials = RUN_TRIALS[workload]
    assert set(ref) == {workloads.permutation_key(p)
                        for p in workloads.all_permutations(workloads.WORKLOADS[workload].build())}
    rng = np.random.default_rng(0)
    # a legal change of random stream: fresh binomial draws at the same rates.
    # A correct decoder fails about 1 run in 10,000, so allow 2 in 1000.
    failed = sum(not run.bler_consistent(_counts(ref, trials, rng.binomial), ref)[0]
                 for _ in range(1000))
    assert failed <= 2
    # a decoder that loses every message, or whose error rate rises
    assert not run.bler_consistent(_counts(ref, trials, lambda n, p: n), ref)[0]
    assert not run.bler_consistent(_counts(ref, trials, lambda n, p: round(rise * p * n)), ref)[0]


def test_self_time_and_missing_layers():
    tracer = tracing.Tracer("batch")
    tracer.trials = 1
    inner = tracer.wrap("parallel.decode", lambda: sum(range(10000)))
    tracer.call("simrunner.evaluate", inner)
    summary = tracer.summary()
    calls, total, own = summary["simrunner.evaluate"]
    assert calls == 1
    assert own == pytest.approx(total - summary["parallel.decode"][1])
    metrics, missing = tracer.layer_metrics("batch")
    assert metrics["batch.parallel.decode_calls"]["value"] == 1
    # layers that never ran are missing, not zero
    assert "batch.polar.encode_us" in missing and "batch.polar.encode_us" not in metrics
    assert "batch.parallel.decode_known_share" in missing
