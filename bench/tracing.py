"""Outside-in layer tracing for the benchmark.

`installed(tracer)` wraps the public entry points of each `permpolar`
layer with timing wrappers for the duration of a `with` block and puts
the originals back afterwards; no file under `src/` changes.  Spans stay
in memory (`Tracer.spans`) until the benchmark writes them out.

A span's self time is its duration minus the durations of its child
spans.  Layers are single-threaded here (`workers=1`), so children never
overlap and that difference is exact.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute) for module-level functions; every loaded
# permpolar module that holds the same function object gets the wrapper,
# since `from .x import f` copies the reference into the importer.
FUNCTIONS = (
    ("simrunner.transmit", "simrunner", "transmit"),
    ("polar.encode", "polar", "polar_encode"),
    ("gf.pack", "gf", "bits_to_symbols"),
    ("gf.pack", "gf", "symbols_to_bits"),
)

# Per-layer metrics of one phase: (metric, layers, quantity).  Times are
# microseconds per decoded trial, calls are per decoded trial.
LAYER_METRICS = (
    ("simrunner.draw_us", ("simrunner.evaluate",), "self"),
    ("simrunner.transmit_us", ("simrunner.transmit",), "total"),
    ("simrunner.transmit_calls", ("simrunner.transmit",), "calls"),
    ("parallel.encode_us", ("parallel.encode",), "total"),
    ("parallel.encode_self_us", ("parallel.encode",), "self"),
    ("parallel.encode_calls", ("parallel.encode",), "calls"),
    ("parallel.decode_us", ("parallel.decode",), "total"),
    ("parallel.decode_self_us", ("parallel.decode",), "self"),
    ("parallel.decode_calls", ("parallel.decode",), "calls"),
    ("polar.encode_us", ("polar.encode",), "total"),
    ("polar.encode_calls", ("polar.encode",), "calls"),
    ("mds.complete_encode_us", ("mds.complete_encode",), "total"),
    ("mds.complete_decode_us", ("mds.complete_decode",), "total"),
    ("mds.complete_calls", ("mds.complete_encode", "mds.complete_decode"), "calls"),
    ("gf.pack_us", ("gf.pack",), "total"),
    ("gf.pack_calls", ("gf.pack",), "calls"),
)
KNOWN_SHARE = "parallel.decode_known_share"
UNITS = {"self": "us/trial", "total": "us/trial", "calls": "1/trial"}


class Tracer:
    """Spans and counters of one benchmark phase.

    A span is `(name, start, end, parent, self_seconds)`; `parent` is the
    index of the enclosing span or -1.  All spans under one root call share
    that root as their request.
    """

    def __init__(self, phase: str):
        self.phase = phase
        self.spans: list = []
        self.counts: Counter = Counter()
        self.trials = 0
        self._stack: list = []  # [span index, name, child seconds, parent]

    def _enter(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [len(self.spans) - 1, name, 0.0, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.spans[frame[0]] = (frame[1], start, end, frame[3], duration - frame[2])
        if self._stack:
            self._stack[-1][2] += duration

    def call(self, name: str, fn, *args, **kwargs):
        frame = self._enter(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, start, perf_counter())

    def wrap(self, name, fn):
        """Timing wrapper; `name` may be a callable of the enclosing span
        names, for layers whose role depends on the caller."""
        if callable(name):
            pick = name

            def wrapped(*args, **kwargs):
                return self.call(pick(self._stack), fn, *args, **kwargs)

        else:

            def wrapped(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

        return wrapped

    def counting(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """{layer: (calls, total seconds, self seconds)} over all spans."""
        out: dict = {}
        for name, start, end, _parent, own in self.spans:
            calls, total, self_total = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_total + own)
        return out

    def layer_metrics(self, prefix: str) -> tuple[dict, list]:
        """Per-layer metrics named `prefix.<metric>`, and the names of
        those whose layer never ran (reported as missing, not as zero)."""
        summary = self.summary()
        metrics, missing = {}, []
        for metric, layers, quantity in LAYER_METRICS:
            found = [summary[name] for name in layers if name in summary]
            name = f"{prefix}.{metric}"
            if not found:
                missing.append(name)
                continue
            calls = sum(f[0] for f in found)
            value = {
                "calls": calls,
                "total": sum(f[1] for f in found) * 1e6,
                "self": sum(f[2] for f in found) * 1e6,
            }[quantity]
            metrics[name] = {"value": value / self.trials, "unit": UNITS[quantity]}
        steps = self.counts["sc.decide"] + self.counts["sc.inject"]
        if steps:
            metrics[f"{prefix}.{KNOWN_SHARE}"] = {
                "value": self.counts["sc.inject"] / steps,
                "unit": "share",
            }
        else:
            missing.append(f"{prefix}.{KNOWN_SHARE}")
        return metrics, missing

    def write(self, path) -> None:
        """Spans as tab-separated lines: phase, index, parent, name,
        start and end in microseconds from the phase's first span."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        with gzip.open(path, "at") as fh:
            for i, (name, start, end, parent, _own) in enumerate(self.spans):
                fh.write(
                    f"{self.phase}\t{i}\t{parent}\t{name}\t"
                    f"{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\n"
                )


def _mds_role(stack) -> str:
    """`mds.complete_encode` or `_decode`, by the scheme call it serves."""
    for frame in reversed(stack):
        if frame[1] == "parallel.encode":
            return "mds.complete_encode"
        if frame[1] == "parallel.decode":
            return "mds.complete_decode"
    return "mds.complete_other"


def _patch(target, attr, value, undo) -> None:
    undo.append((target, attr, getattr(target, attr)))
    setattr(target, attr, value)


@contextmanager
def installed(tracer: Tracer):
    """Wrap each layer's public entry points while the block runs.

    An entry point that no longer exists is skipped, so its layer shows as
    missing in the report instead of stopping the run.
    """
    from permpolar import mds, parallel, polar

    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "permpolar"]
    undo: list = []
    try:
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules.get(f"permpolar.{module}"), attr, None)
            if original is None:
                continue
            wrapped = tracer.wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    _patch(m, attr, wrapped, undo)
        for cls in _classes_defining(parallel, "encode", "decode"):
            for attr in ("encode", "decode"):
                _patch(cls, attr, tracer.wrap(f"parallel.{attr}", vars(cls)[attr]), undo)
        for cls in _classes_defining(mds, "complete_batch"):
            _patch(cls, "complete_batch", tracer.wrap(_mds_role, vars(cls)["complete_batch"]), undo)
        for cls in _classes_defining(polar, "decide", "inject"):
            for attr in ("decide", "inject"):
                _patch(cls, attr, tracer.counting(f"sc.{attr}", vars(cls)[attr]), undo)
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def _classes_defining(module, *attrs):
    return [
        c
        for c in vars(module).values()
        if isinstance(c, type) and c.__module__ == module.__name__ and set(attrs) <= set(vars(c))
    ]
