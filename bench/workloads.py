"""The benchmark's workloads: which scheme each one builds.

This module imports `permpolar` from the checkout's `src/` and nothing
else of the benchmark, so a fresh interpreter can import it to time the
set-up a command-line call pays (see `run.measure_setup`).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import permpolar  # noqa: E402
from permpolar import (  # noqa: E402
    DegradedScheme,
    InterleavedScheme,
    NonBinaryScheme,
    bec,
    bsc,
    capacity_uniform,
)


def _degraded():
    channels = [bec(0.1), bec(0.3), bec(0.5)]
    rates = [capacity_uniform(c) - 0.15 for c in channels]
    return DegradedScheme.build(channels, 1024, rates=rates)


def _pair(cls):
    return cls.build([bsc(0.11002), bec(0.5)], 1024, m=2, rates=[0.25, 0.25])


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("degraded", _degraded),
        Workload("interleaved", lambda: _pair(InterleavedScheme)),
        Workload("symbol", lambda: _pair(NonBinaryScheme)),
    )
}


def all_permutations(scheme) -> list[tuple[int, ...]]:
    return [tuple(p) for p in permutations(range(scheme.S))]


def permutation_key(pi) -> str:
    """A permutation as `reference.json` names it, e.g. "2,0,1"."""
    return ",".join(map(str, pi))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def source_is_checkout() -> bool:
    """True when `permpolar` was imported from this checkout's `src/`."""
    return Path(permpolar.__file__).resolve().is_relative_to(SRC.resolve())
