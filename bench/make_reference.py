"""Regenerate `reference.json`, the block-error counts per permutation
that every benchmark run's own counts are tested against.

    python3 bench/make_reference.py

Each workload runs `evaluate` at its default chunk over every permutation
with seeds the benchmark itself never draws (tag `REFERENCE_TAG`).  Takes
about fifteen minutes on one core.  Rerun only when a change is meant to
alter the decoder's error rate, and say so.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import REFERENCE, WORKLOADS, all_permutations, permpolar, permutation_key

REFERENCE_TAG = 7
# trials per permutation.  Every run is tested against the same counts,
# so their noise shifts every run's z alike: the gated workloads get about
# 98k trials each, ten times or more what one run decodes.
TRIALS = {"degraded": 16384, "interleaved": 12288, "symbol": 49152}


def main() -> None:
    out = {}
    for name, workload in WORKLOADS.items():
        scheme = workload.build()
        out[name] = {}
        for i, pi in enumerate(all_permutations(scheme)):
            seed = int(np.random.SeedSequence([REFERENCE_TAG, i]).generate_state(1)[0])
            (report,) = permpolar.evaluate(
                scheme, permutations=[pi], trials=TRIALS[name], master_seed=seed
            )
            key = permutation_key(pi)
            out[name][key] = {"trials": report.trials, "errors": report.errors}
            print(name, key, out[name][key], flush=True)
    REFERENCE.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
