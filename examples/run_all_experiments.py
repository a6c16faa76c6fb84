#!/usr/bin/env python3
"""Regenerate every paper table/figure (the full evaluation suite).

Runs all experiments of :mod:`repro.bench.experiments` — one per table
and figure of the paper plus the extensions — and prints each result in
paper-style tabular form.  This is the script that produced the numbers
recorded in EXPERIMENTS.md.

Run:  python examples/run_all_experiments.py          (~2-4 minutes)
      python examples/run_all_experiments.py --fast   (smaller scale)
"""

import sys
import time

from repro.bench import ALL_EXPERIMENTS

#: Scale overrides for the --fast mode (CI-friendly), by experiment id.
_FAST_OVERRIDES = {
    "E1": {"scale_factor": 0.005},
    "E2": {"scale_factor": 0.005},
    "E4": {"scale_factor": 0.01},
    "F5": {
        "scale_factor": 0.01,
        "fractions": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    },
    "E7": {"scale_factor": 0.01},
    "E10": {"scale_factor": 0.01, "pages_per_bucket": (1, 4, 16)},
    "X1": {"scale_factor": 0.01},
    "X3": {"scale_factor": 0.01},
}


def main(fast: bool = False) -> None:
    started = time.perf_counter()
    for exp_id, experiment in ALL_EXPERIMENTS.items():
        overrides = _FAST_OVERRIDES.get(exp_id, {}) if fast else {}
        t0 = time.perf_counter()
        result = experiment(**overrides)
        elapsed = time.perf_counter() - t0
        print()
        print(result.render())
        print(f"[{exp_id} finished in {elapsed:.1f}s]")
    print(f"\nall experiments done in {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
