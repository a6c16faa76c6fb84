"""``aa`` (same code twice) and ``compare`` (base against new).

Both work on the suite files ``python3 -m perf run --out`` writes: per
workload a list of runs, one seed each.  A metric's value is the median
over the runs, its spread the inter-quartile distance as a share of
that median — the same two numbers the driver computes.
"""

from __future__ import annotations

import argparse
import json
import os

from perf import OUT, ROOT
from perf.metrics import COUNT_METRICS, END_TO_END, Metric, median, spread

NOISE_FILE = os.path.join(ROOT, "perf", "noise.json")


def center(runs: list[dict], name: str) -> float:
    return median(run[name] for run in runs)


def worse_by(metric: Metric, base: float, new: float) -> float:
    """Share of *base* by which *new* is worse (negative = better)."""
    change = (new - base) / abs(base) if base else 0.0
    return change if metric.better == "lower" else -change


def verdict(metric: Metric, base_runs: list[dict], new_runs: list[dict]) -> tuple[str, dict]:
    base, new = center(base_runs, metric.name), center(new_runs, metric.name)
    noise = max(
        spread([r[metric.name] for r in base_runs]),
        spread([r[metric.name] for r in new_runs]),
    )
    worse = worse_by(metric, base, new)
    if noise > metric.bound:
        word = "unresolved"
    elif worse > metric.bound:
        word = "regressed"
    elif -worse > max(noise, 1e-12):
        word = "improved"
    else:
        word = "unchanged"
    ratio = new / base if base else float("nan")
    return word, {"base": base, "new": new, "ratio": ratio, "spread": noise}


def compare_suites(base: dict, new: dict) -> tuple[list[tuple], int]:
    rows, regressions = [], 0
    for name, entry in base["workloads"].items():
        if name not in new["workloads"]:
            continue
        for metric in END_TO_END:
            word, numbers = verdict(metric, entry["runs"], new["workloads"][name]["runs"])
            regressions += word == "regressed"
            rows.append((name, metric, word, numbers))
    return rows, regressions


def print_rows(rows: list[tuple]) -> None:
    print(f"{'workload':16s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for name, metric, word, n in rows:
        print(f"{name:16s} {metric.name:20s} {n['base']:12.6g} {n['new']:12.6g} "
              f"{n['ratio']:9.4f} {n['spread']:7.4f} {metric.bound:6.2f}  {word}")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _compare(args: argparse.Namespace) -> int:
    base, new = _load(args.base), _load(args.new)
    rows, regressions = compare_suites(base, new)
    print(f"base rev {base['env']['rev']}  new rev {new['env']['rev']}")
    print_rows(rows)
    failed = base.get("failed", 0) + new.get("failed", 0)
    if failed:
        print(f"{failed} operation(s) failed: no number above counts")
    return 1 if regressions or failed else 0


def _aa(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code.  Fails when a spread exceeds
    its bound, when the second median is worse than the first by more
    than the bound, or when a count metric differs between the two runs
    of one seed (on the workloads whose counts are exact)."""
    from perf.cli import run_suite

    first = run_suite(args, traced=False)
    second = run_suite(args, traced=False)
    for name, suite in (("aa_first.json", first), ("aa_second.json", second)):
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
            json.dump(suite, handle, indent=1)  # every run's values, for a closer look
    rows, regressions = compare_suites(first, second)
    print("\n== A/A ==")
    print_rows(rows)
    problems = [
        f"{name} {metric.name}: {word}"
        for name, metric, word, _ in rows
        if word in ("regressed", "unresolved")
    ]
    from perf.workloads import WORKLOADS  # importable once run_suite found src/

    for name in first["workloads"]:
        if not WORKLOADS[name].exact_counts:
            continue
        pairs = zip(first["workloads"][name]["runs"], second["workloads"][name]["runs"])
        for a, b in pairs:
            for metric in COUNT_METRICS:
                if a[metric] != b[metric]:
                    problems.append(
                        f"{name} {metric}: {a[metric]!r} != {b[metric]!r} at one seed"
                    )
    noise = {
        "env": first["env"],
        "runs_per_set": args.runs,
        "spread": {
            name: {metric.name: round(numbers["spread"], 5)
                   for row_name, metric, _, numbers in rows if row_name == name}
            for name in first["workloads"]
        },
    }
    with open(args.noise_out, "w", encoding="utf-8") as handle:
        json.dump(noise, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.noise_out}")
    failed = first["failed"] + second["failed"]
    for problem in problems:
        print(f"A/A: {problem}")
    return 1 if problems or failed else 0


def add_commands(commands, common) -> None:
    aa = commands.add_parser("aa", help="the suite twice: spreads beside bounds")
    aa.add_argument("--workload")
    aa.add_argument("--runs", type=int, default=10,
                    help="runs per set and workload, one seed each (the driver uses 10)")
    aa.add_argument("--noise-out", default=NOISE_FILE)
    common(aa)
    aa.set_defaults(handler=_aa)

    compare = commands.add_parser("compare", help="base suite file against new")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(handler=_compare)
