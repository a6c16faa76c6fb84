"""Command line of the benchmark.

  python3 -m perf once --workload W --seed N --seconds S --trace 0|1
      one workload in this process; last line of stdout is the result
      object the driver reads (this is BENCHMARK.json's ``command``)
  python3 -m perf run [--workload W] [--seed N] [--runs K] [--out FILE]
      every workload, each run in its own fresh subprocess, untraced and
      traced; prints every metric and writes perf/out/latest.json
  python3 -m perf aa [--runs K]
      the suite twice at one revision: spreads beside their bounds
  python3 -m perf compare BASE.json NEW.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from perf import OUT, ROOT, use_checkout_source
from perf.metrics import END_TO_END, PER_LAYER

WORKLOAD_NAMES = ("q1_qualifying", "q1_unclustered", "serve_rw", "shard2_q1")
RUN_SECONDS = 18


def _once(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set and dict-of-str iteration order feeds the call counts: pin it
        os.environ["PYTHONHASHSEED"] = "0"
        os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
        os.execv(sys.executable, [sys.executable, "-m", "perf", *sys.argv[1:]])
    use_checkout_source()
    from perf.runner import run_once

    record = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    catalogue = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for metric in catalogue:
        value = record["metrics"].get(metric.name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{metric.name:48s} {shown:>14s} {metric.unit}")
    for key, value in record["details"].items():
        print(f"# {key}: {value}")
    for note in record["notes"]:
        print(f"# FAILED: {note}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(record, out, indent=1)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric.name: {
                "value": record["metrics"].get(metric.name) or 0.0,
                "unit": metric.unit,
            }
            for metric in catalogue
        },
    }))
    return 0 if record["correct"] else 1


def environment(args: argparse.Namespace) -> dict:
    def git(*argv: str) -> str:
        try:
            done = subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    import numpy

    return {
        "rev": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    """One ``once`` in a fresh subprocess; returns its full record."""
    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, f"once_{name}_{trace}_{os.getpid()}.json")
    argv = [
        sys.executable, "-m", "perf", "once", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", str(scale), "--out", out,
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    try:
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
    except OSError:
        raise RuntimeError(
            f"{name} (trace {trace}) produced no result:\n{done.stdout}\n{done.stderr}"
        ) from None
    finally:
        if os.path.exists(out):
            os.remove(out)
    return record


def run_suite(args: argparse.Namespace, *, traced: bool = True) -> dict:
    """``runs`` untraced runs (seeds seed, seed+1, ...) and one traced
    run per workload."""
    use_checkout_source()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    suite = {"env": environment(args), "workloads": {}}
    failed = 0
    for name in names:
        entry = {"runs": [], "layers": None, "attempted": 0, "failed": 0}
        records = [
            run_workload(name, args.seed + i, args.seconds, 0, args.scale)
            for i in range(args.runs)
        ]
        if traced:
            layer_record = run_workload(name, args.seed, args.seconds, 1, args.scale)
            entry["layers"] = layer_record["metrics"]
            records.append(layer_record)
        for record in records:
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            for note in record["notes"]:
                print(f"FAILED {name}: {note}", file=sys.stderr)
        entry["runs"] = [r["metrics"] for r in records[: args.runs]]
        entry["details"] = records[0]["details"]
        entry["failed_ops_frac"] = entry["failed"] / max(1, entry["attempted"])
        failed += entry["failed"]
        suite["workloads"][name] = entry
        _print_workload(name, entry)
    suite["failed"] = failed
    return suite


def _print_workload(name: str, entry: dict) -> None:
    from perf.compare import center

    print(f"\n== {name} ==  ({len(entry['runs'])} run(s), "
          f"{entry['details'].get('latency_samples')} latency samples in the first)")
    for metric in END_TO_END:
        print(f"  {metric.name:46s} {center(entry['runs'], metric.name):>14.6g} {metric.unit}")
    print(f"  {'failed_ops_frac':46s} {entry['failed_ops_frac']:>14.6g} fraction")
    if entry["layers"]:
        for metric in PER_LAYER:
            value = entry["layers"].get(metric.name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric.name:46s} {shown:>14s} {metric.unit}")


def _run(args: argparse.Namespace) -> int:
    suite = run_suite(args)
    out = args.out or os.path.join(OUT, "latest.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=1)
    print(f"\nenv: {suite['env']}\nwrote {out}; traces in {OUT}/trace_<workload>.jsonl")
    return 1 if suite["failed"] else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=RUN_SECONDS,
                         help="length of the timed window of one run")
        sub.add_argument("--scale", type=float, default=1.0,
                         help="multiplies every workload's data size (self-tests)")
        sub.add_argument("--out", help="also write the result as JSON here")

    once = commands.add_parser("once", help="one workload, in this process")
    once.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    once.add_argument("--trace", type=int, choices=(0, 1), default=0)
    common(once)
    once.set_defaults(handler=_once)

    run = commands.add_parser("run", help="every workload, untraced and traced")
    run.add_argument("--workload", choices=WORKLOAD_NAMES)
    run.add_argument("--runs", type=int, default=1,
                     help="untraced runs per workload, one seed each")
    common(run)
    run.set_defaults(handler=_run)

    from perf import compare

    compare.add_commands(commands, common)
    args = parser.parse_args(argv)
    return args.handler(args)
