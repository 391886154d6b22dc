#!/usr/bin/env python3
"""Compare two google-benchmark JSON result files and flag regressions.

Used by CI to warn (non-blocking by default) when a benchmark's time
regresses by more than a threshold against the previous run's artifact:

    bench_compare.py baseline.json current.json [--threshold=0.20] [--strict]

Exit status: 0 unless --strict is given and at least one regression was
found (2 for usage/parse errors). Output is one line per benchmark; on a
GitHub runner regressions are also emitted as ::warning:: annotations so
they surface on the workflow summary without failing the job.

A missing or empty baseline is not an error: the first run of a fresh
cache has nothing to compare against, so the tool prints a one-line
"baseline created" note and exits 0 — the current results become the
baseline for the next run.

Each benchmark is compared on the clock it is paced by: real_time for
benchmarks registered with UseRealTime() (run names ending in /real_time),
cpu_time for every other one.

When a run was made with --benchmark_repetitions, the aggregate entries
are preferred (median, falling back to mean) and the raw iterations are
ignored; single-run files use the plain iteration entries. Benchmarks
present in only one file are reported but never treated as regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def timed_clock(run_name: str) -> str:
    """The JSON field that holds a benchmark's time: real_time for runs
    registered with UseRealTime(), cpu_time otherwise."""
    return "real_time" if run_name.endswith("/real_time") else "cpu_time"


def load_times(path: str) -> dict[str, float]:
    """Maps benchmark name -> representative time (ns, on the clock
    timed_clock picks)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    benchmarks = data.get("benchmarks", [])
    iterations: dict[str, float] = {}
    aggregates: dict[str, float] = {}
    preferred = {"median": 0, "mean": 1}
    aggregate_rank: dict[str, int] = {}
    for entry in benchmarks:
        name = entry.get("name", "")
        aggregated = entry.get("run_type") == "aggregate"
        base = entry.get("run_name", name.rsplit("_", 1)[0]) \
            if aggregated else name
        time = entry.get(timed_clock(base))
        if time is None:
            continue
        if aggregated:
            aggregate = entry.get("aggregate_name", "")
            if aggregate not in preferred:
                continue
            rank = preferred[aggregate]
            if rank < aggregate_rank.get(base, len(preferred)):
                aggregate_rank[base] = rank
                aggregates[base] = float(time)
        else:
            iterations[name] = float(time)
    return aggregates if aggregates else iterations


def github_warning(message: str) -> None:
    if os.environ.get("GITHUB_ACTIONS") == "true":
        print(f"::warning title=benchmark regression::{message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative time increase that counts as a regression "
        "(default 0.20 = +20%%)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when regressions are found (default: warn only)",
    )
    args = parser.parse_args()

    if (not os.path.exists(args.baseline)
            or os.path.getsize(args.baseline) == 0):
        print(f"bench_compare: no baseline at {args.baseline} — "
              "baseline created from this run; nothing to compare yet.")
        return 0

    try:
        baseline = load_times(args.baseline)
        current = load_times(args.current)
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench_compare: cannot read inputs: {error}", file=sys.stderr)
        return 2

    regressions = []
    for name in sorted(current):
        if name not in baseline:
            print(f"  NEW       {name}")
            continue
        before, after = baseline[name], current[name]
        if before <= 0:
            continue
        delta = after / before - 1.0
        marker = "ok"
        if delta > args.threshold:
            marker = "REGRESSED"
            message = (
                f"{name}: {before:.0f}ns -> {after:.0f}ns "
                f"({delta:+.1%}, threshold +{args.threshold:.0%})"
            )
            regressions.append(message)
            github_warning(message)
        elif delta < -args.threshold:
            marker = "improved"
        print(f"  {marker:9s} {name}: {before:.0f}ns -> {after:.0f}ns "
              f"({delta:+.1%})")
    for name in sorted(set(baseline) - set(current)):
        print(f"  REMOVED   {name}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"+{args.threshold:.0%}.")
        return 1 if args.strict else 0
    print("\nNo regressions beyond the threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
