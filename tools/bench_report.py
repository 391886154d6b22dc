#!/usr/bin/env python3
"""Persist engine_micro results as a benchmark trajectory and render trends.

The CI benchmarks job measures every run (tools/bench_compare.py flags
regressions against the immediately previous run), but until this tool the
history was two-deep: each run overwrote the baseline, so a speedup landed
in one PR was invisible three PRs later. bench_report.py turns the runs
into a persisted trajectory:

    bench_report.py append <engine_micro.json> --dir=<trajectory-dir>
                    [--commit=<sha>] [--spec-hash=<hash>]
    bench_report.py report --dir=<trajectory-dir> [--out=<report.md>]
                    [--window=<n>]

`append` validates the google-benchmark JSON (malformed input is a hard
error with a nonzero exit — CI must fail loudly, not silently skip) and
writes the next `BENCH_<n>.json` entry into the trajectory directory:

    {"schema": 1, "entry": n, "commit": "<sha>",
     "spec_hash": "<spec_hash of specs/engine-micro.spec>",
     "benchmarks": {"<name>": <time ns>, ...}}

Each benchmark keeps the clock it is paced by: real_time for benchmarks
registered with UseRealTime() (run names ending in /real_time, whose work
runs on pool threads or in child processes the calling thread's CPU clock
cannot see), cpu_time for every other one.

The spec_hash is the same shard-invariant provenance key the exp pipeline
stamps on archived rows (`ucr_cli --spec=... --hash-spec`), so a baseline
shift is attributable: either the code changed (commit) or the workload
did (spec_hash).

`report` renders the trajectory as a markdown trend table — one row per
benchmark, one column per entry (newest last), plus the relative change
over the reported window — suitable for the GitHub step summary and for
committing as an artifact. Exit status: 0 on success, 2 on malformed
inputs or an empty trajectory where one was required.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

ENTRY_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")
SCHEMA_VERSION = 1


def fail(message: str) -> "sys.NoReturn":
    print(f"bench_report: error: {message}", file=sys.stderr)
    sys.exit(2)


def timed_clock(run_name: str) -> str:
    """The JSON field that holds a benchmark's time: real_time for runs
    registered with UseRealTime(), cpu_time otherwise."""
    return "real_time" if run_name.endswith("/real_time") else "cpu_time"


def load_times(path: str) -> dict[str, float]:
    """Benchmark name -> representative time (ns, on the clock timed_clock
    picks) from google-benchmark JSON. Aggregate entries (median preferred,
    then mean) win over raw iterations, mirroring tools/bench_compare.py.
    Malformed or benchmark-free input is a hard error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        fail(f"cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        fail(f"{path} is not valid JSON: {error}")
    if not isinstance(data, dict) or not isinstance(
            data.get("benchmarks"), list):
        fail(f"{path} is not google-benchmark JSON "
             "(missing a 'benchmarks' array)")
    iterations: dict[str, float] = {}
    aggregates: dict[str, float] = {}
    preferred = {"median": 0, "mean": 1}
    aggregate_rank: dict[str, int] = {}
    for entry in data["benchmarks"]:
        if not isinstance(entry, dict):
            fail(f"{path}: non-object entry in 'benchmarks'")
        name = entry.get("name", "")
        aggregated = entry.get("run_type") == "aggregate"
        base = entry.get("run_name", name.rsplit("_", 1)[0]) \
            if aggregated else name
        clock = timed_clock(base)
        time = entry.get(clock)
        if not name or time is None:
            continue
        try:
            time = float(time)
        except (TypeError, ValueError):
            fail(f"{path}: benchmark {name!r} has a non-numeric {clock}")
        if aggregated:
            aggregate = entry.get("aggregate_name", "")
            if aggregate not in preferred:
                continue
            rank = preferred[aggregate]
            if rank < aggregate_rank.get(base, len(preferred)):
                aggregate_rank[base] = rank
                aggregates[base] = time
        else:
            iterations[name] = time
    times = aggregates if aggregates else iterations
    if not times:
        fail(f"{path} contains no benchmark timings")
    return times


def trajectory_entries(directory: str) -> list[tuple[int, str]]:
    """Sorted (index, path) pairs of the BENCH_<n>.json entries in
    `directory` (empty list when the directory does not exist yet)."""
    if not os.path.isdir(directory):
        return []
    entries = []
    for filename in os.listdir(directory):
        match = ENTRY_PATTERN.match(filename)
        if match:
            entries.append((int(match.group(1)),
                            os.path.join(directory, filename)))
    entries.sort()
    return entries


def load_entry(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except OSError as error:
        fail(f"cannot read trajectory entry {path}: {error}")
    except json.JSONDecodeError as error:
        fail(f"trajectory entry {path} is not valid JSON: {error}")
    if not isinstance(entry, dict) or not isinstance(
            entry.get("benchmarks"), dict):
        fail(f"trajectory entry {path} is malformed "
             "(missing a 'benchmarks' object)")
    return entry


def cmd_append(args: argparse.Namespace) -> int:
    times = load_times(args.results)
    entries = trajectory_entries(args.dir)
    index = entries[-1][0] + 1 if entries else 0
    os.makedirs(args.dir, exist_ok=True)
    entry = {
        "schema": SCHEMA_VERSION,
        "entry": index,
        "commit": args.commit,
        "spec_hash": args.spec_hash,
        "benchmarks": times,
    }
    path = os.path.join(args.dir, f"BENCH_{index}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"bench_report: appended {path} "
          f"({len(times)} benchmarks, commit {args.commit or 'unknown'}, "
          f"spec_hash {args.spec_hash or 'unknown'})")
    return 0


def format_ns(value: float) -> str:
    """Compact human-readable nanoseconds for table cells."""
    if value >= 1e9:
        return f"{value / 1e9:.2f}s"
    if value >= 1e6:
        return f"{value / 1e6:.1f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.1f}us"
    return f"{value:.1f}ns"


def render_report(entries: list[dict], window: int) -> str:
    shown = entries[-window:] if window > 0 else entries
    names: list[str] = []
    for entry in shown:
        for name in entry["benchmarks"]:
            if name not in names:
                names.append(name)
    lines = ["# engine_micro benchmark trend", ""]
    total = len(entries)
    lines.append(
        f"{total} trajectory entr{'y' if total == 1 else 'ies'}; showing "
        f"the last {len(shown)}. Cells are representative time per "
        "iteration (real_time for /real_time runs, cpu_time otherwise); Δ "
        "is the change from the oldest to the newest shown entry.")
    lines.append("")
    header = ["benchmark"]
    for entry in shown:
        commit = entry.get("commit") or "?"
        header.append(f"#{entry.get('entry', '?')} ({str(commit)[:9]})")
    header.append("Δ window")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for name in names:
        row = [f"`{name}`"]
        series = [entry["benchmarks"].get(name) for entry in shown]
        for value in series:
            row.append(format_ns(value) if value is not None else "—")
        present = [value for value in series if value is not None]
        if len(present) >= 2 and present[0] > 0:
            delta = present[-1] / present[0] - 1.0
            row.append(f"{delta:+.1%}")
        else:
            row.append("—")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    hashes = {entry.get("spec_hash") for entry in shown if
              entry.get("spec_hash")}
    if len(hashes) > 1:
        lines.append(
            "> **Note:** the workload changed within this window "
            f"(spec_hash values: {', '.join(sorted(hashes))}); compare "
            "cells across the change with care.")
        lines.append("")
    return "\n".join(lines)


def cmd_report(args: argparse.Namespace) -> int:
    entry_files = trajectory_entries(args.dir)
    if not entry_files:
        fail(f"no BENCH_*.json entries in {args.dir!r} — run "
             "'bench_report.py append' first")
    entries = [load_entry(path) for _, path in entry_files]
    report = render_report(entries, args.window)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"bench_report: wrote {args.out} ({len(entries)} entries)")
    else:
        print(report)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    append = sub.add_parser(
        "append", help="validate results and append a trajectory entry")
    append.add_argument("results",
                        help="google-benchmark JSON output to persist")
    append.add_argument("--dir", default="bench-trajectory",
                        help="trajectory directory (default bench-trajectory)")
    append.add_argument("--commit", default="",
                        help="commit SHA the results were measured at")
    append.add_argument("--spec-hash", default="",
                        help="spec_hash of the benchmark workload "
                        "(ucr_cli --spec=specs/engine-micro.spec --hash-spec)")
    append.set_defaults(func=cmd_append)

    report = sub.add_parser(
        "report", help="render the trajectory as a markdown trend table")
    report.add_argument("--dir", default="bench-trajectory",
                        help="trajectory directory (default bench-trajectory)")
    report.add_argument("--out", default="",
                        help="write the report here instead of stdout")
    report.add_argument("--window", type=int, default=8,
                        help="number of most recent entries to show "
                        "(default 8; 0 = all)")
    report.set_defaults(func=cmd_report)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
