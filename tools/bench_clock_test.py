#!/usr/bin/env python3
"""Checks which clock bench_report.py and bench_compare.py keep.

Benchmarks registered with UseRealTime() run their work on pool threads or
in child processes, so their run names end in /real_time and both scripts
must keep real_time for them; every other benchmark keeps cpu_time. The
test feeds both scripts a small google-benchmark JSON holding one entry of
each kind, with the two clocks set far apart, and checks which value comes
out. Run it with no arguments; it exits nonzero on the first mismatch.
"""

import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))


def results(cpu_timed, real_timed):
    """google-benchmark JSON with one iteration entry per clock kind:
    (cpu_time, real_time) pairs for a CPU-timed and a real-timed run."""
    def entry(name, times):
        return {"name": name, "run_name": name, "run_type": "iteration",
                "iterations": 10, "cpu_time": times[0],
                "real_time": times[1], "time_unit": "ns"}
    return {"context": {}, "benchmarks": [
        entry("BM_CpuTimed/100", cpu_timed),
        entry("BM_RealTimed/real_time", real_timed),
    ]}


def run(script, *args):
    return subprocess.run([sys.executable, os.path.join(TOOLS, script), *args],
                          capture_output=True, text=True, check=True).stdout


def main():
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)

    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, "baseline.json")
        current = os.path.join(tmp, "current.json")
        with open(baseline, "w", encoding="utf-8") as handle:
            json.dump(results((100.0, 900.0), (5.0, 1000.0)), handle)
        with open(current, "w", encoding="utf-8") as handle:
            json.dump(results((110.0, 5000.0), (50.0, 1100.0)), handle)

        trajectory = os.path.join(tmp, "trajectory")
        run("bench_report.py", "append", current, f"--dir={trajectory}")
        with open(os.path.join(trajectory, "BENCH_0.json"),
                  encoding="utf-8") as handle:
            kept = json.load(handle)["benchmarks"]
        expect(kept == {"BM_CpuTimed/100": 110.0,
                        "BM_RealTimed/real_time": 1100.0},
               f"bench_report.py kept {kept}")

        compared = run("bench_compare.py", baseline, current)
        expect("BM_CpuTimed/100: 100ns -> 110ns" in compared,
               f"bench_compare.py did not compare cpu_time:\n{compared}")
        expect("BM_RealTimed/real_time: 1000ns -> 1100ns" in compared,
               f"bench_compare.py did not compare real_time:\n{compared}")

    for failure in failures:
        print(f"bench_clock_test: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("bench_clock_test: both scripts keep the benchmark's clock")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
