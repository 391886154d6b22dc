#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks (checks.py): each check
accepts a good output and rejects a corrupted one. Needs no build.

    python3 perfbench/selftest.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

HASH = "c3b10269b4287a8d"
HEADER = ("protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,p75,p95,max,"
          "mean_ratio,latency_p50,latency_p95,latency_p99,energy_mean,energy_max,spec_hash")


def csv_row(protocol, ratio, spec_hash=HASH):
    return (f"{protocol},1000000,10,0,{ratio * 1e6:.6f},1.0,1.0,1.0,1.0,1.0,1.0,1.0,"
            f"{ratio:.6f},0.000000,0.000000,0.000000,1.0,0.000000,{spec_hash}")


GOOD_RATIOS = {
    "Log-Fails Adaptive (2)": 7.676756,
    "Log-Fails Adaptive (10)": 4.267842,
    "One-Fail Adaptive": 7.439851,
    "Exp Back-on/Back-off": 5.559064,
}
BOUNDS = {"e": 2.718281828459045, "One-Fail Adaptive": 7.44, "Exp Back-on/Back-off": 14.928961748633879,
          "Log-Fails Adaptive (2)": 7.80056365691809, "Log-Fails Adaptive (10)": 4.353646476065606}


def good_csv(ratios=GOOD_RATIOS):
    return "\n".join([HEADER] + [csv_row(p, r) for p, r in ratios.items()]) + "\n"


GOOD_JSONL = (
    '{"cell":0,"spec_hash":"%s","protocol":"One-Fail Adaptive","k":200,"runs":10,"incomplete_runs":3,'
    '"mean_ratio":1.0}\n'
    '{"cell":1,"spec_hash":"%s","protocol":"Exp Back-on/Back-off","k":200,"runs":10,"incomplete_runs":0,'
    '"mean_ratio":1.0}\n' % (HASH, HASH))


class ChecksTest(unittest.TestCase):
    def test_good_outputs_pass(self):
        rows, problems = checks.check_rows(good_csv(), "csv", 4, HASH)
        self.assertEqual(problems, [])
        self.assertEqual(checks.check_ratios(rows, BOUNDS), [])
        self.assertEqual(checks.check_exit(0, rows), [])
        rows, problems = checks.check_rows(GOOD_JSONL, "jsonl", 2, HASH)
        self.assertEqual(problems, [])
        self.assertEqual(checks.check_exit(1, rows), [])  # capped runs: exit 1
        self.assertEqual(checks.run_counts(rows), (3, 20))

    def test_truncated_row_fails(self):
        text = good_csv()
        truncated = text[: text.rindex(",")] + "\n"  # last row loses its spec_hash
        self.assertNotEqual(checks.check_rows(truncated, "csv", 4, HASH)[1], [])
        self.assertNotEqual(checks.check_rows(GOOD_JSONL[:-20] + "\n", "jsonl", 2, HASH)[1], [])
        missing = "".join(good_csv().splitlines(keepends=True)[:-1])  # a whole row lost
        self.assertNotEqual(checks.check_rows(missing, "csv", 4, HASH)[1], [])

    def test_wrong_spec_hash_fails(self):
        rows = good_csv().splitlines()
        rows[2] = csv_row("Log-Fails Adaptive (10)", 4.267842, spec_hash="0123456789abcdef")
        self.assertNotEqual(checks.check_rows("\n".join(rows) + "\n", "csv", 4, HASH)[1], [])
        self.assertNotEqual(checks.check_rows(GOOD_JSONL, "jsonl", 2, "0123456789abcdef")[1], [])

    def test_ratio_out_of_bounds_fails(self):
        for protocol, bad in (("One-Fail Adaptive", 7.6), ("Exp Back-on/Back-off", 2.5)):
            ratios = dict(GOOD_RATIOS, **{protocol: bad})
            rows, problems = checks.check_rows(good_csv(ratios), "csv", 4, HASH)
            self.assertEqual(problems, [])
            self.assertNotEqual(checks.check_ratios(rows, BOUNDS), [], protocol)

    def test_exit_status_must_match_capped_runs(self):
        rows, _ = checks.check_rows(GOOD_JSONL, "jsonl", 2, HASH)
        self.assertNotEqual(checks.check_exit(0, rows), [])  # capped runs but exit 0
        self.assertNotEqual(checks.check_exit(2, rows), [])
        rows, _ = checks.check_rows(good_csv(), "csv", 4, HASH)
        self.assertNotEqual(checks.check_exit(1, rows), [])  # exit 1 without capped runs


if __name__ == "__main__":
    unittest.main()
