"""Correctness checks on the outputs the benchmark measures.

Each check returns a list of problems (empty when the output is correct),
so run.py can count a failed operation without stopping the run. The
checks read only what survives schema and model-version changes: the row
count, the spec_hash column, the runs / incomplete_runs columns and, on
static-batched, the k = 10^6 mean ratios against the paper's analysis.
selftest.py shows that each check rejects a corrupted output.
"""
import csv
import io
import json

# Relative slack above a Table 1 analysis ratio. One-Fail Adaptive sits at
# its analysis ratio (7.4399 measured against 7.44), so the bound needs a
# margin for sampling noise across seeds; 1% is far below the gap to any
# other protocol's ratio.
RATIO_TOLERANCE = 0.01
RATIO_K = 1000000


def parse_rows(text, fmt):
    """Rows of a CSV (header line first) or JSONL output, as dicts.

    Raises ValueError on a malformed line, including a CSV row whose field
    count differs from the header's."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines:
            return []
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        rows = []
        for n, fields in enumerate(reader, start=2):
            if len(fields) != len(header):
                raise ValueError(f"line {n}: {len(fields)} fields, header has {len(header)}")
            rows.append(dict(zip(header, fields)))
        return rows
    rows = []
    for n, line in enumerate(text.splitlines(), start=1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"line {n}: {e}") from None
        if not isinstance(row, dict):
            raise ValueError(f"line {n}: not a JSON object")
        rows.append(row)
    return rows


def run_counts(rows):
    """(capped runs, runs) summed over rows."""
    incomplete = sum(int(row["incomplete_runs"]) for row in rows)
    runs = sum(int(row["runs"]) for row in rows)
    return incomplete, runs


def check_rows(text, fmt, cells, spec_hash):
    """Parses an output and checks its row count and every row's spec_hash.
    Returns (rows, problems)."""
    try:
        rows = parse_rows(text, fmt)
    except ValueError as e:
        return [], [f"malformed output: {e}"]
    problems = []
    if len(rows) != cells:
        problems.append(f"{len(rows)} rows, the compiled plan has {cells} cells")
    for i, row in enumerate(rows):
        if row.get("spec_hash") != spec_hash:
            problems.append(f"row {i}: spec_hash {row.get('spec_hash')!r}, expected {spec_hash!r}")
            break
    try:
        run_counts(rows)
    except (KeyError, ValueError) as e:
        problems.append(f"bad runs/incomplete_runs column: {e}")
    return rows, problems


def check_exit(code, rows):
    """ucr_cli exits 0, or 1 exactly when some run hit the slot cap."""
    incomplete, _ = run_counts(rows)
    if code == 0 and incomplete == 0:
        return []
    if code == 1 and incomplete > 0:
        return []
    return [f"exit status {code} with {incomplete} capped runs"]


def check_ratios(rows, bounds):
    """Every bounded protocol's k = 10^6 mean ratio lies between e and its
    Table 1 analysis ratio (plus RATIO_TOLERANCE)."""
    problems = []
    floor = bounds["e"]
    for protocol, ceiling in bounds.items():
        if protocol == "e":
            continue
        found = [r for r in rows if r.get("protocol") == protocol and int(r.get("k", 0)) == RATIO_K]
        if len(found) != 1:
            problems.append(f"{protocol}: {len(found)} rows at k = {RATIO_K}")
            continue
        ratio = float(found[0]["mean_ratio"])
        if not floor <= ratio <= ceiling * (1 + RATIO_TOLERANCE):
            problems.append(
                f"{protocol}: k = {RATIO_K} ratio {ratio} outside [{floor:.4f}, {ceiling:.4f} + {RATIO_TOLERANCE:.0%}]"
            )
    return problems
