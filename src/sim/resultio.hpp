// Persistence of experiment results: a cell's aggregate row, its columns
// (the one description both streaming formats iterate, exp/sink.hpp), and
// its CSV written and read back, so sweep outputs (ucr_cli --format=csv)
// can be archived, diffed against EXPERIMENTS.md, and re-plotted without
// re-running the sweeps.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace ucr {

/// The persisted projection of an AggregateResult (one CSV or JSONL row).
/// Carries the full makespan quartile/percentile spread the Summary
/// computes — min, p25, median, p75, p95, max — plus the per-message
/// latency percentiles of dynamic cells, so archived sweeps can be
/// re-plotted with distribution envelopes without re-running anything.
/// Its number fields are the columns of row_columns() below.
struct AggregateRow {
  std::string protocol;
  std::uint64_t k = 0;
  std::uint64_t runs = 0;
  std::uint64_t incomplete_runs = 0;
  double mean_makespan = 0.0;
  double stddev_makespan = 0.0;
  double min_makespan = 0.0;
  double p25_makespan = 0.0;
  double median_makespan = 0.0;
  double p75_makespan = 0.0;
  double p95_makespan = 0.0;
  double max_makespan = 0.0;
  double mean_ratio = 0.0;
  /// Per-message latency percentiles (pooled over runs); 0 unless the
  /// cell ran with EngineOptions::record_latencies on a per-node engine.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  /// Energy accounting (AggregateResult::energy_mean / energy_max, see
  /// docs/SCENARIOS.md): mean per-station transmissions per run, and the
  /// worst single station's count across runs (0 on the fair engines).
  double energy_mean = 0.0;
  double energy_max = 0.0;
  /// Provenance: content hash of the canonical spec text
  /// (ucr::exp::spec_hash) when the row was emitted by the exp pipeline's
  /// streaming sinks; empty for rows assembled by hand. Shard-invariant,
  /// so concatenated shard archives stay byte-identical AND
  /// self-describing.
  std::string spec_hash;

  /// Projects an in-memory aggregate onto its persisted row (spec_hash is
  /// the emitting sink's to fill — the aggregate does not know its spec).
  static AggregateRow from(const AggregateResult& result);

  bool operator==(const AggregateRow&) const = default;
};

/// One number column of an aggregate row: its CSV header cell, its JSONL
/// member name and the AggregateRow field that holds it.
struct RowColumn {
  const char* csv_name;
  const char* json_name;
  double AggregateRow::*field;

  /// The column's text in both formats: format_double(row.*field, 6).
  std::string text(const AggregateRow& row) const;
};

/// The row's 14 number columns in row order: mean_makespan, the makespan
/// spread stddev/min/p25/median/p75/p95/max (JSONL appends "_makespan"),
/// mean_ratio, latency_p50/p95/p99, energy_mean and energy_max. The CSV
/// header and rows, read_aggregate_csv and exp::JsonlSink all iterate
/// this one table, so a new column is one entry here, with its
/// AggregateRow field and its line in AggregateRow::from (plus the cache
/// record, svc/result_cache.hpp, which versions its own fields). The
/// identity columns stay spelled by each format, since their order
/// differs: CSV has protocol, k, runs, incomplete_runs first and
/// spec_hash last; JSONL opens with cell, spec_hash, protocol, k,
/// arrival, channel, engine, runs and incomplete_runs.
std::span<const RowColumn> row_columns();

/// Writes a header plus one row per result.
void write_aggregate_csv(std::ostream& os,
                         const std::vector<AggregateRow>& rows);

/// Incremental writers behind write_aggregate_csv, for streaming emission
/// (exp/sink.hpp): header exactly as write_aggregate_csv emits it, one row
/// at a time. write_aggregate_csv(os, rows) == write_aggregate_header(os)
/// followed by write_aggregate_row for each row, byte for byte.
void write_aggregate_header(std::ostream& os);
void write_aggregate_row(std::ostream& os, const AggregateRow& row);

/// Reads rows written by write_aggregate_csv. Throws ContractViolation on
/// malformed input: a header that differs from the written one in any
/// cell, a wrong column count, an integer cell that is not decimal digits
/// or a number cell that is not one finite number.
std::vector<AggregateRow> read_aggregate_csv(std::istream& is);

/// Splits one CSV line into cells, honouring RFC 4180 quoting (the inverse
/// of CsvWriter::escape). Exposed for tests.
std::vector<std::string> parse_csv_line(const std::string& line);

}  // namespace ucr
