#include "sim/resultio.hpp"

#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace ucr {

namespace {

constexpr RowColumn kColumns[] = {
    {"mean_makespan", "mean_makespan", &AggregateRow::mean_makespan},
    {"stddev", "stddev_makespan", &AggregateRow::stddev_makespan},
    {"min", "min_makespan", &AggregateRow::min_makespan},
    {"p25", "p25_makespan", &AggregateRow::p25_makespan},
    {"median", "median_makespan", &AggregateRow::median_makespan},
    {"p75", "p75_makespan", &AggregateRow::p75_makespan},
    {"p95", "p95_makespan", &AggregateRow::p95_makespan},
    {"max", "max_makespan", &AggregateRow::max_makespan},
    {"mean_ratio", "mean_ratio", &AggregateRow::mean_ratio},
    {"latency_p50", "latency_p50", &AggregateRow::latency_p50},
    {"latency_p95", "latency_p95", &AggregateRow::latency_p95},
    {"latency_p99", "latency_p99", &AggregateRow::latency_p99},
    {"energy_mean", "energy_mean", &AggregateRow::energy_mean},
    {"energy_max", "energy_max", &AggregateRow::energy_max},
};

/// The CSV header: protocol, k, runs, incomplete_runs, the table's
/// columns, spec_hash.
std::vector<std::string> csv_header() {
  std::vector<std::string> header = {"protocol", "k", "runs",
                                     "incomplete_runs"};
  for (const RowColumn& column : kColumns) header.push_back(column.csv_name);
  header.push_back("spec_hash");
  return header;
}

}  // namespace

std::span<const RowColumn> row_columns() { return kColumns; }

std::string RowColumn::text(const AggregateRow& row) const {
  return format_double(row.*field, 6);
}

AggregateRow AggregateRow::from(const AggregateResult& result) {
  AggregateRow row;
  row.protocol = result.protocol;
  row.k = result.k;
  row.runs = result.runs;
  row.incomplete_runs = result.incomplete_runs;
  row.mean_makespan = result.makespan.mean;
  row.stddev_makespan = result.makespan.stddev;
  row.min_makespan = result.makespan.min;
  row.p25_makespan = result.makespan.p25;
  row.median_makespan = result.makespan.median;
  row.p75_makespan = result.makespan.p75;
  row.p95_makespan = result.makespan.p95;
  row.max_makespan = result.makespan.max;
  row.mean_ratio = result.ratio.mean;
  row.latency_p50 = result.latency_p50;
  row.latency_p95 = result.latency_p95;
  row.latency_p99 = result.latency_p99;
  row.energy_mean = result.energy_mean;
  row.energy_max = result.energy_max;
  return row;
}

void write_aggregate_header(std::ostream& os) {
  CsvWriter(os).write_row(csv_header());
}

void write_aggregate_row(std::ostream& os, const AggregateRow& r) {
  std::vector<std::string> cells = {r.protocol, std::to_string(r.k),
                                    std::to_string(r.runs),
                                    std::to_string(r.incomplete_runs)};
  for (const RowColumn& column : kColumns) cells.push_back(column.text(r));
  cells.push_back(r.spec_hash);
  CsvWriter(os).write_row(cells);
}

void write_aggregate_csv(std::ostream& os,
                         const std::vector<AggregateRow>& rows) {
  write_aggregate_header(os);
  for (const AggregateRow& r : rows) {
    write_aggregate_row(os, r);
  }
}

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;  // escaped quote
        } else {
          in_quotes = false;
        }
      } else {
        cell += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (ch != '\r') {
      cell += ch;
    }
  }
  UCR_REQUIRE(!in_quotes, "unterminated quote in CSV line");
  cells.push_back(std::move(cell));
  return cells;
}

std::vector<AggregateRow> read_aggregate_csv(std::istream& is) {
  const std::vector<std::string> header = csv_header();
  std::string line;
  UCR_REQUIRE(static_cast<bool>(std::getline(is, line)),
              "empty CSV input");
  UCR_REQUIRE(parse_csv_line(line) == header, "unexpected CSV header");

  std::vector<AggregateRow> rows;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = parse_csv_line(line);
    UCR_REQUIRE(cells.size() == header.size(), "wrong number of columns");
    const auto source = [&](std::size_t i) {
      return "CSV column '" + header[i] + "'";
    };
    AggregateRow row;
    row.protocol = cells[0];
    row.k = parse_u64_strict(cells[1], source(1));
    row.runs = parse_u64_strict(cells[2], source(2));
    row.incomplete_runs = parse_u64_strict(cells[3], source(3));
    std::size_t i = 4;
    for (const RowColumn& column : kColumns) {
      row.*column.field = parse_finite_double(cells[i], source(i));
      ++i;
    }
    row.spec_hash = cells[i];
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ucr
