#include "sim/resultio.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "protocols/known_k.hpp"

namespace ucr {
namespace {

TEST(ParseCsvLine, PlainCells) {
  const auto cells = parse_csv_line("a,b,c");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "c");
}

TEST(ParseCsvLine, EmptyCells) {
  const auto cells = parse_csv_line(",x,");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "");
  EXPECT_EQ(cells[2], "");
}

TEST(ParseCsvLine, QuotedCellsWithCommasAndQuotes) {
  const auto cells = parse_csv_line("\"a,b\",\"say \"\"hi\"\"\",z");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a,b");
  EXPECT_EQ(cells[1], "say \"hi\"");
  EXPECT_EQ(cells[2], "z");
}

TEST(ParseCsvLine, StripsCarriageReturn) {
  const auto cells = parse_csv_line("a,b\r");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1], "b");
}

TEST(ParseCsvLine, RejectsUnterminatedQuote) {
  EXPECT_THROW(parse_csv_line("\"oops"), ContractViolation);
}

TEST(ParseCsvLine, RoundTripsCsvWriterEscaping) {
  for (const auto& original :
       {std::string("plain"), std::string("with,comma"),
        std::string("with \"quotes\""), std::string("")}) {
    const auto cells = parse_csv_line(CsvWriter::escape(original));
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0], original);
  }
}

TEST(ResultIo, RoundTripPreservesRows) {
  std::vector<AggregateRow> rows(2);
  rows[0].protocol = "One-Fail Adaptive";
  rows[0].k = 1000;
  rows[0].runs = 10;
  rows[0].mean_makespan = 7432.5;
  rows[0].stddev_makespan = 51.25;
  rows[0].min_makespan = 7300;
  rows[0].p25_makespan = 7390.25;
  rows[0].median_makespan = 7430;
  rows[0].p75_makespan = 7477.5;
  rows[0].p95_makespan = 7539.125;
  rows[0].max_makespan = 7550;
  rows[0].mean_ratio = 7.4325;
  rows[0].latency_p50 = 12.5;
  rows[0].latency_p95 = 91.25;
  rows[0].latency_p99 = 140.125;
  rows[0].energy_mean = 3.625;
  rows[0].energy_max = 17;
  rows[0].spec_hash = "2eed288eb0fae51d";
  rows[1].protocol = "Log-Fails Adaptive (2)";  // name with parentheses
  rows[1].k = 100;
  rows[1].runs = 5;
  rows[1].incomplete_runs = 1;
  rows[1].mean_makespan = 9034;
  rows[1].mean_ratio = 90.34;

  std::stringstream ss;
  write_aggregate_csv(ss, rows);
  const auto back = read_aggregate_csv(ss);

  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].protocol, rows[0].protocol);
  EXPECT_EQ(back[0].k, rows[0].k);
  EXPECT_EQ(back[0].runs, rows[0].runs);
  EXPECT_NEAR(back[0].mean_makespan, rows[0].mean_makespan, 1e-5);
  EXPECT_NEAR(back[0].stddev_makespan, rows[0].stddev_makespan, 1e-5);
  EXPECT_NEAR(back[0].p25_makespan, rows[0].p25_makespan, 1e-5);
  EXPECT_NEAR(back[0].median_makespan, rows[0].median_makespan, 1e-5);
  EXPECT_NEAR(back[0].p75_makespan, rows[0].p75_makespan, 1e-5);
  EXPECT_NEAR(back[0].p95_makespan, rows[0].p95_makespan, 1e-5);
  EXPECT_NEAR(back[0].mean_ratio, rows[0].mean_ratio, 1e-5);
  EXPECT_NEAR(back[0].latency_p50, rows[0].latency_p50, 1e-5);
  EXPECT_NEAR(back[0].latency_p95, rows[0].latency_p95, 1e-5);
  EXPECT_NEAR(back[0].latency_p99, rows[0].latency_p99, 1e-5);
  EXPECT_NEAR(back[0].energy_mean, rows[0].energy_mean, 1e-5);
  EXPECT_NEAR(back[0].energy_max, rows[0].energy_max, 1e-5);
  EXPECT_EQ(back[0].spec_hash, rows[0].spec_hash);
  EXPECT_EQ(back[1].incomplete_runs, 1u);
  EXPECT_EQ(back[1].protocol, rows[1].protocol);
  EXPECT_EQ(back[1].spec_hash, "");  // hand-built rows carry no provenance
}

TEST(ResultIo, FromAggregateResult) {
  const auto factory = make_known_k_factory();
  const AggregateResult res = run_fair_experiment(factory, 50, 4, 1, {});
  const AggregateRow row = AggregateRow::from(res);
  EXPECT_EQ(row.protocol, res.protocol);
  EXPECT_EQ(row.k, 50u);
  EXPECT_EQ(row.runs, 4u);
  EXPECT_DOUBLE_EQ(row.mean_makespan, res.makespan.mean);
  EXPECT_DOUBLE_EQ(row.p25_makespan, res.makespan.p25);
  EXPECT_DOUBLE_EQ(row.median_makespan, res.makespan.median);
  EXPECT_DOUBLE_EQ(row.p75_makespan, res.makespan.p75);
  EXPECT_DOUBLE_EQ(row.p95_makespan, res.makespan.p95);
  EXPECT_DOUBLE_EQ(row.mean_ratio, res.ratio.mean);
  // The percentile spread brackets the extremes the row also carries.
  EXPECT_LE(row.min_makespan, row.p25_makespan);
  EXPECT_LE(row.p25_makespan, row.median_makespan);
  EXPECT_LE(row.median_makespan, row.p75_makespan);
  EXPECT_LE(row.p75_makespan, row.p95_makespan);
  EXPECT_LE(row.p95_makespan, row.max_makespan);
}

TEST(ResultIo, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(read_aggregate_csv(empty), ContractViolation);

  std::stringstream bad_header("who,knows\n1,2\n");
  EXPECT_THROW(read_aggregate_csv(bad_header), ContractViolation);

  std::stringstream bad_cols(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
      "energy_mean,energy_max,spec_hash\nX,1,2\n");
  EXPECT_THROW(read_aggregate_csv(bad_cols), ContractViolation);

  std::stringstream bad_number(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
      "energy_mean,energy_max,spec_hash\nX,abc,2,0,1,1,1,1,1,1,1,1,1,0,0,0,"
      "0,0,h\n");
  EXPECT_THROW(read_aggregate_csv(bad_number), ContractViolation);

  // Integer cells are decimal digits only (k = -1 is not 2^64 - 1) and
  // number cells finite.
  const std::string header =
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
      "energy_mean,energy_max,spec_hash\n";
  for (const char* row : {"X,-1,2,0,1,1,1,1,1,1,1,1,1,0,0,0,0,0,h\n",
                          "X,1,+2,0,1,1,1,1,1,1,1,1,1,0,0,0,0,0,h\n",
                          "X,1,2,0,inf,1,1,1,1,1,1,1,1,0,0,0,0,0,h\n",
                          "X,1,2,0,1,1,1,1,1,1,1,1,nan,0,0,0,0,0,h\n"}) {
    std::stringstream bad_cell(header + row);
    EXPECT_THROW(read_aggregate_csv(bad_cell), ContractViolation) << row;
  }

  // Every header cell is checked: with latency_p50 and latency_p95
  // swapped, each value would land in the other's field.
  std::stringstream swapped(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p95,latency_p50,latency_p99,"
      "energy_mean,energy_max,spec_hash\nX,1,2,0,1,1,1,1,1,1,1,1,1,0,0,0,"
      "0,0,h\n");
  EXPECT_THROW(read_aggregate_csv(swapped), ContractViolation);

  // Superseded formats are rejected loudly, not misread: the
  // pre-percentile 9-column layout, the pre-latency/provenance 13-column
  // layout, and the pre-energy 17-column layout.
  std::stringstream nine_columns(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,max,"
      "mean_ratio\nX,1,2,0,1,1,1,1,1\n");
  EXPECT_THROW(read_aggregate_csv(nine_columns), ContractViolation);
  std::stringstream thirteen_columns(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio\nX,1,2,0,1,1,1,1,1,1,1,1,1\n");
  EXPECT_THROW(read_aggregate_csv(thirteen_columns), ContractViolation);
  std::stringstream seventeen_columns(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
      "spec_hash\nX,1,2,0,1,1,1,1,1,1,1,1,1,0,0,0,h\n");
  EXPECT_THROW(read_aggregate_csv(seventeen_columns), ContractViolation);
}

TEST(ResultIo, SkipsBlankLines) {
  std::vector<AggregateRow> rows(1);
  rows[0].protocol = "X";
  rows[0].k = 10;
  std::stringstream ss;
  write_aggregate_csv(ss, rows);
  ss << "\n";
  EXPECT_EQ(read_aggregate_csv(ss).size(), 1u);
}

}  // namespace
}  // namespace ucr
