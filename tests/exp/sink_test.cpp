// ResultSink semantics: round-trip through read_aggregate_csv, header-once
// (and only on shard 0), grid-order emission regardless of dispatch
// order — the contract that makes streaming output deterministic — and
// one column text in both formats.
#include "exp/sink.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/registry.hpp"
#include "exp/run.hpp"
#include "exp/spec_io.hpp"

namespace ucr::exp {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.runs = 3;
  spec.seed = 99;
  spec.with_ks({10, 40, 80});
  for (const auto& p : paper_protocols()) spec.with_factory(p);
  return spec;
}

TEST(CsvSink, RoundTripsThroughReadAggregateCsv) {
  const ExperimentPlan plan = compile(small_spec());
  std::ostringstream csv;
  CsvStreamSink sink(csv);
  MemorySink memory;
  run(plan, {&sink, &memory}, {2});

  std::istringstream in(csv.str());
  const std::vector<AggregateRow> rows = read_aggregate_csv(in);
  ASSERT_EQ(rows.size(), memory.results().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].protocol, memory.results()[i].protocol);
    EXPECT_EQ(rows[i].k, memory.results()[i].k);
    EXPECT_EQ(rows[i].runs, memory.results()[i].runs);
    // The resultio format carries 6 decimal places.
    EXPECT_NEAR(rows[i].mean_ratio, memory.results()[i].ratio.mean, 1e-6);
    EXPECT_NEAR(rows[i].mean_makespan, memory.results()[i].makespan.mean,
                1e-6);
  }
}

TEST(CsvSink, HeaderAppearsExactlyOnceAndOnlyOnShardZero) {
  ExperimentSpec spec = small_spec();
  const auto count_headers = [](const std::string& text) {
    std::size_t count = 0;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("protocol,", 0) == 0) ++count;
    }
    return count;
  };

  std::ostringstream whole;
  {
    CsvStreamSink sink(whole);
    run(compile(spec), {&sink}, {1});
  }
  EXPECT_EQ(count_headers(whole.str()), 1u);

  spec.shard.count = 2;
  spec.shard.index = 0;
  std::ostringstream shard0;
  {
    CsvStreamSink sink(shard0);
    run(compile(spec), {&sink}, {1});
  }
  spec.shard.index = 1;
  std::ostringstream shard1;
  {
    CsvStreamSink sink(shard1);
    run(compile(spec), {&sink}, {1});
  }
  EXPECT_EQ(count_headers(shard0.str()), 1u);
  EXPECT_EQ(count_headers(shard1.str()), 0u);  // header on shard 0 only
}

TEST(Sinks, EmitInGridOrderUnderConcurrentCompletion) {
  // Size-skewed grid on several workers: small cells of later grid rows
  // finish while earlier big cells are still running, so completion order
  // differs from grid order — emission must still be grid order.
  ExperimentSpec spec;
  spec.runs = 2;
  spec.with_ks({2000, 10, 50, 400});
  for (const auto& p : paper_protocols()) spec.with_factory(p);

  MemorySink memory;
  RunOptions options;
  options.threads = 4;
  run(compile(spec), {&memory}, options);

  ASSERT_EQ(memory.cells().size(), 5u * 4u);
  for (std::size_t i = 0; i < memory.cells().size(); ++i) {
    EXPECT_EQ(memory.cells()[i].index, i);
  }
}

TEST(JsonlSink, OneObjectPerCellWithIdentity) {
  ExperimentSpec spec;
  spec.runs = 2;
  spec.with_ks({10});
  spec.with_arrival(ArrivalSpec::batch());
  spec.with_arrival(ArrivalSpec::burst(2, 16));
  spec.with_factory(paper_protocols()[2]);  // One-Fail Adaptive

  std::ostringstream out;
  JsonlSink sink(out);
  run(compile(spec), {&sink}, {2});

  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"cell\":0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"arrival\":\"batch\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"engine\":\"fair\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cell\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"arrival\":\"burst(2,16)\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"engine\":\"node\""), std::string::npos);
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
    EXPECT_NE(l.find("\"protocol\":\"One-Fail Adaptive\""),
              std::string::npos);
    // The full percentile spread and the latency columns ride along in
    // every row, as does the spec provenance hash.
    for (const char* key :
         {"\"p25_makespan\":", "\"median_makespan\":", "\"p75_makespan\":",
          "\"p95_makespan\":", "\"latency_p50\":", "\"latency_p95\":",
          "\"latency_p99\":"}) {
      EXPECT_NE(l.find(key), std::string::npos) << key;
    }
    EXPECT_NE(l.find("\"spec_hash\":\"" + spec_hash(spec) + "\""),
              std::string::npos);
  }
}

TEST(Sinks, RowsCarryTheShardInvariantSpecHash) {
  // CSV rows stamp the plan's spec_hash; sharded and unsharded runs of
  // one sweep stamp the same value (the hash normalizes the shard out),
  // which is what keeps concatenated shard archives both self-describing
  // and byte-identical to the unsharded file (shard_test pins the bytes).
  ExperimentSpec spec = small_spec();
  const std::string expected = spec_hash(spec);

  const auto rows_of = [](const ExperimentSpec& s) {
    std::ostringstream out;
    CsvStreamSink sink(out);
    run(compile(s), {&sink}, {1});
    return out.str();
  };

  std::istringstream whole(rows_of(spec));
  for (const AggregateRow& row : read_aggregate_csv(whole)) {
    EXPECT_EQ(row.spec_hash, expected);
  }

  spec.shard.count = 2;
  spec.shard.index = 1;  // no header on shard 1: prepend one to re-read
  std::ostringstream shard1;
  {
    CsvStreamSink sink(shard1);
    run(compile(spec), {&sink}, {1});
  }
  std::ostringstream with_header;
  write_aggregate_header(with_header);
  std::istringstream sharded(with_header.str() + shard1.str());
  const auto rows = read_aggregate_csv(sharded);
  ASSERT_FALSE(rows.empty());
  for (const AggregateRow& row : rows) {
    EXPECT_EQ(row.spec_hash, expected);
  }
}

TEST(Sinks, CsvAndJsonlRowsCarryTheSameColumnText) {
  // One grid through both sinks: batch cells on the fair engine and
  // Poisson cells on the node engine with latencies, so every column of
  // sim/resultio's table holds numbers. The JSONL row is the identity
  // members, then the table's columns; each column's JSON token is the
  // CSV row's text, read back with read_aggregate_csv.
  ExperimentSpec spec;
  spec.runs = 3;
  spec.seed = 7;
  spec.with_ks({10, 40});
  spec.with_arrival(ArrivalSpec::batch());
  spec.with_arrival(ArrivalSpec::poisson(0.05));
  spec.engine_options.record_latencies = true;
  spec.with_protocol("One-Fail Adaptive");
  spec.with_protocol("Exp Back-on/Back-off");
  std::ostringstream csv;
  std::ostringstream jsonl;
  CsvStreamSink csv_sink(csv);
  JsonlSink jsonl_sink(jsonl);
  run(compile(spec, default_catalogue()), {&csv_sink, &jsonl_sink}, {2});

  std::istringstream csv_in(csv.str());
  const std::vector<AggregateRow> rows = read_aggregate_csv(csv_in);
  std::istringstream jsonl_in(jsonl.str());
  std::vector<json::Value> objects;
  for (std::string line; std::getline(jsonl_in, line);) {
    objects.push_back(json::parse(line));
  }
  ASSERT_EQ(rows.size(), 8u);
  ASSERT_EQ(objects.size(), rows.size());

  std::vector<std::string> members = {
      "cell",
      "spec_hash",
      "protocol",
      "k",
      "arrival",
      "channel",
      "engine",
      "runs",
      "incomplete_runs",
  };
  for (const RowColumn& column : row_columns()) {
    members.push_back(column.json_name);
  }
  bool latencies = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "cell " << i);
    const json::Value& object = objects[i];
    std::vector<std::string> names;
    for (const auto& member : object.members()) names.push_back(member.first);
    EXPECT_EQ(names, members);
    EXPECT_EQ(object.at("spec_hash").as_string(), rows[i].spec_hash);
    EXPECT_EQ(object.at("protocol").as_string(), rows[i].protocol);
    EXPECT_EQ(object.at("k").as_u64(), rows[i].k);
    EXPECT_EQ(object.at("runs").as_u64(), rows[i].runs);
    EXPECT_EQ(object.at("incomplete_runs").as_u64(), rows[i].incomplete_runs);
    for (const RowColumn& column : row_columns()) {
      EXPECT_EQ(object.at(column.json_name).number_token(),
                column.text(rows[i]))
          << column.csv_name;
    }
    latencies |= rows[i].latency_p99 > 0.0;
  }
  EXPECT_TRUE(latencies);
}

TEST(JsonlSink, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

}  // namespace
}  // namespace ucr::exp
