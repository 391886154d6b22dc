// Golden byte-identity of shipped sweeps — the end-to-end pin on RNG
// consumption order.
//
// Three layers:
//
//  1. Cross-engine: specs/dynamic-arrivals.spec (shrunk to test scale via
//     the same flag-wins overrides CI uses) is run once with engine=node
//     and once with engine=node_batched. For every protocol whose engines
//     share a draw-for-draw RNG path — the hint-1 automata (One-Fail,
//     Dynamic One-Fail) and the pre-drawn window adapters (Exp
//     Back-on/Back-off, LogLog-Iterated Back-off) — the CSV and JSONL
//     rows must be byte-identical up to the provenance fields that name
//     the spelling (spec_hash, and the JSONL engine label). Log-Fails
//     Adaptive certifies fractional-probability stretches, so its rows
//     are equal in law but not in bytes; they are exempted here and
//     pinned statistically in node_batched_test.cpp.
//
//  2. Golden files: the full normalized output of each engine mode must
//     match the checked-in bytes under tests/golden/. Any change to where
//     either engine consumes randomness — a reordered draw, an extra coin,
//     a substream rekeying — shifts trajectories and fails this loudly,
//     even when it is law-preserving. Intentional changes re-record with
//     UCR_REGOLD=1 in the environment; the diff then documents the drift
//     in review.
//
//  3. Shipped-spec goldens: specs/table1.spec at test scale in each fair
//     engine mode, and specs/capture-jamming.spec as shipped (the exact
//     node engine under every channel model), pinned byte for byte with
//     their spec_hash, under the same UCR_REGOLD switch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dynamic_one_fail.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"

namespace ucr {
namespace {

using exp::EngineMode;

std::vector<ProtocolFactory> full_catalogue() {
  auto protocols = all_protocols();
  protocols.push_back(make_dynamic_one_fail_factory());
  return protocols;
}

exp::SpecFile load_shrunk_dynamic_arrivals() {
  exp::SpecFile file = exp::load_spec_file(std::string(UCR_REPO_ROOT) +
                                           "/specs/dynamic-arrivals.spec");
  // Shrink to test scale the way CI shrinks shipped specs (flag-wins
  // overrides), keeping protocols, arrival grid, seed and latency
  // recording as shipped.
  file.spec.ks = {40};
  file.spec.k_max = 0;
  file.spec.runs = 3;
  file.spec.engine_options.max_slots = 40000;
  return file;
}

/// Drop the trailing spec_hash column of every CSV line: the two engine
/// modes are different canonical spec texts, so their hashes legitimately
/// differ even when every measured byte agrees.
std::string csv_without_spec_hash(const std::string& csv) {
  std::string out;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) {
    out += line.substr(0, line.rfind(','));
    out += '\n';
  }
  return out;
}

/// Blank a `"key":"..."` field of a JSONL row (spec_hash / engine carry
/// the spelling, not the results).
std::string jsonl_without_field(const std::string& jsonl,
                                const std::string& key) {
  const std::string marker = "\"" + key + "\":\"";
  std::string out;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    const std::size_t begin = line.find(marker);
    if (begin != std::string::npos) {
      const std::size_t value = begin + marker.size();
      const std::size_t end = line.find('"', value);
      if (end == std::string::npos) {
        ADD_FAILURE() << "unterminated " << key << " field: " << line;
      } else {
        line.erase(value, end - value);
      }
    }
    out += line;
    out += '\n';
  }
  return out;
}

struct SweepOutput {
  std::string csv;
  std::string jsonl;
};

SweepOutput run_mode(EngineMode mode) {
  exp::SpecFile file = load_shrunk_dynamic_arrivals();
  file.spec.engine = mode;
  const exp::ExperimentPlan plan =
      exp::compile(file.spec, full_catalogue());
  std::ostringstream csv_text;
  std::ostringstream jsonl_text;
  exp::CsvStreamSink csv(csv_text);
  exp::JsonlSink jsonl(jsonl_text);
  exp::run(plan, {&csv, &jsonl}, {1});
  SweepOutput out;
  out.csv = csv_without_spec_hash(csv_text.str());
  jsonl_without_field(jsonl_text.str(), "spec_hash").swap(out.jsonl);
  jsonl_without_field(out.jsonl, "engine").swap(out.jsonl);
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Log-Fails Adaptive (either xi) is the one catalogued protocol whose
/// batched stretches consume randomness differently (fractional-p
/// certificates); every other row must agree byte for byte.
bool exempt_from_bit_identity(const std::string& line) {
  return line.find("Log-Fails") != std::string::npos;
}

TEST(SpecGolden, DynamicArrivalsNodeVsNodeBatchedByteIdentity) {
  const SweepOutput node = run_mode(EngineMode::kNode);
  const SweepOutput batched = run_mode(EngineMode::kNodeBatched);
  std::size_t compared = 0;
  std::size_t exempted = 0;
  const std::vector<std::pair<std::string, std::string>> formats = {
      {node.csv, batched.csv}, {node.jsonl, batched.jsonl}};
  for (const auto& format : formats) {
    const auto node_lines = lines_of(format.first);
    const auto batched_lines = lines_of(format.second);
    ASSERT_EQ(node_lines.size(), batched_lines.size());
    for (std::size_t i = 0; i < node_lines.size(); ++i) {
      if (exempt_from_bit_identity(node_lines[i])) {
        EXPECT_TRUE(exempt_from_bit_identity(batched_lines[i]));
        ++exempted;
        continue;
      }
      EXPECT_EQ(node_lines[i], batched_lines[i]) << "row " << i;
      ++compared;
    }
  }
  // 6 protocols x 4 arrival cells per format (plus the CSV header), a
  // third of which are the exempt Log-Fails rows: the identity claim must
  // actually have bitten.
  EXPECT_GE(compared, 30u);
  EXPECT_EQ(exempted, 16u);
}

std::string golden_path(const std::string& name) {
  return std::string(UCR_REPO_ROOT) + "/tests/golden/" + name;
}

void expect_matches_golden(const std::string& actual,
                           const std::string& name) {
  const std::string path = golden_path(name);
  if (std::getenv("UCR_REGOLD") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (record with UCR_REGOLD=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << name << " drifted; if the change to RNG consumption order is "
      << "intentional, re-record with UCR_REGOLD=1";
}

TEST(SpecGolden, DynamicArrivalsOutputMatchesGoldenFiles) {
  const SweepOutput node = run_mode(EngineMode::kNode);
  const SweepOutput batched = run_mode(EngineMode::kNodeBatched);
  expect_matches_golden(node.csv, "dynamic-arrivals.node.csv.golden");
  expect_matches_golden(node.jsonl, "dynamic-arrivals.node.jsonl.golden");
  expect_matches_golden(batched.csv,
                        "dynamic-arrivals.node_batched.csv.golden");
  expect_matches_golden(batched.jsonl,
                        "dynamic-arrivals.node_batched.jsonl.golden");
}

/// Full output bytes of a shipped spec, spec_hash included, run on one
/// thread into the sink its `format` key names.
std::string run_spec_file(const exp::SpecFile& file) {
  const exp::ExperimentPlan plan = exp::compile(file.spec, full_catalogue());
  std::ostringstream text;
  exp::CsvStreamSink csv(text);
  exp::JsonlSink jsonl(text);
  exp::ResultSink* sink = &csv;
  if (file.format == exp::OutputFormat::kJsonl) sink = &jsonl;
  exp::run(plan, {sink}, {1});
  return text.str();
}

exp::SpecFile load_shrunk_table1() {
  exp::SpecFile file =
      exp::load_spec_file(std::string(UCR_REPO_ROOT) + "/specs/table1.spec");
  file.spec.k_max = 10000;
  file.spec.runs = 3;
  return file;
}

// Table 1 at test scale on the batched fair engines: One-Fail's thinned
// steps, tens of thousands of Log-Fails cycle steps, and windows on every
// path of the batched window engine (per-slot chain, bitmap walk, sorted
// walk).
TEST(SpecGolden, Table1BatchedOutputMatchesGoldenFile) {
  expect_matches_golden(run_spec_file(load_shrunk_table1()),
                        "table1.batched.csv.golden");
}

// The same grid on the exact fair engines, whole rows pinned.
TEST(SpecGolden, Table1ExactOutputMatchesGoldenFile) {
  exp::SpecFile file = load_shrunk_table1();
  file.spec.engine = EngineMode::kFair;
  expect_matches_golden(run_spec_file(file), "table1.fair.csv.golden");
}

// The exact node engine under capture, jamming and burst jamming, as
// shipped.
TEST(SpecGolden, CaptureJammingOutputMatchesGoldenFile) {
  expect_matches_golden(
      run_spec_file(exp::load_spec_file(std::string(UCR_REPO_ROOT) +
                                        "/specs/capture-jamming.spec")),
      "capture-jamming.jsonl.golden");
}

}  // namespace
}  // namespace ucr
