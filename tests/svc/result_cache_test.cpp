// ResultCache — the provenance-keyed store: exact round-trips, atomic
// publication, and loud rejection of anything stale, corrupt or
// misaddressed (schema drift must fail the consumer, never silently
// recompute).
#include "svc/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "exp/cell_task.hpp"
#include "exp/plan.hpp"
#include "exp/spec_io.hpp"
#include "sim/model_version.hpp"

namespace ucr::svc {
namespace {

namespace fs = std::filesystem;

// Writes `text` to `path`, creating its directory.
void write_file(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << text;
}

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per case: under `ctest -j` every case is its own
    // process, and a shared directory would let one delete another's
    // records.
    root_ = fs::path(::testing::TempDir()) /
            (std::string("ucr_result_cache_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    exp::ExperimentSpec spec;
    spec.runs = 2;
    spec.seed = 11;
    spec.with_ks({10, 30});
    spec.with_factory(paper_protocols().front());
    plan_ = exp::compile(spec);
    tasks_ = exp::enumerate_cell_tasks(plan_);
  }

  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  exp::ExperimentPlan plan_;
  std::vector<exp::CellTask> tasks_;
};

TEST_F(ResultCacheTest, StoreThenLoadRoundTripsEveryField) {
  ResultCache cache(root_.string());
  const AggregateResult computed = tasks_[0].execute().aggregate;
  cache.store(tasks_[0], computed);

  const auto loaded = cache.load(plan_.spec_hash, tasks_[0].cell.index);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->protocol, computed.protocol);
  EXPECT_EQ(loaded->k, computed.k);
  EXPECT_EQ(loaded->runs, computed.runs);
  EXPECT_EQ(loaded->incomplete_runs, computed.incomplete_runs);
  // Bitwise double equality — shortest-round-trip formatting is exact,
  // which is what makes cache replays byte-identical downstream.
  EXPECT_EQ(loaded->makespan.count, computed.makespan.count);
  EXPECT_EQ(loaded->makespan.mean, computed.makespan.mean);
  EXPECT_EQ(loaded->makespan.stddev, computed.makespan.stddev);
  EXPECT_EQ(loaded->makespan.min, computed.makespan.min);
  EXPECT_EQ(loaded->makespan.p25, computed.makespan.p25);
  EXPECT_EQ(loaded->makespan.median, computed.makespan.median);
  EXPECT_EQ(loaded->makespan.p75, computed.makespan.p75);
  EXPECT_EQ(loaded->makespan.p95, computed.makespan.p95);
  EXPECT_EQ(loaded->makespan.max, computed.makespan.max);
  EXPECT_EQ(loaded->makespan.ci95_halfwidth, computed.makespan.ci95_halfwidth);
  EXPECT_EQ(loaded->ratio.mean, computed.ratio.mean);
  EXPECT_EQ(loaded->ratio.ci95_halfwidth, computed.ratio.ci95_halfwidth);
  EXPECT_EQ(loaded->latency_p50, computed.latency_p50);
  EXPECT_EQ(loaded->latency_p95, computed.latency_p95);
  EXPECT_EQ(loaded->latency_p99, computed.latency_p99);
  EXPECT_EQ(loaded->energy_mean, computed.energy_mean);
  EXPECT_EQ(loaded->energy_max, computed.energy_max);
  // Per-run details are intentionally not persisted.
  EXPECT_TRUE(loaded->details.empty());
}

TEST_F(ResultCacheTest, MissingRecordIsANullopt) {
  ResultCache cache(root_.string());
  EXPECT_FALSE(cache.load(plan_.spec_hash, 0).has_value());
  EXPECT_FALSE(cache.load("0000000000000000", 3).has_value());
  EXPECT_EQ(cache.cell_count(plan_.spec_hash), 0u);
}

TEST_F(ResultCacheTest, CellCountSeesOnlyPublishedRecords) {
  ResultCache cache(root_.string());
  cache.store(tasks_[0], tasks_[0].execute().aggregate);
  cache.store(tasks_[1], tasks_[1].execute().aggregate);
  EXPECT_EQ(cache.cell_count(plan_.spec_hash), 2u);
  // No temp droppings: publication is rename-only.
  for (const auto& entry :
       fs::recursive_directory_iterator(root_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
}

TEST_F(ResultCacheTest, StaleSchemaVersionIsRejectedLoudly) {
  ResultCache cache(root_.string());
  const AggregateResult computed = tasks_[0].execute().aggregate;
  std::string record = ResultCache::encode_record(tasks_[0], computed);
  const std::string current =
      "\"cache_version\":" + std::to_string(kCacheSchemaVersion);
  const std::size_t at = record.find(current);
  ASSERT_NE(at, std::string::npos);
  record.replace(at, current.size(), "\"cache_version\":999");
  write_file(cache.record_path(plan_.spec_hash, tasks_[0].cell.index),
             record);
  try {
    cache.load(plan_.spec_hash, tasks_[0].cell.index);
    FAIL() << "stale record must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("stale cache record"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ResultCacheTest, CorruptRecordIsRejectedLoudly) {
  ResultCache cache(root_.string());
  write_file(cache.record_path(plan_.spec_hash, 0),
             "{\"cache_version\":1,\"spec_ha");  // torn write
  try {
    cache.load(plan_.spec_hash, 0);
    FAIL() << "corrupt record must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt cache record"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ResultCacheTest, MisplacedRecordIsRejectedLoudly) {
  // A record stored under a different address (wrong cell, wrong hash) is
  // archive corruption, not a hit.
  ResultCache cache(root_.string());
  const AggregateResult computed = tasks_[0].execute().aggregate;
  const std::string record =
      ResultCache::encode_record(tasks_[0], computed);
  // cell 0's record at cell 1's address
  write_file(cache.record_path(plan_.spec_hash, tasks_[1].cell.index),
             record);
  EXPECT_THROW(cache.load(plan_.spec_hash, tasks_[1].cell.index),
               ContractViolation);
}

TEST_F(ResultCacheTest, RecordOfAnotherModelVersionIsAMiss) {
  // Records filled under another model law live at another address: the
  // unversioned layout of model 1, <root>/<spec_hash>/cell-<i>.json, whose
  // records carry no model_version, and any other m<version> directory.
  ResultCache cache(root_.string());
  const AggregateResult computed = tasks_[0].execute().aggregate;
  std::string record = ResultCache::encode_record(tasks_[0], computed);
  const std::string field =
      ",\"model_version\":" + std::to_string(kModelVersion);
  const std::size_t at = record.find(field);
  ASSERT_NE(at, std::string::npos);
  record.erase(at, field.size());
  const std::string cell = "cell-" + std::to_string(tasks_[0].cell.index);
  write_file(root_ / plan_.spec_hash / (cell + ".json"), record);
  write_file(root_ / ("m" + std::to_string(kModelVersion + 1)) /
                 plan_.spec_hash / (cell + ".json"),
             record);
  EXPECT_FALSE(cache.load(plan_.spec_hash, tasks_[0].cell.index));
  EXPECT_EQ(cache.cell_count(plan_.spec_hash), 0u);
}

TEST_F(ResultCacheTest, ModelVersionDisagreeingWithItsAddressIsRejected) {
  ResultCache cache(root_.string());
  const AggregateResult computed = tasks_[0].execute().aggregate;
  std::string record = ResultCache::encode_record(tasks_[0], computed);
  const std::string field =
      "\"model_version\":" + std::to_string(kModelVersion);
  const std::size_t at = record.find(field);
  ASSERT_NE(at, std::string::npos);
  record.replace(at, field.size(), "\"model_version\":1");
  write_file(cache.record_path(plan_.spec_hash, tasks_[0].cell.index),
             record);
  EXPECT_THROW(cache.load(plan_.spec_hash, tasks_[0].cell.index),
               ContractViolation);
}

TEST_F(ResultCacheTest, EncodeDecodeAreExactInverses) {
  const AggregateResult computed = tasks_[1].execute().aggregate;
  const std::string record =
      ResultCache::encode_record(tasks_[1], computed);
  const AggregateResult decoded = ResultCache::decode_record(
      record, plan_.spec_hash, tasks_[1].cell.index, "test");
  EXPECT_EQ(ResultCache::encode_record(tasks_[1], decoded), record);
}

}  // namespace
}  // namespace ucr::svc
