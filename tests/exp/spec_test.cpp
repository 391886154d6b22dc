#include "exp/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "protocols/known_k.hpp"
#include "sim/observer.hpp"

namespace ucr::exp {
namespace {

TEST(ArrivalSpec, LabelsNameTheWorkload) {
  EXPECT_EQ(ArrivalSpec::batch().label(), "batch");
  EXPECT_EQ(ArrivalSpec::poisson(0.1).label(), "poisson(0.100000)");
  EXPECT_EQ(ArrivalSpec::burst(4, 64).label(), "burst(4,64)");
}

TEST(ArrivalSpec, BatchMaterializesAllAtSlotZero) {
  const ArrivalPattern pattern = ArrivalSpec::batch().materialize(5, 1, 0);
  ASSERT_EQ(pattern.size(), 5u);
  for (const auto slot : pattern) EXPECT_EQ(slot, 0u);
}

TEST(ArrivalSpec, BurstMaterializesExactlyKMessages) {
  // 10 messages over 4 bursts: sizes 3,3,2,2 — the remainder spreads over
  // the leading bursts so every k is representable.
  const ArrivalPattern pattern = ArrivalSpec::burst(4, 7).materialize(10, 1, 0);
  ASSERT_EQ(pattern.size(), 10u);
  EXPECT_TRUE(std::is_sorted(pattern.begin(), pattern.end()));
  EXPECT_EQ(pattern.front(), 0u);
  EXPECT_EQ(pattern.back(), 21u);  // 4th burst at slot 3 * gap
  EXPECT_EQ(std::count(pattern.begin(), pattern.end(), 0u), 3);
  EXPECT_EQ(std::count(pattern.begin(), pattern.end(), 21u), 2);
}

TEST(ArrivalSpec, PoissonIsDeterministicPerStream) {
  const ArrivalSpec spec = ArrivalSpec::poisson(0.2);
  const ArrivalPattern a = spec.materialize(50, 7, 123);
  const ArrivalPattern b = spec.materialize(50, 7, 123);
  const ArrivalPattern c = spec.materialize(50, 7, 124);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different stream => different draw
  ASSERT_EQ(a.size(), 50u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(ArrivalSpec, ParsesTheLabelSyntax) {
  EXPECT_EQ(ArrivalSpec::parse("batch"), ArrivalSpec::batch());
  EXPECT_EQ(ArrivalSpec::parse("poisson(0.25)"), ArrivalSpec::poisson(0.25));
  EXPECT_EQ(ArrivalSpec::parse("burst(4,64)"), ArrivalSpec::burst(4, 64));
  EXPECT_EQ(ArrivalSpec::parse(" poisson( 0.5 ) "),
            ArrivalSpec::poisson(0.5));
  EXPECT_EQ(ArrivalSpec::parse("burst( 2 , 8 )"), ArrivalSpec::burst(2, 8));
}

TEST(ArrivalSpec, ParseRejectsMalformedText) {
  EXPECT_THROW(ArrivalSpec::parse(""), ContractViolation);
  EXPECT_THROW(ArrivalSpec::parse("poisson"), ContractViolation);
  EXPECT_THROW(ArrivalSpec::parse("poisson()"), ContractViolation);
  EXPECT_THROW(ArrivalSpec::parse("poisson(0)"), ContractViolation);
  EXPECT_THROW(ArrivalSpec::parse("poisson(x)"), ContractViolation);
  EXPECT_THROW(ArrivalSpec::parse("burst(4)"), ContractViolation);
  EXPECT_THROW(ArrivalSpec::parse("burst(0,8)"), ContractViolation);
  EXPECT_THROW(ArrivalSpec::parse("burst(4,64"), ContractViolation);
  // Rates and scales are finite numbers in full; poisson(inf) is not a
  // batch.
  for (const char* bad : {"poisson(inf)", "poisson(nan)", "mmpp(inf,0.1,8)",
                          "mmpp(0.5,inf,8)", "pareto(1.5,inf)", "pareto(inf,1)",
                          "poisson(0.1x)", "burst(+4,64)"}) {
    EXPECT_THROW(ArrivalSpec::parse(bad), ContractViolation) << bad;
  }
  try {
    ArrivalSpec::parse("possion(0.1)");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'poisson'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExperimentSpec, EqualityComparesValuesAndFactoriesByName) {
  ExperimentSpec a;
  a.with_protocol("One-Fail Adaptive").with_ks({10, 20});
  a.with_arrival(ArrivalSpec::poisson(0.1));
  ExperimentSpec b = a;
  EXPECT_EQ(a, b);

  b.seed = a.seed + 1;
  EXPECT_FALSE(a == b);
  b = a;
  b.arrivals[0].lambda = 0.2;
  EXPECT_FALSE(a == b);
  b = a;
  b.engine_options.record_latencies = true;
  EXPECT_FALSE(a == b);

  // Factories compare by name: same name, different callable => equal.
  ExperimentSpec f1;
  ExperimentSpec f2;
  f1.with_factory(paper_protocols()[2]).with_ks({10});
  f2.with_factory(paper_protocols()[2]).with_ks({10});
  EXPECT_EQ(f1, f2);
  f2.protocols[0].name = "renamed";
  EXPECT_FALSE(f1 == f2);
  // A name in protocol_names is not a factory of the same name.
  ExperimentSpec by_name;
  by_name.with_protocol(paper_protocols()[2].name).with_ks({10});
  EXPECT_FALSE(f1 == by_name);
}

TEST(ArrivalSpec, RejectsBadParameters) {
  EXPECT_THROW(ArrivalSpec::poisson(0.0).validate(), ContractViolation);
  EXPECT_THROW(ArrivalSpec::poisson(-1.0).validate(), ContractViolation);
  EXPECT_THROW(ArrivalSpec::burst(0, 8).validate(), ContractViolation);
}

TEST(ShardSpec, ParsesIndexSlashCount) {
  const ShardSpec shard = ShardSpec::parse("2/5");
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.count, 5u);
  EXPECT_EQ(shard.label(), "2/5");
  EXPECT_FALSE(shard.is_whole());
  EXPECT_TRUE(ShardSpec::parse("0/1").is_whole());
}

TEST(ShardSpec, RejectsMalformedText) {
  EXPECT_THROW(ShardSpec::parse(""), ContractViolation);
  EXPECT_THROW(ShardSpec::parse("3"), ContractViolation);
  EXPECT_THROW(ShardSpec::parse("a/b"), ContractViolation);
  EXPECT_THROW(ShardSpec::parse("1/"), ContractViolation);
  EXPECT_THROW(ShardSpec::parse("/4"), ContractViolation);
  EXPECT_THROW(ShardSpec::parse("-1/4"), ContractViolation);
  EXPECT_THROW(ShardSpec::parse("4/4"), ContractViolation);  // index range
  EXPECT_THROW(ShardSpec::parse("0/0"), ContractViolation);  // empty count
}

TEST(Compile, FlattensProtocolMajorGrid) {
  ExperimentSpec spec;
  spec.runs = 2;
  spec.with_ks({10, 20});
  spec.with_arrival(ArrivalSpec::batch());
  spec.with_arrival(ArrivalSpec::burst(2, 8));
  for (const auto& p : paper_protocols()) spec.with_factory(p);

  const ExperimentPlan plan = compile(spec);
  ASSERT_EQ(plan.total_cells, 5u * 2u * 2u);
  ASSERT_EQ(plan.points.size(), plan.total_cells);
  ASSERT_EQ(plan.cells.size(), plan.total_cells);
  // Grid order: protocol-major, then k, then arrival.
  EXPECT_EQ(plan.cells[0].protocol, "Log-Fails Adaptive (2)");
  EXPECT_EQ(plan.cells[0].k, 10u);
  EXPECT_EQ(plan.cells[0].arrival.label(), "batch");
  EXPECT_FALSE(plan.cells[0].node_engine());
  EXPECT_EQ(plan.cells[0].engine, EngineMode::kFair);
  EXPECT_EQ(plan.cells[1].arrival.label(), "burst(2,8)");
  EXPECT_TRUE(plan.cells[1].node_engine());  // non-batch => per-node engine
  EXPECT_EQ(plan.cells[2].k, 20u);
  EXPECT_EQ(plan.cells[4].protocol, "Log-Fails Adaptive (10)");
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    EXPECT_EQ(plan.cells[i].index, i);
  }
}

TEST(Compile, ResolvesNamesThroughCatalogue) {
  ExperimentSpec spec;
  spec.with_protocol("one-fail adaptive");  // case-insensitive fallback
  spec.with_ks({10});
  const ExperimentPlan plan = compile(spec, all_protocols());
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].protocol, "One-Fail Adaptive");
}

TEST(Compile, UnknownProtocolGetsDidYouMean) {
  ExperimentSpec spec;
  spec.with_protocol("One-Fail Adaptve");
  spec.with_ks({10});
  try {
    compile(spec, all_protocols());
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("One-Fail Adaptive"),
              std::string::npos)
        << e.what();
  }
}

TEST(Compile, PaperKSweepFromKMax) {
  ExperimentSpec spec;
  spec.with_protocol("One-Fail Adaptive").with_paper_ks(1000);
  const ExperimentPlan plan = compile(spec, all_protocols());
  ASSERT_EQ(plan.cells.size(), 3u);
  EXPECT_EQ(plan.cells[0].k, 10u);
  EXPECT_EQ(plan.cells[1].k, 100u);
  EXPECT_EQ(plan.cells[2].k, 1000u);
}

TEST(Compile, RejectsMalformedSpecs) {
  const auto catalogue = all_protocols();
  {
    ExperimentSpec spec;  // no protocols
    spec.with_ks({10});
    EXPECT_THROW(compile(spec, catalogue), ContractViolation);
  }
  {
    ExperimentSpec spec;  // no k grid and no usable k_max
    spec.with_protocol("One-Fail Adaptive");
    EXPECT_THROW(compile(spec, catalogue), ContractViolation);
  }
  {
    ExperimentSpec spec;  // k == 0 cell
    spec.with_protocol("One-Fail Adaptive").with_ks({10, 0});
    EXPECT_THROW(compile(spec, catalogue), ContractViolation);
  }
  {
    ExperimentSpec spec;  // runs == 0
    spec.with_protocol("One-Fail Adaptive").with_ks({10});
    spec.runs = 0;
    EXPECT_THROW(compile(spec, catalogue), ContractViolation);
  }
  {
    ExperimentSpec spec;  // invalid shard
    spec.with_protocol("One-Fail Adaptive").with_ks({10});
    spec.shard.index = 3;
    spec.shard.count = 3;
    EXPECT_THROW(compile(spec, catalogue), ContractViolation);
  }
}

TEST(Compile, RejectsObserverOnParallelGrids) {
  DownsampledSeries series(1);
  ExperimentSpec spec;
  spec.with_protocol("One-Fail Adaptive").with_ks({10, 20});
  spec.runs = 1;
  spec.engine_options.observer = &series;
  EXPECT_THROW(compile(spec, all_protocols()), ContractViolation);

  spec.with_ks({10});
  spec.runs = 2;
  EXPECT_THROW(compile(spec, all_protocols()), ContractViolation);

  spec.runs = 1;  // single cell, single run: allowed
  EXPECT_NO_THROW(compile(spec, all_protocols()));
}

TEST(Compile, ShardBlocksPartitionTheGrid) {
  // 7 cells over 3 shards: contiguous blocks [0,2) [2,4) [4,7).
  ExperimentSpec spec;
  spec.with_protocol("One-Fail Adaptive");
  spec.with_ks({10, 20, 30, 40, 50, 60, 70});

  std::vector<std::size_t> seen;
  for (std::uint64_t shard = 0; shard < 3; ++shard) {
    spec.shard.index = shard;
    spec.shard.count = 3;
    const ExperimentPlan plan = compile(spec, all_protocols());
    EXPECT_EQ(plan.total_cells, 7u);
    for (const CellInfo& cell : plan.cells) seen.push_back(cell.index);
  }
  ASSERT_EQ(seen.size(), 7u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i);  // concatenated shards == the whole grid, in order
  }
}

TEST(Compile, BatchedModeIsRecordedOnCells) {
  ExperimentSpec spec;
  spec.with_protocol("One-Fail Adaptive").with_ks({10});
  spec.engine = EngineMode::kBatched;
  const ExperimentPlan plan = compile(spec, all_protocols());
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].engine, EngineMode::kBatched);
  EXPECT_FALSE(plan.cells[0].node_engine());
  EXPECT_TRUE(plan.cells[0].batched_engine());
  EXPECT_TRUE(plan.points[0].options.batched);
}

TEST(Compile, BatchedModeAcceleratesNonBatchCellsViaNodeBatched) {
  // One spec-level switch accelerates the whole grid: under kBatched,
  // batch cells take the batched fair engine and non-batch cells the
  // batched node engine (they used to be rejected outright).
  ExperimentSpec spec;
  spec.with_protocol("One-Fail Adaptive").with_ks({10});
  spec.engine = EngineMode::kBatched;
  spec.with_arrival(ArrivalSpec::batch());
  spec.with_arrival(ArrivalSpec::poisson(0.1));
  const ExperimentPlan plan = compile(spec, all_protocols());
  ASSERT_EQ(plan.cells.size(), 2u);
  EXPECT_EQ(plan.cells[0].engine, EngineMode::kBatched);
  EXPECT_EQ(plan.cells[1].engine, EngineMode::kNodeBatched);
  EXPECT_TRUE(plan.cells[1].node_engine());
  EXPECT_TRUE(plan.cells[1].batched_engine());
  EXPECT_TRUE(plan.points[0].options.batched);
  EXPECT_TRUE(plan.points[1].options.batched);
  EXPECT_STREQ(engine_mode_name(plan.cells[1].engine), "node_batched");
}

TEST(Compile, NodeBatchedModeForcesEveryCellPerStation) {
  // kNodeBatched sends even batch-arrival cells through the batched node
  // engine (the ground-truth engine's fast path on the paper's workload).
  ExperimentSpec spec;
  spec.with_protocol("One-Fail Adaptive").with_ks({10});
  spec.engine = EngineMode::kNodeBatched;
  spec.with_arrival(ArrivalSpec::batch());
  const ExperimentPlan plan = compile(spec, all_protocols());
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].engine, EngineMode::kNodeBatched);
  EXPECT_TRUE(plan.cells[0].node_engine());
  EXPECT_TRUE(plan.points[0].options.batched);
  ASSERT_FALSE(plan.points[0].arrivals.empty());  // a per-node work item

  // Observers stay incompatible with every batched mode.
  DownsampledSeries series(1);
  spec.runs = 1;
  spec.engine_options.observer = &series;
  EXPECT_THROW(compile(spec, all_protocols()), ContractViolation);
}

TEST(Compile, PoissonWorkloadsArePairedAcrossProtocols) {
  // Protocols of one sweep must be compared on identical workload draws:
  // the arrival substream is keyed by the (k, arrival) pair and the run,
  // never by the protocol axis.
  ExperimentSpec spec;
  spec.runs = 3;
  spec.with_ks({20, 40});
  spec.with_arrival(ArrivalSpec::poisson(0.3));
  spec.with_factory(paper_protocols()[2]);
  spec.with_factory(paper_protocols()[3]);
  const ExperimentPlan plan = compile(spec);
  ASSERT_EQ(plan.points.size(), 4u);  // 2 protocols x 2 ks
  for (std::uint64_t run = 0; run < spec.runs; ++run) {
    // Same k, different protocol: identical pattern.
    EXPECT_EQ(plan.points[0].arrivals_per_run(run),
              plan.points[2].arrivals_per_run(run));
    EXPECT_EQ(plan.points[1].arrivals_per_run(run),
              plan.points[3].arrivals_per_run(run));
  }
  // Different k: different substream block.
  EXPECT_NE(plan.points[0].arrivals_per_run(0),
            plan.points[1].arrivals_per_run(0));
}

TEST(Compile, MissingEngineViewFailsUpFront) {
  // A factory with only a fair view cannot serve node cells.
  ProtocolFactory fair_only = make_known_k_factory();
  fair_only.node = nullptr;
  ExperimentSpec spec;
  spec.with_factory(fair_only).with_ks({10});
  spec.engine = EngineMode::kNode;
  EXPECT_THROW(compile(spec), ContractViolation);

  spec.engine = EngineMode::kFair;
  EXPECT_NO_THROW(compile(spec));
}

}  // namespace
}  // namespace ucr::exp
