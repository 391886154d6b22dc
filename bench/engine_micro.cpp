// Microbenchmarks (google-benchmark) of the simulation substrate: sampler
// throughput and slots/second of both engines. These justify the engine
// split of docs/ARCHITECTURE.md "The engine matrix" — the aggregate
// engine is what makes the paper's k = 10^7 sweep feasible on a laptop.
// A developer tool for one layer at a time: the end-to-end benchmark of
// the shipped specs, the result cache and the fleet is perfbench
// (perfbench/README.md).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "common/samplers.hpp"
#include "core/exp_backon_backoff.hpp"
#include "core/one_fail_adaptive.hpp"
#include "core/registry.hpp"
#include "protocols/exp_backoff.hpp"
#include "protocols/known_k.hpp"
#include "protocols/log_fails_adaptive.hpp"
#include "sim/fair_engine.hpp"
#include "sim/node_engine.hpp"
#include "sim/runner.hpp"

namespace {

void BM_Xoshiro_NextDouble(benchmark::State& state) {
  ucr::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_double());
  }
}
BENCHMARK(BM_Xoshiro_NextDouble);

void BM_CounterRng_NextDouble(benchmark::State& state) {
  ucr::CounterRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_double());
  }
}
BENCHMARK(BM_CounterRng_NextDouble);

// Bulk draw throughput: the counter-based generator has no loop-carried
// state dependency, so fill_u64 is where it should pull ahead of the
// sequential xoshiro recurrence.
template <typename Rng>
void BM_FillU64(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill_u64(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FillU64<ucr::Xoshiro256>)->Arg(4096);
BENCHMARK(BM_FillU64<ucr::CounterRng>)->Arg(4096);

void BM_SlotCategory(benchmark::State& state) {
  ucr::Xoshiro256 rng(2);
  const std::uint64_t m = state.range(0);
  const double p = 1.0 / static_cast<double>(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ucr::sample_slot_category(rng, m, p));
  }
}
BENCHMARK(BM_SlotCategory)->Arg(100)->Arg(1000000);

void BM_BinomialInversion(benchmark::State& state) {
  ucr::Xoshiro256 rng(3);
  const std::uint64_t n = state.range(0);
  const double p = 1.0 / static_cast<double>(n);  // mean 1
  for (auto _ : state) {
    benchmark::DoNotOptimize(ucr::sample_binomial(rng, n, p));
  }
}
BENCHMARK(BM_BinomialInversion)->Arg(1000)->Arg(1000000);

void BM_BinomialBtrs(benchmark::State& state) {
  ucr::Xoshiro256 rng(4);
  const std::uint64_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ucr::sample_binomial(rng, n, 0.3));
  }
}
BENCHMARK(BM_BinomialBtrs)->Arg(1000)->Arg(1000000);

// One law, many draws, as a dense window draws its slot counts: lambda
// = 16 takes PTRS just above the CDF walk's range, 1000 far above it.
void BM_PoissonLaw(benchmark::State& state) {
  ucr::Xoshiro256 rng(15);
  const ucr::PoissonLaw law(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(law.draw(rng));
  }
}
BENCHMARK(BM_PoissonLaw)->Arg(16)->Arg(1000);

// Whole-run benchmarks: items processed = slots simulated.
void BM_FairSlotEngine_OneFail(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::OneFailAdaptive protocol;
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(5, seed++);
    const auto run = ucr::run_fair_slot_engine(protocol, k, rng, {});
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairSlotEngine_OneFail)->Arg(1000)->Arg(100000);

// Batched mode's thinned step: one uniform per slot, decided by the
// success law's bracket on all but about 2 slots per thousand, so the
// rate counts slots that almost all skip libm.
void BM_FairSlotEngineBatched_OneFail(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  ucr::EngineOptions options;
  options.batched = true;
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::OneFailAdaptive protocol;
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(5, seed++);
    const auto run = ucr::run_fair_slot_engine(protocol, k, rng, options);
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairSlotEngineBatched_OneFail)->Arg(100000);

// Log-Fails Adaptive on the fair slot engine: items processed = slots.
void fair_slot_log_fails(benchmark::State& state, double xi_t,
                         bool batched) {
  const std::uint64_t k = state.range(0);
  ucr::LogFailsParams params;
  params.xi_t = xi_t;
  ucr::EngineOptions options;
  options.batched = batched;
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::LogFailsAdaptive protocol(params, k);
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(14, seed++);
    const auto run = ucr::run_fair_slot_engine(protocol, k, rng, options);
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}

// Exact mode, one category draw per slot. Log-Fails' BT probability is
// fixed and its AT probability moves only every F fails, so most slots
// reuse a slot law the engine already stored, where One-Fail's AT steps
// compute a fresh one.
void BM_FairSlotEngine_LogFails2(benchmark::State& state) {
  fair_slot_log_fails(state, 0.5, false);
}
BENCHMARK(BM_FairSlotEngine_LogFails2)->Arg(1000)->Arg(100000);

// Batched mode's cycle step: one step per delivery or fail-threshold
// crossing. Its AT steps take a walk of one uniform each against the
// law's bracket while the law is certified at 1/16 or more, else one
// geometric draw, and its BT steps one geometric draw (none while m·bt is
// large and the BT law is 0), so the rate counts the slots each step
// skips.
void BM_FairSlotEngineBatched_LogFails2(benchmark::State& state) {
  fair_slot_log_fails(state, 0.5, true);
}
BENCHMARK(BM_FairSlotEngineBatched_LogFails2)->Arg(100000);

void BM_FairSlotEngineBatched_LogFails10(benchmark::State& state) {
  fair_slot_log_fails(state, 0.1, true);
}
BENCHMARK(BM_FairSlotEngineBatched_LogFails10)->Arg(100000);

void BM_FairWindowEngine_Sawtooth(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::ExpBackonBackoff schedule;
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(6, seed++);
    const auto run = ucr::run_fair_window_engine(schedule, k, rng, {});
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairWindowEngine_Sawtooth)->Arg(1000)->Arg(100000);

// Exact vs batched mode on the same workload: batched mode's win is the
// sparse-window regime of monotone back-off, where almost every slot is
// silent and exact mode still pays one binomial draw for it.
void BM_FairWindowEngine_ExpBackoff(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::ExponentialBackoff schedule;
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(8, seed++);
    const auto run = ucr::run_fair_window_engine(schedule, k, rng, {});
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairWindowEngine_ExpBackoff)->Arg(10000)->Arg(100000);

void BM_FairWindowEngineBatched_ExpBackoff(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  ucr::EngineOptions options;
  options.batched = true;
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::ExponentialBackoff schedule;
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(8, seed++);
    const auto run = ucr::run_fair_window_engine(schedule, k, rng, options);
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairWindowEngineBatched_ExpBackoff)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

// Batched mode's Poisson batch: windows of W = k/16 slots, each a batch
// of W Poisson counts near 16 topped up to the exact station count. So
// few stations deliver that the run is cut at 16 windows; items
// processed = slots.
void BM_FairWindowEngineBatched_Dense(benchmark::State& state) {
  class FixedWindow final : public ucr::WindowSchedule {
   public:
    explicit FixedWindow(std::uint64_t w) : w_(w) {}
    std::uint64_t next_window_slots() override { return w_; }

   private:
    std::uint64_t w_;
  };
  const std::uint64_t k = state.range(0);
  ucr::EngineOptions options;
  options.batched = true;
  options.max_slots = k;
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    FixedWindow schedule(k / 16);
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(16, seed++);
    const auto run = ucr::run_fair_window_engine(schedule, k, rng, options);
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairWindowEngineBatched_Dense)->Arg(100000);

void BM_FairSlotEngineBatched_Genie(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  ucr::EngineOptions options;
  options.batched = true;
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::KnownKGenie genie(k);
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(9, seed++);
    const auto run = ucr::run_fair_slot_engine(genie, k, rng, options);
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairSlotEngineBatched_Genie)->Arg(100000)->Arg(1000000);

// A dense dynamic cell: sustained Poisson arrivals at lambda = 0.01 on a
// window protocol, where the node engine's batched-mode skip runs on the
// pre-drawn in-window slot certificates (protocols/window_node.hpp) —
// before the pre-draw, a not-yet-transmitted station capped every stretch
// at one slot and this workload degenerated to per-slot cost. Items
// processed = slots covered, so the reported rate is effective
// slots/second including everything the engine skips. Like the
// BM_NodeEngine_* cases below, it runs through the catalogue factory's
// node view (NodeView::run), the typed station table run_single_node
// uses.
void BM_NodeBatched_DensePoisson(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  ucr::Xoshiro256 arrival_rng = ucr::Xoshiro256::stream(12, 0);
  const auto arrivals = ucr::poisson_arrivals(k, 0.01, arrival_rng);
  const ucr::ProtocolFactory factory = ucr::make_exp_backon_factory();
  ucr::EngineOptions options;
  options.batched = true;
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(13, seed++);
    const auto run = factory.node.run(arrivals, rng, options);
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_NodeBatched_DensePoisson)->Arg(10000)->Arg(100000);

// Exact node engine on a batch of k stations: items processed = slots.
void node_engine_batch(benchmark::State& state,
                       const ucr::ProtocolFactory& factory) {
  const std::uint64_t k = state.range(0);
  const auto arrivals = ucr::batched_arrivals(k);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(7, seed++);
    const auto run = factory.node.run(arrivals, rng, {});
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}

void BM_NodeEngine_OneFail(benchmark::State& state) {
  node_engine_batch(state, ucr::make_one_fail_factory());
}
BENCHMARK(BM_NodeEngine_OneFail)->Arg(100)->Arg(1000);

void BM_NodeEngine_LogFails2(benchmark::State& state) {
  node_engine_batch(state, ucr::make_log_fails_factory());
}
BENCHMARK(BM_NodeEngine_LogFails2)->Arg(100)->Arg(1000);

// The per-cell fold (sim/runner.hpp): 10 runs x 10^5 recorded latencies
// folded into one aggregate row, the shape of a dense dynamic cell. The
// latencies have a geometric body (mean 3 slots) and a 1% tail up
// to 2^11 slots. The runs are moved into aggregate_runs and moved back
// out of its details, so no copy is timed. Items processed = latencies
// pooled.
void BM_AggregateRuns(benchmark::State& state) {
  constexpr std::uint64_t kRuns = 10;
  constexpr std::uint64_t kLatencies = 100000;
  ucr::Xoshiro256 rng(21);
  std::vector<ucr::RunMetrics> runs(kRuns);
  for (ucr::RunMetrics& run : runs) {
    run.completed = true;
    run.k = kLatencies;
    run.slots = 4 * kLatencies;
    run.latencies.reserve(kLatencies);
    for (std::uint64_t i = 0; i < kLatencies; ++i) {
      run.latencies.push_back(
          rng.next_below(100) == 0
              ? rng.next_below(2048)
              : ucr::sample_geometric_failures(rng, 0.25, 2048));
    }
  }
  for (auto _ : state) {
    ucr::AggregateResult result =
        ucr::aggregate_runs("bench", kLatencies, std::move(runs));
    benchmark::DoNotOptimize(result.latency_p99);
    runs = std::move(result.details);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRuns * kLatencies));
}
BENCHMARK(BM_AggregateRuns);

}  // namespace

BENCHMARK_MAIN();
