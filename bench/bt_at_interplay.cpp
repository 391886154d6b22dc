// Ablation of One-Fail Adaptive's two-regime design (DESIGN.md §5.0): the
// AT algorithm is built to drain the batch while contention is high, the
// BT algorithm to finish the O(log)-sized tail. This harness measures, per
// k, which step type actually delivers each message and when the hand-off
// happens — making the Lemma 5 / Lemma 6 division of labour visible in
// simulation.
//
// The AT/BT attribution needs no engine hook: communication steps are
// numbered from 1 and step t is a BT step iff t is even (core/
// one_fail_adaptive.hpp), so the recorded delivery slot s (0-based) was a
// BT delivery iff s is odd, and the m-th-from-last delivery index places
// it in the tail. The study is one ExperimentSpec with record_deliveries,
// consumed by a digesting ResultSink: each cell's delivery slots are
// folded into four counters the moment the cell completes and the heavy
// details are dropped, so memory stays bounded by one cell even at
// paper-scale k (a MemorySink would hold every delivery slot of the
// whole grid).
#include <iostream>

#include "harness_common.hpp"
#include "common/table.hpp"
#include "core/one_fail_adaptive.hpp"

namespace {

struct CellDigest {
  std::uint64_t k = 0;
  std::uint64_t runs = 0;
  std::uint64_t at_total = 0;
  std::uint64_t bt_total = 0;
  std::uint64_t bt_tail = 0;
  std::uint64_t tail_total = 0;
  double mean_ratio = 0.0;
};

/// Folds each cell's per-run delivery slots into AT/BT counters on
/// emission (grid order) and discards the details.
class InterplaySink final : public ucr::exp::ResultSink {
 public:
  void emit(const ucr::exp::CellInfo&,
            const ucr::AggregateResult& result) override {
    CellDigest digest;
    digest.k = result.k;
    digest.runs = result.runs;
    digest.mean_ratio = result.ratio.mean;
    for (const auto& detail : result.details) {
      for (std::size_t idx = 0; idx < detail.delivery_slots.size(); ++idx) {
        // Step t = slot + 1; BT iff t even. Messages pending before this
        // delivery: k - idx.
        const bool bt = (detail.delivery_slots[idx] + 1) % 2 == 0;
        (bt ? digest.bt_total : digest.at_total) += 1;
        if (result.k - idx <= 32) {
          ++digest.tail_total;
          if (bt) ++digest.bt_tail;
        }
      }
    }
    digests_.push_back(digest);
  }

  const std::vector<CellDigest>& digests() const { return digests_; }

 private:
  std::vector<CellDigest> digests_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = ucr::bench::parse_harness_config(argc, argv, 100000);

  std::cout << "=== One-Fail Adaptive: AT vs BT division of labour ("
            << cfg.runs << " runs) ===\n\n";

  std::vector<std::uint64_t> ks;
  for (std::uint64_t k = 100; k <= cfg.k_max; k *= 10) ks.push_back(k);

  auto spec = cfg.spec().with_ks(ks);
  spec.engine = ucr::exp::EngineMode::kFair;  // exact slots for parity
  spec.engine_options.record_deliveries = true;
  spec.with_factory(ucr::make_one_fail_factory());

  InterplaySink sink;
  ucr::exp::run(ucr::exp::compile(spec), {&sink}, {cfg.threads});

  ucr::Table table({"k", "deliv. by AT", "deliv. by BT", "BT share",
                    "BT share of last 32", "mean ratio"});
  for (const CellDigest& digest : sink.digests()) {
    const double runs_d = static_cast<double>(digest.runs);
    table.add_row(
        {std::to_string(digest.k),
         ucr::format_double(static_cast<double>(digest.at_total) / runs_d,
                            1),
         ucr::format_double(static_cast<double>(digest.bt_total) / runs_d,
                            1),
         ucr::format_double(
             static_cast<double>(digest.bt_total) /
                 static_cast<double>(digest.at_total + digest.bt_total),
             3),
         ucr::format_double(static_cast<double>(digest.bt_tail) /
                                static_cast<double>(digest.tail_total),
                            3),
         ucr::format_double(digest.mean_ratio, 2)});
  }
  table.print(std::cout);
  std::cout << "\nAT does the bulk of the work; BT's share concentrates in "
               "the O(log k) tail, exactly the Lemma 5 -> Lemma 6 hand-off."
            << "\n";
  return 0;
}
