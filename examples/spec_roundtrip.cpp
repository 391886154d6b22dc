// Spec files as the experiment API: build a description in code, print
// its canonical text (what `ucr_cli --dump-spec` emits and what lives in
// specs/), parse it back, and run it — demonstrating the exact
// round-trip contract parse_spec(to_text(s)) == s and the spec_hash
// provenance stamp the sinks attach to every archived row.
//
//   $ ./spec_roundtrip [--runs=3]
#include <cstdint>
#include <iostream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"

int main(int argc, char** argv) {
  const ucr::CliArgs args(argc, argv, {"runs"});

  // A small mixed sweep, described declaratively.
  ucr::exp::SpecFile file;
  file.spec.with_protocol("One-Fail Adaptive")
      .with_protocol("Exp Back-on/Back-off")
      .with_ks({50, 200})
      .with_arrival(ucr::exp::ArrivalSpec::batch())
      .with_arrival(ucr::exp::ArrivalSpec::poisson(0.2));
  file.spec.runs = args.get_u64("runs", 3);
  file.spec.seed = 7;
  // One-Fail Adaptive livelocks under sustained Poisson arrivals
  // (EXPERIMENTS.md); the cap bounds those runs and round-trips too.
  file.spec.engine_options.max_slots = 200000;
  file.format = ucr::exp::OutputFormat::kJsonl;

  // The canonical text IS the experiment: versionable, diffable, and it
  // parses back to exactly the same value.
  const std::string text = ucr::exp::to_text(file);
  std::cout << "--- canonical spec text ---\n" << text;
  const ucr::exp::SpecFile parsed = ucr::exp::parse_spec(text);
  UCR_CHECK(parsed == file, "round trip must be exact");

  // Both forms hash identically, and every emitted row carries the hash.
  std::cout << "--- spec_hash " << ucr::exp::spec_hash(parsed.spec)
            << " ---\n";
  const ucr::exp::ExperimentPlan plan =
      ucr::exp::compile(parsed.spec, ucr::default_catalogue());
  ucr::exp::JsonlSink sink(std::cout);
  ucr::exp::run(plan, {&sink}, {});
  return 0;
}
