// The textual spec contract: exact round trip (parse_spec(to_text(s)) ==
// s) for hand-built, randomized and every shipped specs/*.spec
// description; loud, line-numbered, did-you-mean errors on malformed
// input; and the shard/threads/format-invariant spec_hash the sinks stamp
// on archived rows.
#include "exp/spec_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"

namespace ucr::exp {
namespace {

std::string what_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return {};
}

TEST(SpecIo, DefaultSpecRoundTripsThroughCanonicalText) {
  const SpecFile file;
  const SpecFile back = parse_spec(to_text(file));
  EXPECT_EQ(back, file);
  // The canonical text is a fixed point of parse -> to_text.
  EXPECT_EQ(to_text(back), to_text(file));
}

TEST(SpecIo, FullyPopulatedSpecRoundTripsExactly) {
  SpecFile file;
  file.spec.with_protocol("One-Fail Adaptive")
      .with_protocol("Exp Back-on/Back-off")
      .with_ks({10, 500, 123456})
      .with_arrival(ArrivalSpec::batch())
      .with_arrival(ArrivalSpec::poisson(0.1))
      .with_arrival(ArrivalSpec::burst(7, 129))
      .with_arrival(ArrivalSpec::schedule({0, 0, 4, 4, 90}))
      .with_arrival(ArrivalSpec::mmpp(0.75, 0.01, 64))
      .with_arrival(ArrivalSpec::pareto(1.25, 2.5))
      .with_channel(ChannelModel::clean())
      .with_channel(ChannelModel::capture(0.35))
      .with_channel(ChannelModel::jamming(0.05))
      .with_channel(ChannelModel::jam_burst(24, 6));
  file.spec.runs = 42;
  file.spec.seed = 99;
  file.spec.engine = EngineMode::kNodeBatched;
  file.spec.engine_options.max_slots = 12345;
  file.spec.engine_options.record_deliveries = true;
  file.spec.engine_options.record_latencies = true;
  file.spec.engine_options.collision_detection = true;
  file.spec.shard = ShardSpec::parse("3/7");
  file.threads = 12;
  file.format = OutputFormat::kJsonl;

  const SpecFile back = parse_spec(to_text(file));
  EXPECT_EQ(back, file);
}

TEST(SpecIo, AwkwardPoissonRatesRoundTripBitForBit) {
  // Rates the 6-decimal display label would destroy: the serialization
  // uses shortest-round-trip notation instead.
  for (const double lambda : {1e-7, 0.1, 1.0 / 3.0, 0.2500000000000001}) {
    SpecFile file;
    file.spec.with_protocol("x").with_ks({10}).with_arrival(
        ArrivalSpec::poisson(lambda));
    const SpecFile back = parse_spec(to_text(file));
    ASSERT_EQ(back.spec.arrivals.size(), 1u);
    EXPECT_EQ(back.spec.arrivals[0].lambda, lambda);
    EXPECT_EQ(back, file);
  }
}

/// One random point in the whole expressible spec space — shared by the
/// plain round-trip fuzz and the overlay fuzz.
SpecFile random_spec_file(Xoshiro256& rng) {
  const auto u64 = [&rng](std::uint64_t bound) {
    return rng.next_u64() % bound;
  };
  {
    SpecFile file;
    for (std::uint64_t i = 0, n = u64(4); i < n; ++i) {
      file.spec.with_protocol("protocol " + std::to_string(u64(100)));
    }
    if (u64(2) == 0) {
      for (std::uint64_t i = 0, n = 1 + u64(5); i < n; ++i) {
        file.spec.ks.push_back(1 + u64(1000000));
      }
    } else {
      file.spec.k_max = 10 + u64(10000000);
    }
    for (std::uint64_t i = 0, n = u64(4); i < n; ++i) {
      switch (u64(6)) {
        case 0:
          file.spec.with_arrival(ArrivalSpec::batch());
          break;
        case 1:
          file.spec.with_arrival(ArrivalSpec::poisson(rng.next_double()));
          break;
        case 2:
          file.spec.with_arrival(
              ArrivalSpec::burst(1 + u64(16), u64(1000)));
          break;
        case 3: {
          std::vector<std::uint64_t> slots;
          std::uint64_t slot = 0;
          for (std::uint64_t s = 0, m = 1 + u64(6); s < m; ++s) {
            slot += u64(20);  // non-decreasing by construction
            slots.push_back(slot);
          }
          file.spec.with_arrival(ArrivalSpec::schedule(std::move(slots)));
          break;
        }
        case 4:
          file.spec.with_arrival(ArrivalSpec::mmpp(
              rng.next_double() + 1e-9, rng.next_double(), 1 + u64(500)));
          break;
        default:
          file.spec.with_arrival(ArrivalSpec::pareto(
              rng.next_double() + 1e-9, rng.next_double() + 1e-9));
      }
    }
    for (std::uint64_t i = 0, n = u64(3); i < n; ++i) {
      switch (u64(4)) {
        case 0:
          file.spec.with_channel(ChannelModel::clean());
          break;
        case 1:
          file.spec.with_channel(ChannelModel::capture(rng.next_double()));
          break;
        case 2:
          file.spec.with_channel(ChannelModel::jamming(rng.next_double()));
          break;
        default: {
          const std::uint64_t period = 1 + u64(64);
          file.spec.with_channel(
              ChannelModel::jam_burst(period, u64(period + 1)));
        }
      }
    }
    file.spec.runs = 1 + u64(100);
    file.spec.seed = rng.next_u64();
    file.spec.engine = static_cast<EngineMode>(u64(4));
    file.spec.engine_options.max_slots = u64(2) ? u64(1000000) : 0;
    file.spec.engine_options.record_deliveries = u64(2) != 0;
    file.spec.engine_options.record_latencies = u64(2) != 0;
    file.spec.engine_options.collision_detection = u64(2) != 0;
    file.spec.shard.count = 1 + u64(8);
    file.spec.shard.index = u64(file.spec.shard.count);
    file.threads = static_cast<unsigned>(u64(17));
    file.format = static_cast<OutputFormat>(u64(3));
    return file;
  }
}

TEST(SpecIo, RandomizedSpecsRoundTripExactly) {
  // Deterministic fuzz over the whole expressible space.
  Xoshiro256 rng(20260728);
  for (int trial = 0; trial < 200; ++trial) {
    const SpecFile file = random_spec_file(rng);
    const std::string text = to_text(file);
    const SpecFile back = parse_spec(text);
    ASSERT_EQ(back, file) << "trial " << trial << "\n" << text;
    EXPECT_EQ(to_text(back), text) << "trial " << trial;
  }
}

TEST(SpecIo, AcceptsCommentsBlankLinesAndLooseWhitespace) {
  const SpecFile file = parse_spec(
      "# a whole-line comment\n"
      "\n"
      "  spec_version=1   # trailing comment\n"
      "protocols   =  One-Fail Adaptive ,   Exp Back-on/Back-off\n"
      "\tks = 10 ,20\n"
      "arrival =  poisson( 0.25 )\n"
      "runs=3");
  ASSERT_EQ(file.spec.protocol_names.size(), 2u);
  EXPECT_EQ(file.spec.protocol_names[0], "One-Fail Adaptive");
  EXPECT_EQ(file.spec.protocol_names[1], "Exp Back-on/Back-off");
  EXPECT_EQ(file.spec.ks, (std::vector<std::uint64_t>{10, 20}));
  ASSERT_EQ(file.spec.arrivals.size(), 1u);
  EXPECT_EQ(file.spec.arrivals[0].lambda, 0.25);
  EXPECT_EQ(file.spec.runs, 3u);
  // A flag's value is taken whole: '#' starts a comment only in a file.
  SpecFile flags;
  apply_spec_lines(flags, {{"protocols", "A#1 , B", "--protocols"}});
  EXPECT_EQ(flags.spec.protocol_names,
            (std::vector<std::string>{"A#1", "B"}));
}

TEST(SpecIo, UnknownKeyGetsDidYouMeanWithLineNumber) {
  const std::string what = what_of(
      [] { (void)parse_spec("spec_version = 1\nkmaks = 100\n"); });
  EXPECT_NE(what.find("spec line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("did you mean 'kmax'"), std::string::npos) << what;
}

TEST(SpecIo, MisspelledEnumValuesGetDidYouMean) {
  const std::string engine = what_of(
      [] { (void)parse_spec("spec_version = 1\nengine = node_bathced\n"); });
  EXPECT_NE(engine.find("did you mean 'node_batched'"), std::string::npos)
      << engine;
  const std::string format = what_of(
      [] { (void)parse_spec("spec_version = 1\nformat = jsnol\n"); });
  EXPECT_NE(format.find("did you mean 'jsonl'"), std::string::npos) << format;
  const std::string arrival = what_of(
      [] { (void)parse_spec("spec_version = 1\narrival = possion(0.1)\n"); });
  EXPECT_NE(arrival.find("did you mean 'poisson'"), std::string::npos)
      << arrival;
  EXPECT_NE(arrival.find("spec line 2"), std::string::npos) << arrival;
  // A flag's line gets the same hint, named by the flag.
  const std::string flag = what_of([] {
    SpecFile file;
    apply_spec_lines(file, {{"engine", "batchd", "--engine"}});
  });
  EXPECT_NE(flag.find("--engine: unknown engine 'batchd' — did you mean "
                      "'batched'?"),
            std::string::npos)
      << flag;
}

TEST(SpecIo, RejectsMalformedInput) {
  // Missing / unsupported version.
  EXPECT_THROW((void)parse_spec(""), ContractViolation);
  EXPECT_THROW((void)parse_spec("runs = 3\n"), ContractViolation);
  EXPECT_THROW((void)parse_spec("spec_version = 2\n"), ContractViolation);
  // Duplicate scalar key (arrival stays repeatable).
  EXPECT_THROW((void)parse_spec("spec_version = 1\nruns = 1\nruns = 2\n"),
               ContractViolation);
  EXPECT_NO_THROW((void)parse_spec(
      "spec_version = 1\narrival = batch\narrival = burst(2,4)\n"));
  // ks and kmax are mutually exclusive.
  EXPECT_THROW((void)parse_spec("spec_version = 1\nks = 10\nkmax = 100\n"),
               ContractViolation);
  // Structurally broken lines.
  EXPECT_THROW((void)parse_spec("spec_version = 1\nno equals sign\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_spec("spec_version = 1\n= 3\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_spec("spec_version = 1\nruns =\n"),
               ContractViolation);
  // Malformed values, with the line named.
  const std::string what = what_of(
      [] { (void)parse_spec("spec_version = 1\n\nruns = ten\n"); });
  EXPECT_NE(what.find("spec line 3"), std::string::npos) << what;
  EXPECT_THROW((void)parse_spec("spec_version = 1\nks = 10,,20\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_spec("spec_version = 1\nshard = 4/4\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_spec("spec_version = 1\narrival = poisson(0)\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_spec("spec_version = 1\narrival = burst(0,5)\n"),
               ContractViolation);
  EXPECT_THROW(
      (void)parse_spec("spec_version = 1\nrecord_latencies = maybe\n"),
      ContractViolation);
  EXPECT_THROW((void)parse_spec("spec_version = 1\nthreads = -2\n"),
               ContractViolation);
  // New-kind parameter validation fires at parse time too.
  EXPECT_THROW((void)parse_spec("spec_version = 1\narrival = schedule()\n"),
               ContractViolation);
  EXPECT_THROW(
      (void)parse_spec("spec_version = 1\narrival = mmpp(0,0.1,10)\n"),
      ContractViolation);
  EXPECT_THROW(
      (void)parse_spec("spec_version = 1\narrival = mmpp(0.5,0.1)\n"),
      ContractViolation);
  EXPECT_THROW((void)parse_spec("spec_version = 1\narrival = pareto(1.5,0)\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_spec("spec_version = 1\nchannel = capture(1.5)\n"),
               ContractViolation);
  EXPECT_THROW(
      (void)parse_spec("spec_version = 1\nchannel = jam_burst(4,5)\n"),
      ContractViolation);
  // channel repeats like arrival.
  EXPECT_NO_THROW((void)parse_spec(
      "spec_version = 1\nchannel = clean\nchannel = capture(0.5)\n"));
}

TEST(SpecIo, MalformedAdversarialSchedulesFailLoudlyWithLineNumbers) {
  // An unsorted schedule is the classic hand-editing mistake; the error
  // names the offending slot, its position, and the spec line.
  const std::string what = what_of([] {
    (void)parse_spec(
        "spec_version = 1\n"
        "runs = 2\n"
        "arrival = schedule(0,5,3,9)\n");
  });
  EXPECT_NE(what.find("spec line 3"), std::string::npos) << what;
  EXPECT_NE(what.find("non-decreasing"), std::string::npos) << what;
  EXPECT_NE(what.find("slot 3"), std::string::npos) << what;
  EXPECT_NE(what.find("position 2"), std::string::npos) << what;

  const std::string junk = what_of([] {
    (void)parse_spec("spec_version = 1\narrival = schedule(0,x,2)\n");
  });
  EXPECT_NE(junk.find("spec line 2"), std::string::npos) << junk;

  const std::string chan = what_of([] {
    (void)parse_spec("spec_version = 1\nchannel = capturr(0.5)\n");
  });
  EXPECT_NE(chan.find("spec line 2"), std::string::npos) << chan;
  EXPECT_NE(chan.find("capture"), std::string::npos) << chan;
}

TEST(SpecIo, ThreadsZeroMeansAllHardwareThreads) {
  EXPECT_EQ(parse_spec("spec_version = 1\nthreads = 0\n").threads, 0u);
  EXPECT_EQ(parse_spec("spec_version = 1\nthreads = 5\n").threads, 5u);
}

/// A SpecLoader over an in-memory name -> text map.
SpecLoader map_loader(std::map<std::string, std::string> files) {
  return [files = std::move(files)](const std::string& name) {
    const auto it = files.find(name);
    UCR_REQUIRE(it != files.end(), "no such spec '" + name + "'");
    return it->second;
  };
}

const char* const kOverlayBase =
    "spec_version = 1\n"
    "protocols = One-Fail Adaptive, Exp Back-on/Back-off\n"
    "kmax = 100000\n"
    "arrival = batch\n"
    "arrival = poisson(0.1)\n"
    "channel = clean\n"
    "channel = capture(0.35)\n"
    "runs = 10\n"
    "seed = 2011\n"
    "engine = batched\n"
    "format = csv\n";

TEST(SpecOverlay, CompilesToSameCanonicalTextAndHashAsFlattened) {
  const SpecLoader loader = map_loader({{"base.spec", kOverlayBase}});
  const SpecFile overlay = parse_spec(
      "spec_version = 1\n"
      "include = base.spec\n"
      "kmax = 1000\n"
      "runs = 2\n"
      "format = jsonl\n",
      loader);
  const SpecFile flat = parse_spec(
      "spec_version = 1\n"
      "protocols = One-Fail Adaptive, Exp Back-on/Back-off\n"
      "kmax = 1000\n"
      "arrival = batch\n"
      "arrival = poisson(0.1)\n"
      "channel = clean\n"
      "channel = capture(0.35)\n"
      "runs = 2\n"
      "seed = 2011\n"
      "engine = batched\n"
      "format = jsonl\n");
  EXPECT_EQ(overlay, flat);
  EXPECT_EQ(to_text(overlay), to_text(flat));
  EXPECT_EQ(spec_hash(overlay.spec), spec_hash(flat.spec));
}

TEST(SpecOverlay, ExecutionOnlyDeltasKeepTheSpecHash) {
  // shard/threads/format are normalized out of spec_hash, so an overlay
  // touching only them names the same sweep as its base — the exact
  // property the coordinator's shard work units rely on.
  const SpecLoader loader = map_loader({{"base.spec", kOverlayBase}});
  const SpecFile base = parse_spec(kOverlayBase);
  const SpecFile overlay = parse_spec(
      "spec_version = 1\n"
      "include = base.spec\n"
      "shard = 2/5\n"
      "threads = 3\n"
      "format = jsonl\n",
      loader);
  EXPECT_EQ(spec_hash(overlay.spec), spec_hash(base.spec));
  EXPECT_EQ(overlay.spec.shard.label(), "2/5");
  EXPECT_EQ(overlay.threads, 3u);
  EXPECT_EQ(overlay.format, OutputFormat::kJsonl);
  SpecFile flags = base;
  apply_spec_lines(flags, {{"shard", "2/5", "--shard"},
                           {"threads", "3", "--threads"},
                           {"format", "jsonl", "--format"}});
  EXPECT_EQ(flags, overlay);
}

TEST(SpecOverlay, FirstArrivalOrChannelLineReplacesTheInheritedList) {
  const SpecLoader loader = map_loader({{"base.spec", kOverlayBase}});
  const SpecFile overlay = parse_spec(
      "spec_version = 1\n"
      "include = base.spec\n"
      "arrival = burst(3,7)\n"
      "arrival = batch\n"
      "channel = jamming(0.05)\n",
      loader);
  // The same delta as ucr_cli's --arrivals / --channel lines.
  SpecFile flags = parse_spec(kOverlayBase);
  apply_spec_lines(flags, {{"arrival", "burst(3,7)", "--arrivals"},
                           {"arrival", "batch", "--arrivals"},
                           {"channel", "jamming(0.05)", "--channel"}});
  EXPECT_EQ(flags, overlay);
  // Replacement, not append: the base's two arrivals and two channels are
  // gone; the overlay's own lines still accumulate among themselves.
  ASSERT_EQ(overlay.spec.arrivals.size(), 2u);
  EXPECT_EQ(overlay.spec.arrivals[0].label(), "burst(3,7)");
  EXPECT_EQ(overlay.spec.arrivals[1].label(), "batch");
  ASSERT_EQ(overlay.spec.channels.size(), 1u);
  EXPECT_EQ(overlay.spec.channels[0].label(), "jamming(0.050000)");
}

TEST(SpecOverlay, KsAndKmaxDisplaceEachOtherAcrossTheIncludeBoundary) {
  // An overlay may switch a sweep from the kmax spelling to explicit ks
  // (or back); the two stay mutually exclusive within one file.
  const SpecLoader loader = map_loader(
      {{"kmax.spec", "spec_version = 1\nkmax = 100000\n"},
       {"ks.spec", "spec_version = 1\nks = 10,20\n"}});
  const SpecFile to_ks = parse_spec(
      "spec_version = 1\ninclude = kmax.spec\nks = 5,6\n", loader);
  EXPECT_EQ(to_ks.spec.ks, (std::vector<std::uint64_t>{5, 6}));
  EXPECT_EQ(to_ks.spec.k_max, 0u);
  const SpecFile to_kmax = parse_spec(
      "spec_version = 1\ninclude = ks.spec\nkmax = 1000\n", loader);
  EXPECT_TRUE(to_kmax.spec.ks.empty());
  EXPECT_EQ(to_kmax.spec.k_max, 1000u);
  // Both keys in the overlay itself is still the classic error.
  EXPECT_THROW(
      (void)parse_spec(
          "spec_version = 1\ninclude = kmax.spec\nks = 5\nkmax = 9\n",
          loader),
      ContractViolation);

  // ucr_cli's k flags are the same lines applied over a loaded file.
  SpecFile flags = parse_spec(loader("kmax.spec"));
  apply_spec_lines(flags, {{"ks", "5,6", "--ks"}});
  EXPECT_EQ(flags, to_ks);
  flags = parse_spec(loader("ks.spec"));
  apply_spec_lines(flags, {{"kmax", "1000", "--kmax"}});
  EXPECT_EQ(flags, to_kmax);
  EXPECT_THROW(apply_spec_lines(flags, {{"ks", "5", "--ks"},
                                        {"kmax", "9", "--kmax"}}),
               ContractViolation);
  // --k is a second `ks` line: a repeated key names the flag it came from.
  const std::string twice = what_of([&] {
    apply_spec_lines(flags, {{"ks", "5", "--ks"}, {"ks", "7", "--k"}});
  });
  EXPECT_NE(twice.find("--k: duplicate key 'ks'"), std::string::npos)
      << twice;
}

TEST(SpecOverlay, NestedIncludeIsRejectedWithBothLineNumbers) {
  const SpecLoader loader = map_loader(
      {{"middle.spec", "spec_version = 1\ninclude = deep.spec\nruns = 2\n"},
       {"deep.spec", "spec_version = 1\nruns = 3\n"}});
  const std::string what = what_of([&] {
    (void)parse_spec(
        "spec_version = 1\n\ninclude = middle.spec\n", loader);
  });
  // The overlay names its own line, the wrapped error names the base's.
  EXPECT_NE(what.find("spec line 3: include 'middle.spec'"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("spec line 2: nested include 'deep.spec'"),
            std::string::npos)
      << what;
}

TEST(SpecOverlay, IncludeMustPrecedeEveryDeltaKey) {
  const SpecLoader loader =
      map_loader({{"base.spec", "spec_version = 1\nkmax = 100\n"}});
  const std::string what = what_of([&] {
    (void)parse_spec(
        "spec_version = 1\nruns = 2\ninclude = base.spec\n", loader);
  });
  EXPECT_NE(what.find("spec line 3"), std::string::npos) << what;
  EXPECT_NE(what.find("include must precede"), std::string::npos) << what;
  EXPECT_NE(what.find("'runs'"), std::string::npos) << what;
  // And it is single-shot like every scalar key.
  EXPECT_THROW(
      (void)parse_spec("spec_version = 1\ninclude = base.spec\n"
                       "include = base.spec\n",
                       loader),
      ContractViolation);
}

TEST(SpecOverlay, IncludeWithoutALoaderIsRejected) {
  const std::string what = what_of([] {
    (void)parse_spec("spec_version = 1\ninclude = base.spec\n");
  });
  EXPECT_NE(what.find("file context"), std::string::npos) << what;
  // A missing base surfaces the loader's own error, wrapped.
  const std::string missing = what_of([] {
    (void)parse_spec("spec_version = 1\ninclude = gone.spec\n",
                     map_loader({}));
  });
  EXPECT_NE(missing.find("include 'gone.spec'"), std::string::npos)
      << missing;
}

TEST(SpecOverlay, RandomizedOverlaysMatchTheirFlattenedEquivalent) {
  // Overlay fuzz: a random base, a random subset of deltas; parsing the
  // overlay must equal applying the deltas to the base by hand, and the
  // canonical texts (hence spec_hashes) must agree.
  Xoshiro256 rng(20260808);
  const auto u64 = [&rng](std::uint64_t bound) {
    return rng.next_u64() % bound;
  };
  for (int trial = 0; trial < 100; ++trial) {
    const SpecFile base = random_spec_file(rng);
    SpecFile expected = base;
    std::string overlay_text = "spec_version = 1\ninclude = base.spec\n";
    // The same deltas as the lines ucr_cli's flags become.
    std::vector<SpecLine> flags;
    const auto delta = [&](const std::string& key, const std::string& value,
                           const std::string& flag) {
      overlay_text += key + " = " + value + "\n";
      flags.push_back({key, value, flag});
    };
    bool sweep_changed = false;
    if (u64(2) != 0) {
      expected.spec.runs = 1 + u64(50);
      delta("runs", std::to_string(expected.spec.runs), "--runs");
      sweep_changed = true;
    }
    if (u64(2) != 0) {
      expected.spec.seed = u64(1 << 30);
      delta("seed", std::to_string(expected.spec.seed), "--seed");
      sweep_changed = true;
    }
    if (u64(2) != 0) {
      expected.spec.arrivals.clear();
      expected.spec.with_arrival(ArrivalSpec::burst(2, 9));
      delta("arrival", "burst(2,9)", "--arrivals");
      sweep_changed = true;
    }
    if (u64(2) != 0) {
      expected.spec.shard.count = 1 + u64(6);
      expected.spec.shard.index = u64(expected.spec.shard.count);
      delta("shard", expected.spec.shard.label(), "--shard");
    }
    if (u64(2) != 0) {
      expected.threads = 1 + static_cast<unsigned>(u64(8));
      delta("threads", std::to_string(expected.threads), "--threads");
    }
    if (u64(2) != 0) {
      expected.format = static_cast<OutputFormat>(u64(3));
      delta("format", output_format_name(expected.format), "--format");
    }

    const SpecLoader loader = map_loader({{"base.spec", to_text(base)}});
    const SpecFile parsed = parse_spec(overlay_text, loader);
    ASSERT_EQ(parsed, expected) << "trial " << trial << "\n" << overlay_text;
    EXPECT_EQ(to_text(parsed), to_text(expected)) << "trial " << trial;
    SpecFile applied = base;
    apply_spec_lines(applied, flags);
    EXPECT_EQ(applied, expected) << "trial " << trial;
    if (!sweep_changed) {
      EXPECT_EQ(spec_hash(parsed.spec), spec_hash(base.spec))
          << "trial " << trial;
    }
  }
}

TEST(SpecOverlay, ShippedOverlayPairLoadsIdentically) {
  // The shipped example pair (docs/SERVICE.md): the overlay resolves
  // its include relative to its own directory and loads to exactly the
  // flattened twin — same SpecFile, canonical text and spec_hash.
  const std::filesystem::path dir =
      std::filesystem::path(UCR_REPO_ROOT) / "specs" / "overlays";
  const SpecFile overlay =
      load_spec_file((dir / "fig1-quick.spec").string());
  const SpecFile flat =
      load_spec_file((dir / "fig1-quick-flat.spec").string());
  EXPECT_EQ(overlay, flat);
  EXPECT_EQ(to_text(overlay), to_text(flat));
  EXPECT_EQ(spec_hash(overlay.spec), spec_hash(flat.spec));
  EXPECT_EQ(overlay.format, OutputFormat::kJsonl);
  EXPECT_EQ(overlay.spec.k_max, 1000u);
}

TEST(SpecHash, IsStableSixteenHexDigits) {
  const ExperimentSpec spec;
  const std::string hash = spec_hash(spec);
  ASSERT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(spec_hash(spec), hash);  // pure function of the spec
}

TEST(SpecHash, NormalizesShardAndIgnoresExecutionKnobs) {
  ExperimentSpec spec;
  spec.with_protocol("One-Fail Adaptive").with_ks({10, 20, 30});
  const std::string whole = spec_hash(spec);
  for (std::uint64_t shard = 0; shard < 3; ++shard) {
    spec.shard.index = shard;
    spec.shard.count = 3;
    EXPECT_EQ(spec_hash(spec), whole) << "shard " << shard;
  }
}

TEST(SpecHash, ChangesWhenTheExperimentChanges) {
  ExperimentSpec spec;
  spec.with_protocol("One-Fail Adaptive").with_ks({10});
  const std::string base = spec_hash(spec);
  ExperimentSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(spec_hash(other), base);
  other = spec;
  other.with_arrival(ArrivalSpec::poisson(0.5));
  EXPECT_NE(spec_hash(other), base);
  other = spec;
  other.engine = EngineMode::kBatched;
  EXPECT_NE(spec_hash(other), base);
}

TEST(SpecHash, FactoriesHashLikeTheirCatalogueNames) {
  // A bench spec (explicit factories) and the spec file naming the same
  // protocols describe the same sweep — their archives must match.
  ExperimentSpec by_factory;
  for (const auto& p : paper_protocols()) by_factory.with_factory(p);
  by_factory.with_ks({10});

  ExperimentSpec by_name;
  for (const auto& p : paper_protocols()) by_name.with_protocol(p.name);
  by_name.with_ks({10});

  EXPECT_EQ(spec_hash(by_factory), spec_hash(by_name));
}

TEST(ShippedSpecs, EveryCatalogueFileParsesCompilesAndRoundTrips) {
  const std::filesystem::path dir =
      std::filesystem::path(UCR_REPO_ROOT) / "specs";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;

  const auto catalogue = default_catalogue();
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".spec") continue;
    ++seen;
    SCOPED_TRACE(entry.path().filename().string());

    std::ifstream in(entry.path());
    ASSERT_TRUE(in.is_open());
    std::ostringstream text;
    text << in.rdbuf();

    // Parses...
    const SpecFile file = parse_spec(text.str());
    // ...compiles against the live catalogue (all names resolve, engine
    // views exist, the grid is non-empty)...
    const ExperimentPlan plan = compile(file.spec, catalogue);
    EXPECT_GT(plan.total_cells, 0u);
    EXPECT_EQ(plan.spec_hash, spec_hash(file.spec));
    // ...and round-trips exactly through the canonical text.
    const SpecFile back = parse_spec(to_text(file));
    EXPECT_EQ(back, file);
    EXPECT_EQ(to_text(back), to_text(file));
  }
  // The documented catalogue ships (at least) these six sweeps.
  EXPECT_GE(seen, 6u);
}

}  // namespace
}  // namespace ucr::exp
