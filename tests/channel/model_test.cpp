#include "channel/model.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ucr {
namespace {

TEST(ChannelModel, LabelParseRoundTripsEveryKind) {
  const ChannelModel models[] = {
      ChannelModel::clean(),
      ChannelModel::capture(0.25),
      ChannelModel::jamming(0.75),
      ChannelModel::jam_burst(32, 7),
  };
  for (const ChannelModel& model : models) {
    EXPECT_EQ(ChannelModel::parse(model.label()), model) << model.label();
  }
  EXPECT_EQ(ChannelModel::parse("  capture( 0.25 ) "),
            ChannelModel::capture(0.25));
}

TEST(ChannelModel, ParseRejectsUnknownAndMalformed) {
  EXPECT_THROW(ChannelModel::parse("captur(0.5)"), ContractViolation);
  EXPECT_THROW(ChannelModel::parse("capture"), ContractViolation);
  EXPECT_THROW(ChannelModel::parse("capture(0.5,1)"), ContractViolation);
  EXPECT_THROW(ChannelModel::parse("jam_burst(16)"), ContractViolation);
  EXPECT_THROW(ChannelModel::parse("jamming(nope)"), ContractViolation);
  // Integers are decimal digits only, probabilities finite numbers.
  for (const char* bad : {"jam_burst(+4,2)", "jam_burst(4,+2)",
                          "jam_burst(4,2x)", "jamming(inf)", "capture(nan)",
                          "capture(0.5x)"}) {
    EXPECT_THROW(ChannelModel::parse(bad), ContractViolation) << bad;
  }
}

TEST(ChannelModel, UnknownKindGetsADidYouMeanHintBeforeTheGrammars) {
  // The hint is the closest of kind_names() in case-folded edit distance,
  // and the list of grammars still follows it.
  const std::pair<const char*, const char*> cases[] = {
      {"jamin(0.1)", "jamming"},
      {"Captur(0.5)", "capture"},
      {"jamburst(16,4)", "jam_burst"},
      {"cleen", "clean"},
  };
  for (const auto& [typo, kind] : cases) {
    try {
      ChannelModel::parse(typo);
      ADD_FAILURE() << typo << " parsed";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      const std::size_t hint =
          what.find("did you mean '" + std::string(kind) + "'?");
      EXPECT_NE(hint, std::string::npos) << what;
      EXPECT_LT(hint, what.find("jam_burst(<period>,<len>)")) << what;
    }
  }
}

TEST(ChannelModel, ValidateRejectsOutOfRangeParameters) {
  EXPECT_THROW(ChannelModel::capture(1.5).validate(), ContractViolation);
  EXPECT_THROW(ChannelModel::capture(-0.1).validate(), ContractViolation);
  EXPECT_THROW(ChannelModel::jamming(2.0).validate(), ContractViolation);
  EXPECT_THROW(ChannelModel::jam_burst(0, 0).validate(), ContractViolation);
  EXPECT_THROW(ChannelModel::jam_burst(4, 5).validate(), ContractViolation);
  EXPECT_NO_THROW(ChannelModel::jam_burst(4, 4).validate());
  EXPECT_NO_THROW(ChannelModel::capture(0.0).validate());
  EXPECT_NO_THROW(ChannelModel::capture(1.0).validate());
}

TEST(ChannelModel, CleanResolveMatchesSlotClassifierAndDrawsNoRandomness) {
  Xoshiro256 rng(7);
  Xoshiro256 untouched(7);
  const ChannelModel clean = ChannelModel::clean();
  EXPECT_EQ(clean.resolve(0, 0, rng), SlotOutcome::kSilence);
  EXPECT_EQ(clean.resolve(1, 1, rng), SlotOutcome::kSuccess);
  EXPECT_EQ(clean.resolve(2, 5, rng), SlotOutcome::kCollision);
  // The clean model must not consume RNG state: bit-identity of every
  // pre-channel-layer run depends on it.
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(ChannelModel, CaptureEdgeProbabilities) {
  Xoshiro256 rng(11);
  const ChannelModel always = ChannelModel::capture(1.0);
  const ChannelModel never = ChannelModel::capture(0.0);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(always.resolve(i, 3, rng), SlotOutcome::kSuccess);
    EXPECT_EQ(never.resolve(i, 3, rng), SlotOutcome::kCollision);
    // Capture never touches silence or singleton slots.
    EXPECT_EQ(always.resolve(i, 0, rng), SlotOutcome::kSilence);
    EXPECT_EQ(always.resolve(i, 1, rng), SlotOutcome::kSuccess);
  }
}

TEST(ChannelModel, JammedSlotsReadCollisionForEveryTransmitterCount) {
  Xoshiro256 rng(13);
  const ChannelModel jam = ChannelModel::jamming(1.0);
  for (std::uint64_t n : {0ULL, 1ULL, 2ULL, 9ULL}) {
    EXPECT_EQ(jam.resolve(0, n, rng), SlotOutcome::kCollision);
  }
  const ChannelModel quiet = ChannelModel::jamming(0.0);
  EXPECT_EQ(quiet.resolve(0, 0, rng), SlotOutcome::kSilence);
  EXPECT_EQ(quiet.resolve(0, 1, rng), SlotOutcome::kSuccess);
}

TEST(ChannelModel, JamBurstIsDeterministicAndPeriodic) {
  Xoshiro256 rng(17);
  Xoshiro256 untouched(17);
  const ChannelModel burst = ChannelModel::jam_burst(8, 3);
  for (std::uint64_t t = 0; t < 64; ++t) {
    EXPECT_EQ(burst.slot_jammed(t, rng), t % 8 < 3) << "slot " << t;
    const SlotOutcome expected =
        t % 8 < 3 ? SlotOutcome::kCollision : SlotOutcome::kSuccess;
    EXPECT_EQ(burst.resolve(t, 1, rng), expected) << "slot " << t;
  }
  // Deterministic jamming draws no randomness either.
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

}  // namespace
}  // namespace ucr
