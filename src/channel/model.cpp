#include "channel/model.hpp"

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace ucr {

ChannelModel ChannelModel::clean() { return ChannelModel{}; }

ChannelModel ChannelModel::capture(double p) {
  ChannelModel model;
  model.kind = Kind::kCapture;
  model.p_capture = p;
  return model;
}

ChannelModel ChannelModel::jamming(double q) {
  ChannelModel model;
  model.kind = Kind::kJamming;
  model.jam_prob = q;
  return model;
}

ChannelModel ChannelModel::jam_burst(std::uint64_t period, std::uint64_t len) {
  ChannelModel model;
  model.kind = Kind::kJamBurst;
  model.jam_period = period;
  model.jam_len = len;
  return model;
}

std::string ChannelModel::label() const {
  switch (kind) {
    case Kind::kClean:
      return "clean";
    case Kind::kCapture:
      return "capture(" + format_double(p_capture, 6) + ")";
    case Kind::kJamming:
      return "jamming(" + format_double(jam_prob, 6) + ")";
    case Kind::kJamBurst:
      return "jam_burst(" + std::to_string(jam_period) + "," +
             std::to_string(jam_len) + ")";
  }
  UCR_CHECK(false, "unreachable channel kind");
  return {};
}

const std::vector<std::string>& ChannelModel::kind_names() {
  static const std::vector<std::string> names{
      "clean",
      "capture",
      "jamming",
      "jam_burst",
  };
  return names;
}

ChannelModel ChannelModel::parse(const std::string& text) {
  const std::string value = trim(text);
  if (value == "clean") return clean();

  const std::size_t open = value.find('(');
  const std::string head = trim(value.substr(0, open));
  const std::string grammar =
      "(clean, capture(<p>), jamming(<q>) or jam_burst(<period>,<len>))";
  if (head == "capture" || head == "jamming" || head == "jam_burst") {
    UCR_REQUIRE(open != std::string::npos && value.back() == ')',
                "malformed channel '" + value + "' " + grammar);
    const std::string args = value.substr(open + 1, value.size() - open - 2);
    const std::string source = "channel '" + value + "'";
    ChannelModel model;
    if (head == "capture") {
      model = capture(parse_finite_double(trim(args), source));
    } else if (head == "jamming") {
      model = jamming(parse_finite_double(trim(args), source));
    } else {
      const std::size_t comma = args.find(',');
      UCR_REQUIRE(comma != std::string::npos,
                  "malformed channel '" + value +
                      "' (expected jam_burst(<period>,<len>))");
      model = jam_burst(parse_u64_strict(trim(args.substr(0, comma)), source),
                        parse_u64_strict(trim(args.substr(comma + 1)), source));
    }
    model.validate();
    return model;
  }
  throw ContractViolation("unknown channel kind '" + head +
                          "' — did you mean '" +
                          closest_name(kind_names(), head) + "'? " + grammar);
}

void ChannelModel::validate() const {
  switch (kind) {
    case Kind::kClean:
      return;
    case Kind::kCapture:
      UCR_REQUIRE(p_capture >= 0.0 && p_capture <= 1.0,
                  "capture probability must be in [0, 1]");
      return;
    case Kind::kJamming:
      UCR_REQUIRE(jam_prob >= 0.0 && jam_prob <= 1.0,
                  "jamming probability must be in [0, 1]");
      return;
    case Kind::kJamBurst:
      UCR_REQUIRE(jam_period > 0, "jam_burst period must be >= 1");
      UCR_REQUIRE(jam_len <= jam_period,
                  "jam_burst length cannot exceed its period (" +
                      std::to_string(jam_len) + " > " +
                      std::to_string(jam_period) + ")");
      return;
  }
  UCR_CHECK(false, "unreachable channel kind");
}

bool ChannelModel::slot_jammed(std::uint64_t slot, Xoshiro256& rng) const {
  switch (kind) {
    case Kind::kClean:
    case Kind::kCapture:
      return false;
    case Kind::kJamming:
      // One coin per slot, transmitters or not: the noise process is
      // independent of the protocol's behaviour.
      return rng.next_bernoulli(jam_prob);
    case Kind::kJamBurst:
      return slot % jam_period < jam_len;
  }
  UCR_CHECK(false, "unreachable channel kind");
  return false;
}

SlotOutcome ChannelModel::resolve(std::uint64_t slot,
                                  std::uint64_t num_transmitters,
                                  Xoshiro256& rng) const {
  if (kind == Kind::kClean) {
    // No coins: clean-channel runs stay bit-identical to the engines
    // before this layer existed.
    return resolve_outcome(num_transmitters);
  }
  if (slot_jammed(slot, rng)) return SlotOutcome::kCollision;
  const SlotOutcome outcome = resolve_outcome(num_transmitters);
  if (outcome == SlotOutcome::kCollision && kind == Kind::kCapture &&
      rng.next_bernoulli(p_capture)) {
    return SlotOutcome::kSuccess;
  }
  return outcome;
}

}  // namespace ucr
