#include "exp/spec.hpp"

#include <map>
#include <utility>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace ucr::exp {

ArrivalSpec ArrivalSpec::batch() { return ArrivalSpec{}; }

ArrivalSpec ArrivalSpec::poisson(double lambda) {
  ArrivalSpec spec;
  spec.kind = Kind::kPoisson;
  spec.lambda = lambda;
  return spec;
}

ArrivalSpec ArrivalSpec::burst(std::uint64_t bursts, std::uint64_t gap) {
  ArrivalSpec spec;
  spec.kind = Kind::kBurst;
  spec.bursts = bursts;
  spec.gap = gap;
  return spec;
}

ArrivalSpec ArrivalSpec::schedule(std::vector<std::uint64_t> slots) {
  ArrivalSpec spec;
  spec.kind = Kind::kSchedule;
  spec.schedule_slots = std::move(slots);
  return spec;
}

ArrivalSpec ArrivalSpec::mmpp(double lambda_hi, double lambda_lo,
                              std::uint64_t dwell) {
  ArrivalSpec spec;
  spec.kind = Kind::kMmpp;
  spec.lambda_hi = lambda_hi;
  spec.lambda_lo = lambda_lo;
  spec.dwell = dwell;
  return spec;
}

ArrivalSpec ArrivalSpec::pareto(double alpha, double xm) {
  ArrivalSpec spec;
  spec.kind = Kind::kPareto;
  spec.alpha = alpha;
  spec.xm = xm;
  return spec;
}

std::string ArrivalSpec::label() const {
  switch (kind) {
    case Kind::kBatch:
      return "batch";
    case Kind::kPoisson:
      return "poisson(" + format_double(lambda, 6) + ")";
    case Kind::kBurst:
      return "burst(" + std::to_string(bursts) + "," + std::to_string(gap) +
             ")";
    case Kind::kSchedule: {
      std::string out = "schedule(";
      for (std::size_t i = 0; i < schedule_slots.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(schedule_slots[i]);
      }
      return out + ")";
    }
    case Kind::kMmpp:
      return "mmpp(" + format_double(lambda_hi, 6) + "," +
             format_double(lambda_lo, 6) + "," + std::to_string(dwell) + ")";
    case Kind::kPareto:
      return "pareto(" + format_double(alpha, 6) + "," +
             format_double(xm, 6) + ")";
  }
  UCR_CHECK(false, "unreachable arrival kind");
  return {};
}

const std::vector<std::string>& ArrivalSpec::kind_names() {
  static const std::vector<std::string> names{
      "batch", "poisson", "burst", "schedule", "mmpp", "pareto",
  };
  return names;
}

ArrivalSpec ArrivalSpec::parse(const std::string& text) {
  const std::string value = trim(text);
  if (value == "batch") return batch();

  // "<kind>(<args>)" — split the head off the parenthesized argument list.
  const std::size_t open = value.find('(');
  const std::string head = trim(value.substr(0, open));
  static const std::map<std::string, std::string> grammar{
      {"poisson", "poisson(<lambda>)"},
      {"burst", "burst(<bursts>,<gap>)"},
      {"schedule", "schedule(<slot>,<slot>,...)"},
      {"mmpp", "mmpp(<lambda_hi>,<lambda_lo>,<dwell>)"},
      {"pareto", "pareto(<alpha>,<xm>)"},
  };
  const auto shape = grammar.find(head);
  if (shape != grammar.end()) {
    UCR_REQUIRE(open != std::string::npos && value.back() == ')',
                "malformed arrival '" + value + "' (expected " +
                    shape->second + ")");
    const std::string source = "arrival '" + value + "'";
    std::vector<std::string> args;
    std::string arg_text = value.substr(open + 1, value.size() - open - 2);
    std::size_t start = 0;
    while (start <= arg_text.size()) {
      const std::size_t comma = arg_text.find(',', start);
      const std::size_t end =
          comma == std::string::npos ? arg_text.size() : comma;
      args.push_back(trim(arg_text.substr(start, end - start)));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    const auto want = [&](std::size_t n) {
      UCR_REQUIRE(args.size() == n, "malformed arrival '" + value +
                                        "' (expected " + shape->second + ")");
    };
    ArrivalSpec spec;
    if (head == "poisson") {
      want(1);
      spec = poisson(parse_finite_double(args[0], source));
    } else if (head == "burst") {
      want(2);
      spec = burst(parse_u64_strict(args[0], source),
                   parse_u64_strict(args[1], source));
    } else if (head == "schedule") {
      std::vector<std::uint64_t> slots;
      slots.reserve(args.size());
      for (const std::string& arg : args) {
        slots.push_back(parse_u64_strict(arg, source));
      }
      spec = schedule(std::move(slots));
    } else if (head == "mmpp") {
      want(3);
      spec = mmpp(parse_finite_double(args[0], source),
                  parse_finite_double(args[1], source),
                  parse_u64_strict(args[2], source));
    } else {
      want(2);
      spec = pareto(parse_finite_double(args[0], source),
                    parse_finite_double(args[1], source));
    }
    spec.validate();
    return spec;
  }
  throw ContractViolation(
      "unknown arrival kind '" + head + "' — did you mean '" +
      closest_name(kind_names(), head) +
      "'? (batch, poisson(<lambda>), burst(<bursts>,<gap>), "
      "schedule(<slot>,...), mmpp(<lambda_hi>,<lambda_lo>,<dwell>) or "
      "pareto(<alpha>,<xm>))");
}

ArrivalPattern ArrivalSpec::materialize(std::uint64_t k, std::uint64_t seed,
                                        std::uint64_t stream_id) const {
  validate();
  switch (kind) {
    case Kind::kBatch:
      return batched_arrivals(k);
    case Kind::kPoisson: {
      Xoshiro256 rng = Xoshiro256::stream(seed, stream_id);
      return poisson_arrivals(k, lambda, rng);
    }
    case Kind::kBurst: {
      // Distribute k over the bursts; the first k % bursts bursts carry
      // the remainder so exactly k messages arrive for any k.
      const std::uint64_t base = k / bursts;
      const std::uint64_t extra = k % bursts;
      if (extra == 0) {
        return burst_arrivals(bursts, base, gap);
      }
      ArrivalPattern pattern;
      pattern.reserve(k);
      std::uint64_t slot = 0;
      for (std::uint64_t b = 0; b < bursts; ++b) {
        const std::uint64_t size = base + (b < extra ? 1 : 0);
        for (std::uint64_t i = 0; i < size; ++i) pattern.push_back(slot);
        slot += gap;
      }
      return pattern;
    }
    case Kind::kSchedule:
      return schedule_arrivals(schedule_slots, k);
    case Kind::kMmpp: {
      Xoshiro256 rng = Xoshiro256::stream(seed, stream_id);
      return mmpp_arrivals(k, lambda_hi, lambda_lo, dwell, rng);
    }
    case Kind::kPareto: {
      Xoshiro256 rng = Xoshiro256::stream(seed, stream_id);
      return pareto_arrivals(k, alpha, xm, rng);
    }
  }
  UCR_CHECK(false, "unreachable arrival kind");
  return {};
}

void ArrivalSpec::validate() const {
  if (kind == Kind::kPoisson) {
    UCR_REQUIRE(lambda > 0.0, "poisson arrival rate must be positive");
  }
  if (kind == Kind::kBurst) {
    UCR_REQUIRE(bursts > 0, "burst arrival spec needs at least one burst");
  }
  if (kind == Kind::kSchedule) {
    UCR_REQUIRE(!schedule_slots.empty(),
                "schedule arrival spec needs at least one slot");
    for (std::size_t i = 1; i < schedule_slots.size(); ++i) {
      UCR_REQUIRE(schedule_slots[i] >= schedule_slots[i - 1],
                  "schedule arrival slots must be non-decreasing (slot " +
                      std::to_string(schedule_slots[i]) + " at position " +
                      std::to_string(i) + " follows " +
                      std::to_string(schedule_slots[i - 1]) + ")");
    }
  }
  if (kind == Kind::kMmpp) {
    UCR_REQUIRE(lambda_hi > 0.0, "mmpp burst-state rate must be positive");
    UCR_REQUIRE(lambda_lo >= 0.0,
                "mmpp quiet-state rate must be non-negative");
    UCR_REQUIRE(dwell >= 1, "mmpp mean dwell must be at least one slot");
  }
  if (kind == Kind::kPareto) {
    UCR_REQUIRE(alpha > 0.0, "pareto shape alpha must be positive");
    UCR_REQUIRE(xm > 0.0, "pareto scale xm must be positive");
  }
}

ShardSpec ShardSpec::parse(const std::string& text) {
  const auto slash = text.find('/');
  UCR_REQUIRE(slash != std::string::npos,
              "malformed shard '" + text + "' (expected i/N, e.g. 0/4)");
  const std::string source = "shard '" + text + "' (expected i/N)";
  ShardSpec shard;
  shard.index = parse_u64_strict(text.substr(0, slash), source);
  shard.count = parse_u64_strict(text.substr(slash + 1), source);
  shard.validate();
  return shard;
}

std::string ShardSpec::label() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

void ShardSpec::validate() const {
  UCR_REQUIRE(count >= 1, "shard count must be >= 1");
  UCR_REQUIRE(index < count, "shard index " + std::to_string(index) +
                                 " out of range for " +
                                 std::to_string(count) + " shards");
}

const char* engine_mode_name(EngineMode mode) {
  switch (mode) {
    case EngineMode::kFair:
      return "fair";
    case EngineMode::kBatched:
      return "batched";
    case EngineMode::kNode:
      return "node";
    case EngineMode::kNodeBatched:
      return "node_batched";
  }
  UCR_CHECK(false, "unreachable engine mode");
  return "";
}

ExperimentSpec& ExperimentSpec::with_protocol(std::string name) {
  protocol_names.push_back(std::move(name));
  return *this;
}

ExperimentSpec& ExperimentSpec::with_factory(ProtocolFactory factory) {
  protocols.push_back(std::move(factory));
  return *this;
}

ExperimentSpec& ExperimentSpec::with_ks(std::vector<std::uint64_t> grid) {
  ks = std::move(grid);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_paper_ks(std::uint64_t max) {
  ks.clear();
  k_max = max;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_arrival(ArrivalSpec arrival) {
  arrivals.push_back(arrival);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_channel(ChannelModel channel) {
  channels.push_back(channel);
  return *this;
}

std::vector<std::string> ExperimentSpec::all_protocol_names() const {
  std::vector<std::string> names = protocol_names;
  names.reserve(names.size() + protocols.size());
  for (const ProtocolFactory& factory : protocols) {
    names.push_back(factory.name);
  }
  return names;
}

bool ExperimentSpec::operator==(const ExperimentSpec& other) const {
  if (protocol_names != other.protocol_names) return false;
  if (protocols.size() != other.protocols.size()) return false;
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    if (protocols[i].name != other.protocols[i].name) return false;
  }
  return ks == other.ks && k_max == other.k_max &&
         arrivals == other.arrivals && channels == other.channels &&
         runs == other.runs && seed == other.seed && engine == other.engine &&
         engine_options == other.engine_options && shard == other.shard;
}

}  // namespace ucr::exp
