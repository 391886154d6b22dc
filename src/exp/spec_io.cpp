#include "exp/spec_io.hpp"

#include <cstdint>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace ucr::exp {

namespace {

// Canonical key order of to_text(); also the did-you-mean candidate set
// for unknown keys.
const std::vector<std::string>& known_keys() {
  static const std::vector<std::string> keys{
      "spec_version",
      "include",
      "protocols",
      "ks",
      "kmax",
      "arrival",
      "runs",
      "seed",
      "engine",
      "max_slots",
      "record_deliveries",
      "record_latencies",
      "collision_detection",
      "channel",
      "shard",
      "threads",
      "format",
  };
  return keys;
}

/// Splits a comma-separated list, trimming items and rejecting empties.
std::vector<std::string> split_list(const std::string& text,
                                    const std::string& source) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    const std::string item = trim(text.substr(start, end - start));
    UCR_REQUIRE(!item.empty(), source + ": empty item in list '" + text + "'");
    items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

bool parse_bool(const std::string& value, const std::string& source) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  throw ContractViolation(source + ": malformed boolean '" + value +
                          "' (true, false, 1 or 0)");
}

EngineMode parse_engine_mode(const std::string& value,
                             const std::string& source) {
  static const std::vector<std::string> names{
      "fair",
      "batched",
      "node",
      "node_batched",
  };
  if (value == "fair") return EngineMode::kFair;
  if (value == "batched") return EngineMode::kBatched;
  if (value == "node") return EngineMode::kNode;
  if (value == "node_batched") return EngineMode::kNodeBatched;
  throw ContractViolation(source + ": unknown engine '" + value +
                          "' — did you mean '" + closest_name(names, value) +
                          "'?");
}

std::string arrival_text(const ArrivalSpec& arrival) {
  switch (arrival.kind) {
    case ArrivalSpec::Kind::kBatch:
      return "batch";
    case ArrivalSpec::Kind::kPoisson:
      // Shortest-round-trip notation: parse must recover lambda exactly
      // (the 6-decimal label() would truncate, e.g., 1e-7 to 0.000000).
      return "poisson(" + format_double_shortest(arrival.lambda) + ")";
    case ArrivalSpec::Kind::kBurst:
      return "burst(" + std::to_string(arrival.bursts) + "," +
             std::to_string(arrival.gap) + ")";
    case ArrivalSpec::Kind::kSchedule: {
      std::string out = "schedule(";
      for (std::size_t i = 0; i < arrival.schedule_slots.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(arrival.schedule_slots[i]);
      }
      return out + ")";
    }
    case ArrivalSpec::Kind::kMmpp:
      return "mmpp(" + format_double_shortest(arrival.lambda_hi) + "," +
             format_double_shortest(arrival.lambda_lo) + "," +
             std::to_string(arrival.dwell) + ")";
    case ArrivalSpec::Kind::kPareto:
      return "pareto(" + format_double_shortest(arrival.alpha) + "," +
             format_double_shortest(arrival.xm) + ")";
  }
  UCR_CHECK(false, "unreachable arrival kind");
  return {};
}

std::string channel_text(const ChannelModel& channel) {
  switch (channel.kind) {
    case ChannelModel::Kind::kClean:
      return "clean";
    case ChannelModel::Kind::kCapture:
      return "capture(" + format_double_shortest(channel.p_capture) + ")";
    case ChannelModel::Kind::kJamming:
      return "jamming(" + format_double_shortest(channel.jam_prob) + ")";
    case ChannelModel::Kind::kJamBurst:
      return "jam_burst(" + std::to_string(channel.jam_period) + "," +
             std::to_string(channel.jam_len) + ")";
  }
  UCR_CHECK(false, "unreachable channel kind");
  return {};
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char ch : text) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out;
}

/// The parser core behind both parse_spec overloads and load_spec_file.
/// `loader` resolves `include = <name>` lines (nullptr rejects them);
/// `allow_include` is false while parsing an included base, so overlays
/// are exactly one level deep. The file's head — `spec_version` and an
/// optional `include` — is handled here; every other line is one delta
/// that apply_spec_lines applies over the base (or over the defaults).
SpecFile parse_spec_impl(const std::string& text, const SpecLoader& loader,
                         bool allow_include) {
  SpecFile file;
  std::vector<SpecLine> delta;
  bool versioned = false;
  bool included = false;

  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t newline = text.find('\n', start);
    const std::size_t end =
        newline == std::string::npos ? text.size() : newline;
    std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (newline == std::string::npos && line.empty()) break;

    // Comments run from '#' to end of line; no key or value contains '#'.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::string source = "spec line " + std::to_string(line_no);
    const std::size_t equals = line.find('=');
    UCR_REQUIRE(equals != std::string::npos,
                source + ": malformed line '" + line +
                    "' (expected key = value)");
    std::string key = trim(line.substr(0, equals));
    std::string value = trim(line.substr(equals + 1));
    UCR_REQUIRE(!key.empty(), source + ": missing key before '='");
    UCR_REQUIRE(!value.empty(), source + ": missing value for '" + key + "'");

    if (key == "spec_version") {
      UCR_REQUIRE(!versioned, source + ": duplicate key '" + key + "'");
      UCR_REQUIRE(value == "1", source + ": unsupported spec_version '" +
                                    value + "' (this build reads 1)");
      versioned = true;
    } else if (key == "include") {
      UCR_REQUIRE(!included, source + ": duplicate key '" + key + "'");
      UCR_REQUIRE(allow_include,
                  source + ": nested include '" + value +
                      "' (an included base spec must be flat — overlays "
                      "are one level deep)");
      UCR_REQUIRE(loader != nullptr,
                  source + ": include needs a file context (load the "
                           "overlay with load_spec_file, or pass a "
                           "SpecLoader to parse_spec)");
      UCR_REQUIRE(delta.empty(),
                  source + ": include must precede every key except "
                           "spec_version (saw '" + delta.front().key +
                           "' first — an overlay states its base, then "
                           "its deltas)");
      try {
        file = parse_spec_impl(loader(value), loader, /*allow_include=*/false);
      } catch (const ContractViolation& e) {
        throw ContractViolation(source + ": include '" + value + "': " +
                                e.what());
      }
      included = true;
    } else {
      delta.push_back({std::move(key), std::move(value), source});
    }
  }

  apply_spec_lines(file, delta);
  UCR_REQUIRE(versioned,
              "spec is missing 'spec_version = 1' (required so future "
              "format changes fail loudly instead of misparsing)");
  return file;
}

}  // namespace

const char* output_format_name(OutputFormat format) {
  switch (format) {
    case OutputFormat::kTable:
      return "table";
    case OutputFormat::kCsv:
      return "csv";
    case OutputFormat::kJsonl:
      return "jsonl";
  }
  UCR_CHECK(false, "unreachable output format");
  return "";
}

OutputFormat parse_output_format(const std::string& value,
                                 const std::string& source) {
  static const std::vector<std::string> names{"table", "csv", "jsonl"};
  if (value == "table") return OutputFormat::kTable;
  if (value == "csv") return OutputFormat::kCsv;
  if (value == "jsonl") return OutputFormat::kJsonl;
  throw ContractViolation(source + ": unknown format '" + value +
                          "' — did you mean '" + closest_name(names, value) +
                          "'?");
}

void apply_spec_lines(SpecFile& file, const std::vector<SpecLine>& lines) {
  ExperimentSpec& spec = file.spec;
  // `file` is the base these lines are a delta over. The first line for a
  // repeatable axis (`arrival` / `channel`) replaces the inherited list
  // instead of appending to it, and a `ks` / `kmax` line displaces an
  // inherited value of the *other* key (the two stay mutually exclusive,
  // but a delta may switch a sweep from one spelling to the other).
  const bool inherited_ks = !spec.ks.empty();
  const bool inherited_kmax = spec.k_max != 0;
  bool own_arrivals = false;
  bool own_channels = false;
  std::set<std::string> seen;

  for (const auto& [key, value, source] : lines) {
    // Every key but the repeatable grid axes `arrival` / `channel` is
    // single-shot.
    if (key != "arrival" && key != "channel") {
      UCR_REQUIRE(seen.insert(key).second,
                  source + ": duplicate key '" + key + "'");
    }

    try {
      if (key == "protocols") {
        spec.protocol_names = split_list(value, source);
      } else if (key == "ks") {
        if (inherited_kmax && seen.count("kmax") == 0) spec.k_max = 0;
        spec.ks.clear();
        for (const std::string& item : split_list(value, source)) {
          spec.ks.push_back(parse_u64_strict(item, source + " key 'ks'"));
        }
      } else if (key == "kmax") {
        if (inherited_ks && seen.count("ks") == 0) spec.ks.clear();
        spec.k_max = parse_u64_strict(value, source + " key 'kmax'");
      } else if (key == "arrival") {
        if (!own_arrivals) spec.arrivals.clear();
        own_arrivals = true;
        spec.with_arrival(ArrivalSpec::parse(value));
      } else if (key == "runs") {
        spec.runs = parse_u64_strict(value, source + " key 'runs'");
      } else if (key == "seed") {
        spec.seed = parse_u64_strict(value, source + " key 'seed'");
      } else if (key == "engine") {
        spec.engine = parse_engine_mode(value, source);
      } else if (key == "max_slots") {
        spec.engine_options.max_slots =
            parse_u64_strict(value, source + " key 'max_slots'");
      } else if (key == "record_deliveries") {
        spec.engine_options.record_deliveries = parse_bool(value, source);
      } else if (key == "record_latencies") {
        spec.engine_options.record_latencies = parse_bool(value, source);
      } else if (key == "collision_detection") {
        spec.engine_options.collision_detection = parse_bool(value, source);
      } else if (key == "channel") {
        if (!own_channels) spec.channels.clear();
        own_channels = true;
        spec.with_channel(ChannelModel::parse(value));
      } else if (key == "shard") {
        spec.shard = ShardSpec::parse(value);
      } else if (key == "threads") {
        // 0 is the explicit "all hardware threads" spelling here (a bare
        // --threads=0 is rejected as a likely typo, but a versioned file
        // states it deliberately).
        file.threads =
            value == "0" ? 0 : parse_thread_count(value, source);
      } else if (key == "format") {
        file.format = parse_output_format(value, source);
      } else {
        throw ContractViolation(source + ": unknown key '" + key +
                                "' — did you mean '" +
                                closest_name(known_keys(), key) + "'?");
      }
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      // Nested parsers (arrival, shard, numbers) don't know the line;
      // prefix it exactly once.
      if (what.find(source) == std::string::npos) {
        throw ContractViolation(source + ": " + what);
      }
      throw;
    }
  }

  UCR_REQUIRE(spec.ks.empty() || spec.k_max == 0,
              "spec sets both 'ks' and 'kmax' (they are mutually "
              "exclusive: ks is explicit, kmax derives the paper sweep)");
}

SpecFile parse_spec(const std::string& text) {
  return parse_spec_impl(text, nullptr, /*allow_include=*/true);
}

SpecFile parse_spec(const std::string& text, const SpecLoader& loader) {
  return parse_spec_impl(text, loader, /*allow_include=*/true);
}

SpecFile load_spec_file(const std::string& path) {
  // Includes resolve relative to the directory of the *including* file —
  // an overlay names its base the way a runbook reads it, independent of
  // the process's working directory. (One level deep, so the including
  // file is always `path` itself.)
  std::string dir;
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);
  const SpecLoader loader = [&dir](const std::string& name) {
    const bool absolute = !name.empty() && name.front() == '/';
    return read_text_file(absolute ? name : dir + name, "spec file");
  };
  return parse_spec(read_text_file(path, "spec file"), loader);
}

std::string to_text(const ExperimentSpec& spec) {
  std::string out = "spec_version = 1\n";
  const std::vector<std::string> protocols = spec.all_protocol_names();
  if (!protocols.empty()) {
    out += "protocols = " + join(protocols) + "\n";
  }
  if (!spec.ks.empty()) {
    std::vector<std::string> items;
    items.reserve(spec.ks.size());
    for (const std::uint64_t k : spec.ks) items.push_back(std::to_string(k));
    out += "ks = " + join(items) + "\n";
  } else if (spec.k_max != 0) {
    out += "kmax = " + std::to_string(spec.k_max) + "\n";
  }
  for (const ArrivalSpec& arrival : spec.arrivals) {
    out += "arrival = " + arrival_text(arrival) + "\n";
  }
  out += "runs = " + std::to_string(spec.runs) + "\n";
  out += "seed = " + std::to_string(spec.seed) + "\n";
  out += "engine = " + std::string(engine_mode_name(spec.engine)) + "\n";
  out += "max_slots = " + std::to_string(spec.engine_options.max_slots) +
         "\n";
  const auto bool_text = [](bool v) { return v ? "true" : "false"; };
  out += "record_deliveries = " +
         std::string(bool_text(spec.engine_options.record_deliveries)) + "\n";
  out += "record_latencies = " +
         std::string(bool_text(spec.engine_options.record_latencies)) + "\n";
  out += "collision_detection = " +
         std::string(bool_text(spec.engine_options.collision_detection)) +
         "\n";
  for (const ChannelModel& channel : spec.channels) {
    out += "channel = " + channel_text(channel) + "\n";
  }
  out += "shard = " + spec.shard.label() + "\n";
  return out;
}

std::string to_text(const SpecFile& file) {
  std::string out = to_text(file.spec);
  out += "threads = " + std::to_string(file.threads) + "\n";
  out += "format = " + std::string(output_format_name(file.format)) + "\n";
  return out;
}

std::string spec_hash(const ExperimentSpec& spec) {
  // Normalize the execution partition out: every shard of a sweep hashes
  // identically, which is what lets sharded archives concatenate
  // byte-for-byte into the unsharded one while still naming their spec.
  ExperimentSpec whole = spec;
  whole.shard = ShardSpec{};
  const std::uint64_t hash = fnv1a64(to_text(whole));
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = hex[(hash >> (4 * i)) & 0xF];
  }
  return out;
}

}  // namespace ucr::exp
