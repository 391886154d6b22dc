#include "svc/result_cache.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "sim/model_version.hpp"

namespace ucr::svc {

namespace {

namespace fs = std::filesystem;

void append_summary(std::string& out, const char* key,
                    const Summary& summary) {
  out += '"';
  out += key;
  out += "\":[";
  out += std::to_string(summary.count);
  const double values[] = {summary.mean, summary.stddev,
                           summary.min,  summary.p25,
                           summary.median, summary.p75,
                           summary.p95,  summary.max,
                           summary.ci95_halfwidth};
  for (const double value : values) {
    out += ',';
    out += format_double_shortest(value);
  }
  out += ']';
}

Summary parse_summary(const json::Value& value, const std::string& source) {
  const auto& items = value.items();
  UCR_REQUIRE(items.size() == 10,
              source + ": summary array must have 10 entries, has " +
                  std::to_string(items.size()));
  Summary summary;
  summary.count = items[0].as_u64();
  summary.mean = items[1].as_double();
  summary.stddev = items[2].as_double();
  summary.min = items[3].as_double();
  summary.p25 = items[4].as_double();
  summary.median = items[5].as_double();
  summary.p75 = items[6].as_double();
  summary.p95 = items[7].as_double();
  summary.max = items[8].as_double();
  summary.ci95_halfwidth = items[9].as_double();
  return summary;
}

}  // namespace

ResultCache::ResultCache(std::string root) : root_(std::move(root)) {
  UCR_REQUIRE(!root_.empty(), "result cache root path is empty");
  std::error_code ec;
  fs::create_directories(root_, ec);
  UCR_REQUIRE(!ec, "cannot create result cache root '" + root_ +
                       "': " + ec.message());
}

std::string ResultCache::spec_dir(const std::string& spec_hash) const {
  return root_ + "/m" + std::to_string(kModelVersion) + "/" + spec_hash;
}

std::string ResultCache::record_path(const std::string& spec_hash,
                                     std::size_t cell_index) const {
  return spec_dir(spec_hash) + "/cell-" + std::to_string(cell_index) +
         ".json";
}

std::string ResultCache::encode_record(const exp::CellTask& task,
                                       const AggregateResult& result) {
  std::string out = "{\"cache_version\":";
  out += std::to_string(kCacheSchemaVersion);
  out += ",\"model_version\":" + std::to_string(kModelVersion);
  out += ",\"spec_hash\":\"" + json::escape(task.spec_hash) + "\"";
  out += ",\"cell\":" + std::to_string(task.cell.index);
  out += ",\"protocol\":\"" + json::escape(result.protocol) + "\"";
  out += ",\"k\":" + std::to_string(result.k);
  out += ",\"runs\":" + std::to_string(result.runs);
  out += ",\"incomplete_runs\":" + std::to_string(result.incomplete_runs);
  out += ',';
  append_summary(out, "makespan", result.makespan);
  out += ',';
  append_summary(out, "ratio", result.ratio);
  out += ",\"latency_p50\":" + format_double_shortest(result.latency_p50);
  out += ",\"latency_p95\":" + format_double_shortest(result.latency_p95);
  out += ",\"latency_p99\":" + format_double_shortest(result.latency_p99);
  out += ",\"energy_mean\":" + format_double_shortest(result.energy_mean);
  out += ",\"energy_max\":" + format_double_shortest(result.energy_max);
  out += "}\n";
  return out;
}

AggregateResult ResultCache::decode_record(const std::string& text,
                                           const std::string& spec_hash,
                                           std::size_t cell_index,
                                           const std::string& source) {
  json::Value record;
  try {
    record = json::parse(text);
  } catch (const ContractViolation& e) {
    throw ContractViolation(source + ": corrupt cache record — " +
                            e.what());
  }
  UCR_REQUIRE(record.is_object(),
              source + ": corrupt cache record — not a JSON object");
  const json::Value* version = record.find("cache_version");
  UCR_REQUIRE(version != nullptr,
              source + ": corrupt cache record — no cache_version");
  UCR_REQUIRE(version->as_u64() == kCacheSchemaVersion,
              source + ": stale cache record (cache_version " +
                  version->number_token() + ", this build reads " +
                  std::to_string(kCacheSchemaVersion) +
                  ") — delete the cache directory to recompute");
  const json::Value* model = record.find("model_version");
  UCR_REQUIRE(model != nullptr && model->as_u64() == kModelVersion,
              source + ": cache record of another model version (this "
                       "build simulates model " +
                  std::to_string(kModelVersion) +
                  "), stored at this version's address (corrupt or "
                  "misplaced record)");
  UCR_REQUIRE(record.at("spec_hash").as_string() == spec_hash,
              source + ": cache record spec_hash disagrees with its "
                       "address (corrupt or misplaced record)");
  UCR_REQUIRE(record.at("cell").as_u64() == cell_index,
              source + ": cache record cell index disagrees with its "
                       "address (corrupt or misplaced record)");
  AggregateResult result;
  result.protocol = record.at("protocol").as_string();
  result.k = record.at("k").as_u64();
  result.runs = record.at("runs").as_u64();
  result.incomplete_runs = record.at("incomplete_runs").as_u64();
  result.makespan = parse_summary(record.at("makespan"), source);
  result.ratio = parse_summary(record.at("ratio"), source);
  result.latency_p50 = record.at("latency_p50").as_double();
  result.latency_p95 = record.at("latency_p95").as_double();
  result.latency_p99 = record.at("latency_p99").as_double();
  result.energy_mean = record.at("energy_mean").as_double();
  result.energy_max = record.at("energy_max").as_double();
  return result;
}

std::optional<AggregateResult> ResultCache::load(const std::string& spec_hash,
                                                 std::size_t cell_index) {
  const std::string path = record_path(spec_hash, cell_index);
  std::ifstream in(path);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  UCR_REQUIRE(!in.bad(), path + ": cannot read cache record");
  return decode_record(text.str(), spec_hash, cell_index, path);
}

void ResultCache::store(const exp::CellTask& task,
                        const AggregateResult& result) {
  const fs::path dir = spec_dir(task.spec_hash);
  std::error_code ec;
  fs::create_directories(dir, ec);
  UCR_REQUIRE(!ec, "cannot create cache directory '" + dir.string() +
                       "': " + ec.message());
  // Dot-prefixed temp in the record's own directory (rename must not
  // cross filesystems), unique per process; readers only ever see the
  // complete record appear under its final name.
  const fs::path tmp =
      dir / (".cell-" + std::to_string(task.cell.index) + ".tmp." +
             std::to_string(::getpid()));
  const fs::path final_path =
      dir / ("cell-" + std::to_string(task.cell.index) + ".json");
  {
    std::ofstream out(tmp, std::ios::trunc);
    UCR_REQUIRE(out.is_open(),
                "cannot write cache record '" + tmp.string() + "'");
    out << encode_record(task, result);
    out.flush();
    UCR_REQUIRE(out.good(),
                "failed writing cache record '" + tmp.string() + "'");
  }
  fs::rename(tmp, final_path, ec);
  if (ec) {
    fs::remove(tmp);
    throw ContractViolation("cannot publish cache record '" +
                            final_path.string() + "': " + ec.message());
  }
}

std::size_t ResultCache::cell_count(const std::string& spec_hash) const {
  const fs::path dir = spec_dir(spec_hash);
  std::error_code ec;
  std::size_t count = 0;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("cell-", 0) == 0 &&
        name.size() > 10 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      ++count;
    }
  }
  return count;
}

}  // namespace ucr::svc
