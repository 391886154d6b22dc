#include "exp/sink.hpp"

#include <ostream>

#include "common/json.hpp"

namespace ucr::exp {

void CsvStreamSink::begin(const ExperimentPlan& plan) {
  spec_hash_ = plan.spec_hash;
  if (plan.shard.index == 0) {
    write_aggregate_header(*os_);
  }
}

void CsvStreamSink::emit(const CellInfo& cell, const AggregateResult& result) {
  (void)cell;
  AggregateRow row = AggregateRow::from(result);
  row.spec_hash = spec_hash_;
  write_aggregate_row(*os_, row);
  os_->flush();
}

void CsvStreamSink::end() { os_->flush(); }

std::string json_escape(const std::string& text) {
  return json::escape(text);
}

void JsonlSink::begin(const ExperimentPlan& plan) {
  spec_hash_ = plan.spec_hash;
}

void JsonlSink::emit(const CellInfo& cell, const AggregateResult& result) {
  const AggregateRow row = AggregateRow::from(result);
  std::ostream& os = *os_;
  os << "{\"cell\":" << cell.index                                   //
     << ",\"spec_hash\":\"" << spec_hash_ << "\""                    //
     << ",\"protocol\":\"" << json_escape(row.protocol) << "\""      //
     << ",\"k\":" << row.k                                           //
     << ",\"arrival\":\"" << json_escape(cell.arrival.label()) << "\""
     << ",\"channel\":\"" << json_escape(cell.channel.label()) << "\""
     << ",\"engine\":\"" << engine_mode_name(cell.engine) << "\""
     << ",\"runs\":" << row.runs                                     //
     << ",\"incomplete_runs\":" << row.incomplete_runs;
  for (const RowColumn& column : row_columns()) {
    os << ",\"" << column.json_name << "\":" << column.text(row);
  }
  os << "}\n";
  if (flush_each_row_) os.flush();
}

void JsonlSink::end() { os_->flush(); }

void MemorySink::emit(const CellInfo& cell, const AggregateResult& result) {
  cells_.push_back(cell);
  results_.push_back(result);
}

}  // namespace ucr::exp
