#include "common.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

}  // namespace

std::string SpanLog::ToJsonLines() const {
  std::string out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
           "\",\"start_s\":" + Number(s.start_s) +
           ",\"end_s\":" + Number(s.end_s) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"op\":" + std::to_string(s.op_id) + "}\n";
  }
  return out;
}

std::string MetricSink::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + Number(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
