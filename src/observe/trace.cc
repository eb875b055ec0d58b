#include "observe/trace.h"

#include <algorithm>
#include <tuple>

#include "observe/json_writer.h"

namespace dmc {

TraceSink::TraceSink() : epoch_(Clock::now()) {}

int64_t TraceSink::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

void TraceSink::AddCompleteEvent(TraceEvent event) {
  MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceSink::Snapshot() const {
  MutexLock lock(mu_);
  return events_;
}

void TraceSink::WriteChromeJson(std::ostream& os) const {
  std::vector<TraceEvent> events = Snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.ts_micros, a.tid) <
                            std::tie(b.ts_micros, b.tid);
                   });
  JsonWriter w(os, /*indent=*/2);
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.Value("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const TraceEvent& e : events) {
    // Chrome's trace viewer needs ph/pid/tid/ts/dur.
    w.BeginObject();
    w.Key("name");
    w.Value(e.name);
    w.Key("ph");
    w.Value("X");
    w.Key("pid");
    w.Value(1);
    w.Key("tid");
    w.Value(e.tid);
    w.Key("ts");
    w.Value(e.ts_micros);
    w.Key("dur");
    w.Value(e.dur_micros);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

}  // namespace dmc
