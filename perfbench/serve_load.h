// The serve phase of the repository benchmark: an in-process RuleServer
// on loopback, mining a count-bounded sliding window, driven by three
// client connections —
//
//   * an open-loop appender sending fixed-size batches on a fixed
//     schedule (each append also evicts as many rows from the front);
//   * a closed-loop query client (antecedent, consequent and top-k mix);
//   * a closed-loop watcher polling kStats on a fixed cadence, which
//     sees when each batch's generation becomes visible.
//
// The phase runs in slices so the benchmark can interleave it with the
// mining paths. The traced run replays the same append sequence
// in-process on WindowedImplicationMiner + RuleIndex to split the
// serve-side latencies into layers; the server's own observe hooks
// stay off throughout.

#ifndef DMC_PERFBENCH_SERVE_LOAD_H_
#define DMC_PERFBENCH_SERVE_LOAD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/random.h"

namespace perfbench {

struct ServeConfig {
  uint64_t window_rows = 4000;
  double min_confidence = 0.6;
  uint64_t batch_rows = 100;
  double batches_per_second = 10.0;
  double watcher_period_s = 0.001;
};

/// Samples pooled over every slice of a run.
struct ServeSamples {
  std::vector<double> query_ms;
  std::vector<double> append_ack_ms;
  std::vector<double> visible_lag_ms;
  std::vector<double> generator_late_ms;
  uint64_t pending_batches_max = 0;
};

class ServeLoad {
 public:
  /// `stream` must outlive this object.
  ServeLoad(const RowStream& stream, ServeConfig config, uint64_t seed);
  ~ServeLoad();

  ServeLoad(const ServeLoad&) = delete;
  ServeLoad& operator=(const ServeLoad&) = delete;

  /// Seeds the server with the stream's window, starts it and connects
  /// the three clients.
  [[nodiscard]] dmc::Status Start();

  /// Runs the three generators for `seconds`, then waits until the
  /// slice's last batch is visible. Records in `outcome` one
  /// "serve.append" operation per batch and one "serve.query" and one
  /// "serve.watch" operation for the slice.
  void RunSlice(double seconds, ServeSamples* samples, Outcome* outcome);

  /// "" when the final snapshot equals MineImplications over the rows the
  /// window now holds, at the generation of the last append, and the
  /// server reports no dropped op and no I/O or protocol error; else
  /// what differs.
  std::string FinalError() const;

  /// Closes the clients and drains the server. Idempotent.
  void Stop();

  uint64_t snapshots_published() const;

 private:
  const RowStream& stream_;
  const ServeConfig config_;
  dmc::Rng query_rng_;
  std::unique_ptr<dmc::RuleServer> server_;
  dmc::serve::RuleClient appender_;
  dmc::serve::RuleClient querier_;
  dmc::serve::RuleClient watcher_;
  uint64_t seed_generation_ = 0;
  uint64_t batches_sent_ = 0;
  uint64_t last_query_generation_ = 0;
  /// The rows the server's window holds once every acked batch applied.
  std::deque<std::vector<dmc::ColumnId>> window_;
};

/// Per-layer numbers of the serve phase from an in-process replay.
struct ReplayResult {
  std::vector<double> append_ms;   ///< AppendBatch, append part
  std::vector<double> evict_ms;    ///< the automatic slide
  std::vector<double> publish_ms;  ///< RuleIndex::Publish
  std::vector<double> query_us;    ///< one snapshot query
  /// Deterministic work counts summed over the replay.
  std::map<std::string, uint64_t> counts;
  std::string failure;
};

/// Replays the first `batches` append batches of the serve phase on
/// WindowedImplicationMiner + RuleIndex, with `queries_per_batch`
/// snapshot queries after each publish.
ReplayResult ReplayServe(const RowStream& stream, const ServeConfig& config,
                         uint64_t seed, uint64_t batches,
                         uint64_t queries_per_batch, SpanLog* spans);

}  // namespace perfbench

#endif  // DMC_PERFBENCH_SERVE_LOAD_H_
