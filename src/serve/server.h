// RuleServer — the long-running rule-serving daemon (DESIGN §5.7).
//
// Architecture: two threads plus the caller's.
//
//   * The *event thread* owns every socket. A poll(2) loop multiplexes
//     the listening socket, a self-pipe (wakeups/shutdown), and one
//     per-connection state machine each: non-blocking reads feed a
//     FrameBuffer, complete requests are answered immediately, replies
//     queue in a per-connection output buffer drained by non-blocking
//     writes (POLLOUT only while data is pending; reading pauses while
//     a slow consumer's buffer is over the backpressure cap; a
//     connection whose peer stops reading altogether is reaped after
//     write_stall_timeout_seconds without write progress).
//     Queries resolve against the current immutable RuleIndexSnapshot
//     via one shared_ptr acquire — the event thread never waits on the
//     miner, so readers are wait-free with respect to publishes.
//   * The *ingest thread* owns the WindowedImplicationMiner. Append and
//     evict requests are acknowledged as soon as the op is parked on
//     the ingest queue; the ingest thread pops one op at a time, runs
//     AppendBatch / EvictBatch, and atomically Publishes a fresh
//     snapshot. Exactly one publish per op, in arrival order, so
//     generation g always serves the rules of "seed + first
//     (g - seed_generation) ops" — the invariant the differential
//     battery checks. Evict row counts are validated against the
//     server's logical row tally (rows after every queued op applies)
//     at request time: an over-eviction gets an error reply and the
//     connection closes, and the op is never queued. With
//     ServeOptions::window_rows set, every append auto-evicts its
//     overflow, so the server mines a count-bounded sliding window.
//
// Shutdown (RequestShutdown — async-signal-safe — or Shutdown): the
// listener closes first, pending replies flush (bounded by
// drain_timeout_seconds), connections close, then the ingest thread
// drains every queued batch, publishes, and exits.
//
// Observability: dmc.serve.* counters and serve/* trace spans flow
// through the registry/sink in ServeOptions. Failpoint sites
// serve.accept, serve.read, serve.write, serve.publish inject
// per-connection (resp. per-batch) failures for the fault drills —
// an injected error degrades one connection or one publish, never the
// process.

#ifndef DMC_SERVE_SERVER_H_
#define DMC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dmc_options.h"
#include "incr/incr_miner.h"
#include "incr/window_miner.h"
#include "matrix/binary_matrix.h"
#include "rules/rule_index.h"
#include "serve/protocol.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dmc {

class MetricsRegistry;
class TraceSink;

struct ServeOptions {
  /// 0 = pick an ephemeral port (read it back via RuleServer::port()).
  uint16_t port = 0;
  std::string bind_address = "127.0.0.1";
  int backlog = 128;
  /// Connections beyond this are accepted and immediately closed.
  size_t max_connections = 256;
  /// Reading from a connection pauses while its pending output exceeds
  /// this (resumes once the client drains).
  size_t max_output_buffer_bytes = 8u << 20;
  /// How long a graceful drain may spend flushing pending replies.
  double drain_timeout_seconds = 5.0;
  /// A connection with pending output that makes no write progress for
  /// this long is closed (its peer stopped reading: POLLOUT never
  /// fires and backpressure pauses reads, so nothing else would ever
  /// reap it or its buffered output). Non-positive disables the reaper.
  double write_stall_timeout_seconds = 30.0;
  /// Mining configuration for the ingest-side incremental miner; its
  /// policy.observe hooks also apply to the mining work.
  ImplicationMiningOptions mining;
  /// Sliding-window row budget: appends past this auto-evict the
  /// overflow from the front (0 = unbounded; kEvict still works).
  uint64_t window_rows = 0;
  /// dmc.serve.* counters land here (null = disabled).
  MetricsRegistry* metrics = nullptr;
  /// serve/* spans land here (null = disabled).
  TraceSink* trace = nullptr;
};

class RuleServer {
 public:
  explicit RuleServer(ServeOptions options);
  ~RuleServer();

  RuleServer(const RuleServer&) = delete;
  RuleServer& operator=(const RuleServer&) = delete;

  /// Batch-mines `initial` and publishes the result as generation 1.
  /// Must be called before Start (the miner has no owner thread yet).
  [[nodiscard]] Status SeedFromMatrix(const BinaryMatrix& initial);

  /// Binds, listens, and spawns the event + ingest threads. The server
  /// is answering queries when this returns OK.
  [[nodiscard]] Status Start();

  /// The port actually bound (valid after Start).
  uint16_t port() const { return port_; }

  /// Initiates a graceful drain. Async-signal-safe (one atomic store
  /// plus one pipe write) — the SIGTERM handler in tools/dmc_serve.cc
  /// calls exactly this.
  void RequestShutdown();

  /// Blocks until both threads exit (after RequestShutdown, or a fatal
  /// listener error).
  void Wait();

  /// RequestShutdown + Wait. Idempotent.
  void Shutdown();

  /// The serving index; tests compare wire replies against direct
  /// snapshot queries on this object.
  const RuleIndex& index() const { return index_; }

  /// Consistent copy of the serve counters (same fields kStats serves).
  serve::ServeStats StatsSnapshot() const;

 private:
  struct Connection;

  void EventLoop();
  void IngestLoop();

  /// Decodes and answers every complete frame buffered on `conn`.
  /// Returns false when the connection must close (protocol error or
  /// injected fault).
  bool ProcessFrames(Connection* conn);
  /// Appends the reply for one decoded request to conn->out.
  void HandleRequest(const serve::Request& request, Connection* conn);

  serve::ServeStats StatsLocked() const DMC_REQUIRES(mu_);
  void Count(const char* name, uint64_t delta = 1);

  const ServeOptions options_;

  // Immutable after Start().
  int listen_fd_ = -1;
  int event_wake_r_ = -1;
  int event_wake_w_ = -1;
  int ingest_wake_r_ = -1;
  int ingest_wake_w_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;
  bool joined_ = false;

  std::atomic<bool> shutdown_requested_{false};

  RuleIndex index_;
  /// Owned by the caller before Start, by the ingest thread after.
  WindowedImplicationMiner miner_;

  /// One queued ingest op: an append batch or a prefix eviction.
  struct PendingOp {
    BinaryMatrix batch;       ///< append payload (empty for evicts)
    uint64_t evict_rows = 0;  ///< > 0 marks an evict op
  };

  mutable Mutex mu_;
  /// Ops parked by the event thread, applied by the ingest thread.
  std::deque<PendingOp> pending_ DMC_GUARDED_BY(mu_);
  /// Rows the miner will hold once every queued op has applied — the
  /// value kEvict requests are validated against, so an evict racing
  /// queued appends is judged against the rows it will actually see.
  uint64_t logical_rows_ DMC_GUARDED_BY(mu_) = 0;
  /// The counters kStats serves (generation/num_rules come from the
  /// snapshot at reply time instead).
  serve::ServeStats counters_ DMC_GUARDED_BY(mu_);

  std::thread event_thread_;
  std::thread ingest_thread_;
};

}  // namespace dmc

#endif  // DMC_SERVE_SERVER_H_
