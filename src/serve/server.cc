#include "serve/server.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "observe/metrics.h"
#include "observe/trace.h"
#include "serve/net_socket.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace dmc {

namespace {

using serve::FrameBuffer;
using serve::Op;

/// One accepted connection's state machine. Owned (and touched) by the
/// event thread only.
constexpr size_t kReadChunkBytes = 64 * 1024;
/// Read bursts per readable event, so one fire-hosing client cannot
/// starve the rest of the poll set.
constexpr int kMaxReadsPerEvent = 8;

}  // namespace

struct RuleServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  int fd;
  /// Frames are capped at kMaxFramePayloadBytes, as in the client.
  FrameBuffer in;
  std::string out;
  size_t out_offset = 0;
  /// Last moment this connection either had no pending output or made
  /// write progress; the stall reaper measures against it.
  std::chrono::steady_clock::time_point stall_start =
      std::chrono::steady_clock::now();
  /// Flush `out`, then close (set after a protocol error so the error
  /// reply still reaches the peer).
  bool closing = false;
  /// Close without further ceremony (EOF, IO error, injected fault).
  bool dead = false;

  size_t pending_out() const { return out.size() - out_offset; }
};

RuleServer::RuleServer(ServeOptions options)
    : options_(std::move(options)),
      miner_(options_.mining, options_.window_rows) {}

RuleServer::~RuleServer() {
  Shutdown();
  net::CloseFd(event_wake_r_);
  net::CloseFd(event_wake_w_);
  net::CloseFd(ingest_wake_r_);
  net::CloseFd(ingest_wake_w_);
}

Status RuleServer::SeedFromMatrix(const BinaryMatrix& initial) {
  if (started_) {
    return FailedPreconditionError(
        "SeedFromMatrix must run before Start: the ingest thread owns "
        "the miner afterwards");
  }
  DMC_ASSIGN_OR_RETURN(
      miner_, WindowedImplicationMiner::FromBatchMine(
                  initial, options_.mining, options_.window_rows));
  index_.Publish(miner_.rules());
  MutexLock lock(mu_);
  counters_.rows_mined = miner_.num_rows();
  counters_.snapshots_published += 1;
  logical_rows_ = miner_.num_rows();
  return Status::OK();
}

Status RuleServer::Start() {
  if (started_) return FailedPreconditionError("server already started");
  DMC_ASSIGN_OR_RETURN(
      listen_fd_, net::ListenTcp(options_.bind_address, options_.port,
                                 options_.backlog));
  Status st = Status::OK();
  do {
    auto port = net::LocalPort(listen_fd_);
    if (!port.ok()) {
      st = port.status();
      break;
    }
    port_ = *port;
    st = net::SetNonBlocking(listen_fd_);
    if (!st.ok()) break;
    auto event_pipe = net::CreateWakePipe();
    if (!event_pipe.ok()) {
      st = event_pipe.status();
      break;
    }
    event_wake_r_ = event_pipe->first;
    event_wake_w_ = event_pipe->second;
    auto ingest_pipe = net::CreateWakePipe();
    if (!ingest_pipe.ok()) {
      st = ingest_pipe.status();
      break;
    }
    ingest_wake_r_ = ingest_pipe->first;
    ingest_wake_w_ = ingest_pipe->second;
  } while (false);
  if (!st.ok()) {
    net::CloseFd(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  started_ = true;
  event_thread_ = std::thread(&RuleServer::EventLoop, this);
  ingest_thread_ = std::thread(&RuleServer::IngestLoop, this);
  DMC_LOG(Info) << "dmc_serve listening on " << options_.bind_address << ":"
                << port_;
  return Status::OK();
}

void RuleServer::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (event_wake_w_ >= 0) net::WakeUp(event_wake_w_, 's');
}

void RuleServer::Wait() {
  if (!started_ || joined_) return;
  if (event_thread_.joinable()) event_thread_.join();
  // The event thread's last act is the ingest quit marker; joining it
  // first guarantees no batch can arrive after the drain below.
  if (ingest_thread_.joinable()) ingest_thread_.join();
  joined_ = true;
}

void RuleServer::Shutdown() {
  if (!started_ || joined_) return;
  RequestShutdown();
  Wait();
}

serve::ServeStats RuleServer::StatsSnapshot() const {
  MutexLock lock(mu_);
  return StatsLocked();
}

serve::ServeStats RuleServer::StatsLocked() const {
  serve::ServeStats stats = counters_;
  stats.pending_batches = pending_.size();
  const std::shared_ptr<const RuleIndexSnapshot> snap = index_.snapshot();
  stats.generation = snap->generation();
  stats.num_rules = snap->size();
  return stats;
}

void RuleServer::Count(const char* name, uint64_t delta) {
  if (options_.metrics != nullptr) options_.metrics->IncrCounter(name, delta);
}

void RuleServer::HandleRequest(const serve::Request& request,
                               Connection* conn) {
  {
    MutexLock lock(mu_);
    ++counters_.requests_served;
  }
  Count("dmc.serve.requests");
  switch (request.op) {
    case Op::kQueryByAntecedent:
    case Op::kQueryByConsequent:
    case Op::kTopK: {
      // One shared_ptr acquire pins an immutable snapshot; publishes
      // swap the pointer without touching what this request reads.
      const std::shared_ptr<const RuleIndexSnapshot> snap = index_.snapshot();
      std::vector<ImplicationRule> rules;
      if (request.op == Op::kQueryByAntecedent) {
        rules = snap->QueryByAntecedent(request.arg);
      } else if (request.op == Op::kQueryByConsequent) {
        rules = snap->QueryByConsequent(request.arg);
      } else {
        rules = snap->TopK(request.arg);
      }
      conn->out +=
          serve::EncodeRulesReply(request.op, snap->generation(), rules);
      break;
    }
    case Op::kStats: {
      serve::ServeStats stats;
      {
        MutexLock lock(mu_);
        stats = StatsLocked();
      }
      conn->out += serve::EncodeStatsReply(stats);
      break;
    }
    case Op::kAppend: {
      BinaryMatrix batch = BinaryMatrix::FromRows(request.append_num_columns,
                                                  request.append_rows);
      uint64_t pending = 0;
      {
        MutexLock lock(mu_);
        pending_.push_back(PendingOp{std::move(batch), 0});
        pending = pending_.size();
        counters_.pending_batches = pending;
        logical_rows_ += request.append_rows.size();
        if (options_.window_rows > 0 &&
            logical_rows_ > options_.window_rows) {
          logical_rows_ = options_.window_rows;  // auto-slide trims it
        }
      }
      net::WakeUp(ingest_wake_w_, 'b');
      Count("dmc.serve.append_batches");
      Count("dmc.serve.append_rows", request.append_rows.size());
      conn->out += serve::EncodeAppendReply(pending);
      break;
    }
    case Op::kEvict: {
      uint64_t pending = 0;
      uint64_t held = 0;
      bool rejected = false;
      {
        MutexLock lock(mu_);
        if (request.evict_rows > logical_rows_) {
          ++counters_.protocol_errors;
          rejected = true;
          held = logical_rows_;
        } else {
          logical_rows_ -= request.evict_rows;
          pending_.push_back(PendingOp{BinaryMatrix(), request.evict_rows});
          pending = pending_.size();
          counters_.pending_batches = pending;
        }
      }
      if (rejected) {
        // A hostile over-eviction poisons trust in the stream the same
        // way an unparseable frame does: reply, then close.
        Count("dmc.serve.protocol_errors");
        conn->out += serve::EncodeErrorReply(
            Op::kEvict,
            InvalidArgumentError(
                "evict of " + std::to_string(request.evict_rows) +
                " rows exceeds the " + std::to_string(held) +
                " rows the window holds"));
        conn->closing = true;
        break;
      }
      net::WakeUp(ingest_wake_w_, 'b');
      Count("dmc.serve.evict_requests");
      conn->out += serve::EncodeEvictReply(pending);
      break;
    }
    case Op::kError:
      break;  // unreachable: DecodeRequestPayload rejects kError
  }
}

bool RuleServer::ProcessFrames(Connection* conn) {
  std::string payload;
  for (;;) {
    switch (conn->in.Next(&payload)) {
      case FrameBuffer::Poll::kNeedMore:
        return true;
      case FrameBuffer::Poll::kBadFrame: {
        {
          MutexLock lock(mu_);
          ++counters_.protocol_errors;
        }
        Count("dmc.serve.protocol_errors");
        conn->out += serve::EncodeErrorReply(
            Op::kError,
            InvalidArgumentError("protocol: frame length out of bounds"));
        conn->closing = true;
        return true;
      }
      case FrameBuffer::Poll::kFrame:
        break;
    }
    const StatusOr<serve::Request> request =
        serve::DecodeRequestPayload(payload);
    if (!request.ok()) {
      {
        MutexLock lock(mu_);
        ++counters_.protocol_errors;
      }
      Count("dmc.serve.protocol_errors");
      conn->out += serve::EncodeErrorReply(Op::kError, request.status());
      conn->closing = true;
      return true;
    }
    HandleRequest(*request, conn);
    if (conn->closing) return true;
  }
}

void RuleServer::EventLoop() {
  std::vector<std::unique_ptr<Connection>> conns;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  std::vector<char> read_buf(kReadChunkBytes);

  auto record_io_error = [this](const char* counter) {
    {
      MutexLock lock(mu_);
      ++counters_.io_errors;
    }
    Count(counter);
  };

  // Drains as much pending output as the socket accepts right now.
  // Returns false when the connection died writing.
  auto flush_out = [&](Connection* conn) -> bool {
    while (conn->pending_out() > 0) {
      if (fail::Enabled() &&
          !fail::InjectStatus("serve.write").ok()) {
        record_io_error("dmc.serve.write_errors");
        return false;
      }
      const StatusOr<int64_t> w =
          net::WriteSome(conn->fd, conn->out.data() + conn->out_offset,
                         conn->pending_out());
      if (!w.ok()) {
        record_io_error("dmc.serve.write_errors");
        return false;
      }
      if (*w == net::kWouldBlock) return true;
      conn->out_offset += static_cast<size_t>(*w);
      conn->stall_start = std::chrono::steady_clock::now();
      Count("dmc.serve.bytes_written", static_cast<uint64_t>(*w));
    }
    conn->out.clear();
    conn->out_offset = 0;
    return true;
  };

  const auto stall_timeout =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              std::max(options_.write_stall_timeout_seconds, 0.0)));
  constexpr auto kAcceptErrorBackoff = std::chrono::milliseconds(200);
  // Epoch-initialized: no backoff until an accept actually fails.
  std::chrono::steady_clock::time_point accept_backoff_until{};

  int listen_fd = listen_fd_;
  for (;;) {
    if (!draining && shutdown_requested_.load(std::memory_order_acquire)) {
      draining = true;
      net::CloseFd(listen_fd);
      listen_fd = -1;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               options_.drain_timeout_seconds));
    }
    const auto now = std::chrono::steady_clock::now();
    if (draining) {
      const bool past_deadline = now >= drain_deadline;
      for (auto& conn : conns) {
        if (conn->pending_out() == 0 || past_deadline) conn->dead = true;
      }
    }
    if (stall_timeout.count() > 0) {
      // Reap connections whose peer stopped reading: with output
      // pending, POLLOUT never fires and backpressure pauses reads, so
      // no event will ever touch them again — without this sweep each
      // one pins its buffer (and a max_connections slot) forever.
      for (auto& conn : conns) {
        if (conn->pending_out() == 0) {
          conn->stall_start = now;
        } else if (!conn->dead && now - conn->stall_start >= stall_timeout) {
          conn->dead = true;
          record_io_error("dmc.serve.write_stalls");
        }
      }
    }

    // Sweep connections that finished (flushed + closing) or died.
    const size_t before = conns.size();
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Connection>& c) {
                                 const bool done =
                                     c->dead || (c->closing &&
                                                 c->pending_out() == 0);
                                 if (done) net::CloseFd(c->fd);
                                 return done;
                               }),
                conns.end());
    if (conns.size() != before) {
      MutexLock lock(mu_);
      counters_.connections_active = conns.size();
    }
    if (draining && conns.empty()) break;

    std::vector<pollfd> fds;
    // Parallel map: fds[i] belongs to conns[conn_of[i]]; SIZE_MAX for
    // the wakeup pipe / listener entries.
    std::vector<size_t> conn_of;
    fds.push_back(pollfd{event_wake_r_, POLLIN, 0});
    conn_of.push_back(SIZE_MAX);
    // While backing off after an accept failure the listener stays out
    // of the poll set: a persistent failure (e.g. EMFILE) leaves it
    // readable, and polling it would turn the loop into a busy-spin.
    const bool poll_listener = listen_fd >= 0 && now >= accept_backoff_until;
    if (poll_listener) {
      fds.push_back(pollfd{listen_fd, POLLIN, 0});
      conn_of.push_back(SIZE_MAX);
    }
    const size_t listen_slot = poll_listener ? 1 : SIZE_MAX;
    for (size_t i = 0; i < conns.size(); ++i) {
      Connection* conn = conns[i].get();
      short events = 0;
      const bool paused =
          conn->pending_out() > options_.max_output_buffer_bytes;
      if (!conn->closing && !draining && !paused) events |= POLLIN;
      if (conn->pending_out() > 0) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back(pollfd{conn->fd, events, 0});
      conn_of.push_back(i);
    }

    const int timeout_ms = draining ? 50 : 500;
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0) continue;  // EINTR: just rebuild and re-poll

    if ((fds[0].revents & POLLIN) != 0) {
      (void)net::DrainWakePipe(event_wake_r_, 's');
      // The shutdown flag is authoritative; the byte is only a wakeup.
    }

    if (listen_slot != SIZE_MAX && (fds[listen_slot].revents & POLLIN) != 0) {
      for (;;) {
        const StatusOr<int> accepted = net::AcceptConn(listen_fd);
        if (!accepted.ok()) {
          record_io_error("dmc.serve.accept_errors");
          accept_backoff_until =
              std::chrono::steady_clock::now() + kAcceptErrorBackoff;
          break;
        }
        if (*accepted == net::kWouldBlock) break;
        const int fd = *accepted;
        if (fail::Enabled() &&
            !fail::InjectStatus("serve.accept").ok()) {
          // Injected accept failure: this connection degrades, the
          // listener keeps running.
          net::CloseFd(fd);
          record_io_error("dmc.serve.accept_errors");
          continue;
        }
        if (conns.size() >= options_.max_connections) {
          net::CloseFd(fd);
          Count("dmc.serve.connections_rejected");
          continue;
        }
        if (!net::SetNonBlocking(fd).ok()) {
          net::CloseFd(fd);
          record_io_error("dmc.serve.accept_errors");
          continue;
        }
        conns.push_back(std::make_unique<Connection>(fd));
        {
          MutexLock lock(mu_);
          ++counters_.connections_accepted;
          counters_.connections_active = conns.size();
        }
        Count("dmc.serve.connections_accepted");
      }
    }

    for (size_t slot = 0; slot < fds.size(); ++slot) {
      const size_t ci = conn_of[slot];
      if (ci == SIZE_MAX) continue;
      Connection* conn = conns[ci].get();
      const short revents = fds[slot].revents;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (revents & POLLIN) == 0) {
        conn->dead = true;
        continue;
      }
      if ((revents & POLLIN) != 0) {
        if (fail::Enabled() &&
            !fail::InjectStatus("serve.read").ok()) {
          record_io_error("dmc.serve.read_errors");
          conn->dead = true;
          continue;
        }
        bool got_eof = false;
        for (int burst = 0; burst < kMaxReadsPerEvent; ++burst) {
          const StatusOr<int64_t> r =
              net::ReadSome(conn->fd, read_buf.data(), read_buf.size());
          if (!r.ok()) {
            record_io_error("dmc.serve.read_errors");
            conn->dead = true;
            break;
          }
          if (*r == net::kWouldBlock) break;
          if (*r == 0) {
            got_eof = true;
            break;
          }
          Count("dmc.serve.bytes_read", static_cast<uint64_t>(*r));
          conn->in.Append(read_buf.data(), static_cast<size_t>(*r));
          if (static_cast<int64_t>(read_buf.size()) != *r) break;
        }
        if (!conn->dead) {
          (void)ProcessFrames(conn);
          if (!flush_out(conn)) conn->dead = true;
        }
        if (got_eof && !conn->dead && conn->pending_out() == 0) {
          conn->dead = true;
        } else if (got_eof) {
          // Flush the remaining replies (e.g. the protocol-error reply
          // racing the peer's half-close), then let the sweep close.
          conn->closing = true;
        }
        continue;
      }
      if ((revents & POLLOUT) != 0) {
        if (!flush_out(conn)) conn->dead = true;
      }
    }
  }

  for (auto& conn : conns) net::CloseFd(conn->fd);
  net::CloseFd(listen_fd);
  {
    MutexLock lock(mu_);
    counters_.connections_active = 0;
  }
  // Last act: no more appends can arrive, so the ingest thread can
  // drain its queue and exit.
  net::WakeUp(ingest_wake_w_, 'q');
}

void RuleServer::IngestLoop() {
  bool quit = false;
  for (;;) {
    pollfd p{ingest_wake_r_, POLLIN, 0};
    // The 200 ms heartbeat is belt-and-braces: every enqueue writes the
    // pipe, but a lost wakeup must degrade to latency, not a wedge.
    (void)::poll(&p, 1, 200);
    if (net::DrainWakePipe(ingest_wake_r_, 'q')) quit = true;

    for (;;) {
      PendingOp op;
      {
        MutexLock lock(mu_);
        if (pending_.empty()) break;
        op = std::move(pending_.front());
        pending_.pop_front();
        counters_.pending_batches = pending_.size();
      }
      if (op.evict_rows > 0) {
        ScopedSpan span(options_.trace, "serve/ingest_evict");
        IncrEvictStats estats;
        const Status st = miner_.EvictBatch(op.evict_rows, &estats);
        if (!st.ok()) {
          DMC_LOG(Warning) << "serve ingest: EvictBatch failed, evict "
                           << "dropped: " << st;
          // Acked at enqueue time, so the loss is surfaced through its
          // own kStats counter, mirroring batches_dropped.
          {
            MutexLock lock(mu_);
            ++counters_.evicts_dropped;
          }
          Count("dmc.serve.ingest_errors");
          continue;
        }
        {
          MutexLock lock(mu_);
          ++counters_.batches_evicted;
          counters_.rows_evicted += estats.rows_evicted;
          counters_.rows_mined = miner_.num_rows();
        }
        Count("dmc.serve.batches_evicted");
      } else {
        ScopedSpan span(options_.trace, "serve/ingest_batch");
        IncrAppendStats astats;
        IncrEvictStats slide;
        const Status st = miner_.AppendBatch(op.batch, &astats, &slide);
        if (!st.ok()) {
          DMC_LOG(Warning) << "serve ingest: AppendBatch failed, batch "
                           << "dropped: " << st;
          // The batch was already acked at enqueue time, so the loss is
          // surfaced through its own kStats counter — clients watching
          // batches_dropped can detect that acked data never landed.
          {
            MutexLock lock(mu_);
            ++counters_.batches_dropped;
          }
          Count("dmc.serve.ingest_errors");
          continue;
        }
        {
          MutexLock lock(mu_);
          ++counters_.batches_ingested;
          counters_.rows_ingested += op.batch.num_rows();
          counters_.rows_mined = miner_.num_rows();
          if (slide.rows_evicted > 0) {
            // The window auto-slide is an eviction too; fold it into
            // the same counters an explicit kEvict feeds.
            ++counters_.batches_evicted;
            counters_.rows_evicted += slide.rows_evicted;
          }
        }
        Count("dmc.serve.batches_ingested");
      }

      if (fail::Enabled() &&
          !fail::InjectStatus("serve.publish").ok()) {
        // Injected publish failure: the snapshot stays stale for one
        // batch; the rules are still in the miner and ride the next
        // publish.
        {
          MutexLock lock(mu_);
          ++counters_.io_errors;
        }
        Count("dmc.serve.publish_errors");
        continue;
      }
      {
        ScopedSpan publish_span(options_.trace, "serve/publish");
        index_.Publish(miner_.rules());
      }
      {
        MutexLock lock(mu_);
        ++counters_.snapshots_published;
      }
      Count("dmc.serve.snapshots_published");
    }

    if (quit) {
      MutexLock lock(mu_);
      if (pending_.empty()) break;
    }
  }
}

}  // namespace dmc
