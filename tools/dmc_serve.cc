// dmc_serve — the networked rule-serving daemon and its client CLI.
//
//   dmc_serve serve  --input=FILE [--port=0] [--bind=127.0.0.1]
//                    [--minconf=0.9] [--drain-timeout=5]
//                    [--window-rows=N] [--failpoints=SPEC]
//                    [--metrics-out=FILE]
//       Batch-mines FILE, publishes it as generation 1 and serves the
//       wire protocol (src/serve/protocol.h) until SIGTERM/SIGINT,
//       which triggers a graceful drain. --window-rows bounds the
//       mined window: appends past N rows auto-evict the oldest.
//       --port=0 picks an ephemeral port; the bound address is
//       announced on stdout as
//           listening on HOST:PORT
//       so scripts (tools/check.sh) can parse it.
//
//   dmc_serve query  --port=N [--host=127.0.0.1]
//                    (--lhs=COL | --rhs=COL | --top=K)
//       Prints the matching rules of the server's current snapshot,
//       one "LHS => RHS conf=C hits=H/N" line each.
//
//   dmc_serve append --port=N [--host=127.0.0.1] --input=FILE
//       Sends FILE's rows as one append batch; prints the server's
//       ingest-queue depth at acknowledgment time.
//
//   dmc_serve evict  --port=N [--host=127.0.0.1] --rows=N
//       Evicts the server's oldest N rows from the mined window;
//       prints the ingest-queue depth at acknowledgment time.
//
//   dmc_serve stats  --port=N [--host=127.0.0.1]
//       Prints the server's counters, one "name value" line each.
//
// The client commands also take --timeout=SECS (default 10). Each
// command reads only the flags listed for it above (tables below, parsed
// by tools/cli_flags.h as dmc_cli's are). Any other argument, a --port
// above 65535, a --lhs, --rhs or --top above 2^32-1, a --rows or
// --window-rows that is not a row count, a --minconf outside (0, 1], a
// --drain-timeout or --timeout that is not a positive number of seconds
// or a --failpoints spec fail::Configure refuses exits 2 with a message
// naming the argument, before any socket opens.

#include <signal.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "matrix/matrix_io.h"
#include "observe/metrics.h"
#include "observe/stats_export.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tools/cli_flags.h"
#include "util/failpoint.h"

namespace dmc {
namespace {

using cli::FlagKind;
using cli::FlagSpec;
using cli::Flags;

// The flags each command reads; Flags::Check refuses every other
// argument.
constexpr FlagSpec kServeFlags[] = {
    {"input", FlagKind::kText},
    {"port", FlagKind::kUint, UINT16_MAX},
    {"bind", FlagKind::kText},
    {"minconf", FlagKind::kFraction},
    {"drain-timeout", FlagKind::kSeconds},
    {"window-rows", FlagKind::kUint, UINT64_MAX},
    {"failpoints", FlagKind::kText},
    {"metrics-out", FlagKind::kText},
};
constexpr FlagSpec kClientFlags[] = {  // query, append, evict, stats
    {"port", FlagKind::kUint, UINT16_MAX},
    {"host", FlagKind::kText},
    {"timeout", FlagKind::kSeconds},
};
constexpr FlagSpec kQueryFlags[] = {
    {"lhs", FlagKind::kUint, UINT32_MAX},
    {"rhs", FlagKind::kUint, UINT32_MAX},
    {"top", FlagKind::kUint, UINT32_MAX},
};
constexpr FlagSpec kAppendFlags[] = {
    {"input", FlagKind::kText},
};
constexpr FlagSpec kEvictFlags[] = {
    {"rows", FlagKind::kUint, UINT64_MAX},
};

int Usage() {
  std::fprintf(stderr,
               "usage: dmc_serve <serve|query|append|evict|stats> "
               "[--flag=value ...]\n(see the header of tools/dmc_serve.cc "
               "for the full flag list)\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "dmc_serve: %s\n", status.ToString().c_str());
  return 1;
}

// The signal handler may only touch this pointer; RequestShutdown is
// async-signal-safe by contract (one atomic store + one pipe write).
std::atomic<RuleServer*> g_server{nullptr};

void HandleTermSignal(int) {
  RuleServer* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestShutdown();
}

int RunServe(const Flags& flags) {
  const std::string input = flags.Get("input");
  if (input.empty()) {
    std::fprintf(stderr, "dmc_serve serve: --input=FILE is required\n");
    return 2;
  }
  const std::string failpoints = flags.Get("failpoints");
  if (!failpoints.empty()) {
    const Status st = fail::Configure(failpoints);
    if (!st.ok()) {
      std::fprintf(stderr, "dmc_serve serve: --failpoints: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  }

  auto matrix = ReadMatrixTextFile(input);
  if (!matrix.ok()) return Fail(matrix.status());

  MetricsRegistry metrics;
  ServeOptions options;
  options.port = static_cast<uint16_t>(flags.GetUint("port", 0));
  options.bind_address = flags.Get("bind", "127.0.0.1");
  options.drain_timeout_seconds = flags.GetDouble("drain-timeout", 5.0);
  options.mining.min_confidence = flags.GetDouble("minconf", 0.9);
  options.window_rows = flags.GetUint("window-rows", 0);
  options.metrics = &metrics;

  RuleServer server(std::move(options));
  Status st = server.SeedFromMatrix(*matrix);
  if (!st.ok()) return Fail(st);
  st = server.Start();
  if (!st.ok()) return Fail(st);

  g_server.store(&server, std::memory_order_release);
  struct sigaction action = {};
  action.sa_handler = HandleTermSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  const serve::ServeStats seeded = server.StatsSnapshot();
  std::printf("seeded generation %llu with %llu rules\n",
              (unsigned long long)seeded.generation,
              (unsigned long long)seeded.num_rules);
  std::printf("listening on %s:%u\n", flags.Get("bind", "127.0.0.1").c_str(),
              server.port());
  std::fflush(stdout);

  server.Wait();
  g_server.store(nullptr, std::memory_order_release);

  const serve::ServeStats final_stats = server.StatsSnapshot();
  std::printf("drained: %llu requests, %llu batches, generation %llu\n",
              (unsigned long long)final_stats.requests_served,
              (unsigned long long)final_stats.batches_ingested,
              (unsigned long long)final_stats.generation);

  const std::string metrics_out = flags.Get("metrics-out");
  if (!metrics_out.empty()) {
    MetricsReport report;
    report.tool = "dmc_serve";
    report.dataset = input;
    report.metrics = &metrics;
    const Status write_st = ExportMetricsJsonFile(report, metrics_out);
    if (!write_st.ok()) return Fail(write_st);
  }
  return 0;
}

StatusOr<serve::RuleClient> Connect(const Flags& flags) {
  const uint16_t port = static_cast<uint16_t>(flags.GetUint("port", 0));
  if (port == 0) {
    return InvalidArgumentError("--port=N is required for client commands");
  }
  serve::RuleClient client;
  DMC_RETURN_IF_ERROR(
      client.Connect(flags.Get("host", "127.0.0.1"), port,
                     flags.GetDouble("timeout", 10.0)));
  return client;
}

void PrintRules(const serve::Reply& reply) {
  std::printf("generation %llu, %zu rules\n",
              (unsigned long long)reply.generation, reply.rules.size());
  for (const ImplicationRule& r : reply.rules) {
    std::printf("%u => %u conf=%.4f hits=%u/%u\n", r.lhs, r.rhs,
                r.confidence(), r.hits(), r.lhs_ones);
  }
}

int RunQuery(const Flags& flags) {
  auto client = Connect(flags);
  if (!client.ok()) return Fail(client.status());
  StatusOr<serve::Reply> reply =
      InvalidArgumentError("one of --lhs / --rhs / --top is required");
  if (flags.Has("lhs")) {
    reply = client->QueryByAntecedent(
        static_cast<ColumnId>(flags.GetUint("lhs", 0)));
  } else if (flags.Has("rhs")) {
    reply = client->QueryByConsequent(
        static_cast<ColumnId>(flags.GetUint("rhs", 0)));
  } else if (flags.Has("top")) {
    reply = client->TopK(static_cast<uint32_t>(flags.GetUint("top", 10)));
  }
  if (!reply.ok()) return Fail(reply.status());
  PrintRules(*reply);
  return 0;
}

int RunAppend(const Flags& flags) {
  const std::string input = flags.Get("input");
  if (input.empty()) {
    std::fprintf(stderr, "dmc_serve append: --input=FILE is required\n");
    return 2;
  }
  auto matrix = ReadMatrixTextFile(input);
  if (!matrix.ok()) return Fail(matrix.status());
  auto client = Connect(flags);
  if (!client.ok()) return Fail(client.status());

  std::vector<std::vector<ColumnId>> rows(matrix->num_rows());
  for (RowId r = 0; r < matrix->num_rows(); ++r) {
    const auto row = matrix->Row(r);
    rows[r].assign(row.begin(), row.end());
  }
  const StatusOr<uint64_t> depth =
      client->AppendRows(matrix->num_columns(), rows);
  if (!depth.ok()) return Fail(depth.status());
  std::printf("appended %u rows, ingest queue depth %llu\n",
              matrix->num_rows(), (unsigned long long)*depth);
  return 0;
}

int RunEvict(const Flags& flags) {
  if (!flags.Has("rows")) {
    std::fprintf(stderr, "dmc_serve evict: --rows=N is required\n");
    return 2;
  }
  auto client = Connect(flags);
  if (!client.ok()) return Fail(client.status());
  const uint64_t rows = flags.GetUint("rows", 0);
  const StatusOr<uint64_t> depth = client->EvictRows(rows);
  if (!depth.ok()) return Fail(depth.status());
  std::printf("evicting %llu rows, ingest queue depth %llu\n",
              (unsigned long long)rows, (unsigned long long)*depth);
  return 0;
}

int RunStats(const Flags& flags) {
  auto client = Connect(flags);
  if (!client.ok()) return Fail(client.status());
  const StatusOr<serve::ServeStats> stats = client->Stats();
  if (!stats.ok()) return Fail(stats.status());
  struct Row {
    const char* name;
    uint64_t value;
  };
  const Row rows[] = {
      {"generation", stats->generation},
      {"num_rules", stats->num_rules},
      {"rows_mined", stats->rows_mined},
      {"batches_ingested", stats->batches_ingested},
      {"rows_ingested", stats->rows_ingested},
      {"pending_batches", stats->pending_batches},
      {"snapshots_published", stats->snapshots_published},
      {"requests_served", stats->requests_served},
      {"connections_accepted", stats->connections_accepted},
      {"connections_active", stats->connections_active},
      {"protocol_errors", stats->protocol_errors},
      {"io_errors", stats->io_errors},
      {"batches_dropped", stats->batches_dropped},
      {"batches_evicted", stats->batches_evicted},
      {"rows_evicted", stats->rows_evicted},
      {"evicts_dropped", stats->evicts_dropped},
  };
  for (const Row& row : rows) {
    std::printf("%s %llu\n", row.name, (unsigned long long)row.value);
  }
  return 0;
}

// Checks the arguments against `tables`, then runs `command`; exit 2,
// before any socket opens, on the first argument the tables refuse.
int RunChecked(const std::string& command, const Flags& flags,
               std::initializer_list<std::span<const FlagSpec>> tables,
               int (*run)(const Flags&)) {
  const std::string malformed = flags.Check(tables);
  if (!malformed.empty()) {
    std::fprintf(stderr, "dmc_serve %s: %s\n", command.c_str(),
                 malformed.c_str());
    return 2;
  }
  return run(flags);
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  if (command == "serve") {
    return RunChecked(command, flags, {kServeFlags}, RunServe);
  }
  if (command == "query") {
    return RunChecked(command, flags, {kClientFlags, kQueryFlags}, RunQuery);
  }
  if (command == "append") {
    return RunChecked(command, flags, {kClientFlags, kAppendFlags},
                      RunAppend);
  }
  if (command == "evict") {
    return RunChecked(command, flags, {kClientFlags, kEvictFlags}, RunEvict);
  }
  if (command == "stats") {
    return RunChecked(command, flags, {kClientFlags}, RunStats);
  }
  return Usage();
}

}  // namespace
}  // namespace dmc

int main(int argc, char** argv) { return dmc::Run(argc, argv); }
