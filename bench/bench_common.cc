#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define DMC_BENCH_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "datagen/dictionary_gen.h"
#include "datagen/linkgraph_gen.h"
#include "datagen/weblog_gen.h"
#include "matrix/column_stats.h"
#include "observe/json_writer.h"
#include "util/atomic_io.h"

namespace dmc {
namespace bench {

cli::Flags CheckFlags(int argc, char** argv,
                      std::initializer_list<std::span<const cli::FlagSpec>>
                          tables) {
  cli::Flags flags(argc, argv, /*first=*/1);
  const std::string malformed = flags.Check(tables);
  if (!malformed.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], malformed.c_str());
    std::exit(2);
  }
  return flags;
}

bool WriteBenchJson(const std::vector<BenchRecord>& records,
                    const std::string& path) {
  if (path.empty()) return true;
  std::ostringstream buffer;
  {
    JsonWriter w(buffer, /*indent=*/2);
    w.BeginObject();
    w.Key("schema_version");
    w.Value(1);
    w.Key("records");
    w.BeginArray();
    for (const BenchRecord& r : records) {
      w.BeginObject();
      w.Key("bench");
      w.Value(r.bench);
      w.Key("params");
      w.Value(r.params);
      w.Key("seconds");
      w.Value(r.seconds);
      w.Key("rows_per_sec");
      w.Value(r.rows_per_sec);
      w.Key("peak_counter_bytes");
      w.Value(static_cast<uint64_t>(r.peak_counter_bytes));
      w.Key("instructions");
      w.Value(r.instructions);
      w.Key("cache_misses");
      w.Value(r.cache_misses);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  buffer << '\n';
  const Status s = AtomicWriteFile(path, buffer.str());
  if (!s.ok()) {
    std::fprintf(stderr, "bench json write failed: %s\n",
                 s.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "wrote bench json to %s\n", path.c_str());
  return true;
}

namespace {

/// rows_per_sec recorded for `bench` in the baseline JSON text, or -1
/// when absent. A targeted string scan is enough here: the file is
/// WriteBenchJson output, whose key order is fixed.
double BaselineRowsPerSec(const std::string& json, const std::string& bench) {
  const std::string name = "\"bench\": \"" + bench + "\"";
  const size_t at = json.find(name);
  if (at == std::string::npos) return -1.0;
  const std::string key = "\"rows_per_sec\": ";
  const size_t val = json.find(key, at);
  if (val == std::string::npos) return -1.0;
  return std::atof(json.c_str() + val + key.size());
}

}  // namespace

bool MeetsBaseline(const std::vector<BenchRecord>& records,
                   const std::string& baseline_path,
                   const std::function<bool(const BenchRecord&)>& gated) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "baseline: cannot open %s\n", baseline_path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  PrintSubHeader("regression gate vs " + baseline_path);
  int compared = 0;
  int failures = 0;
  for (const BenchRecord& r : records) {
    if (!gated(r)) continue;
    const double base = BaselineRowsPerSec(json, r.bench);
    if (base <= 0.0) {
      std::printf("  %-32s  no baseline record; skipped\n", r.bench.c_str());
      continue;
    }
    ++compared;
    const double ratio = r.rows_per_sec / base;
    const bool ok = ratio >= 0.9;
    std::printf("  %-32s  %10.0f vs %10.0f rows/sec  (%.2fx)  %s\n",
                r.bench.c_str(), r.rows_per_sec, base, ratio,
                ok ? "ok" : "REGRESSED");
    if (!ok) ++failures;
  }
  if (compared == 0) {
    std::fprintf(stderr, "baseline: no comparable records in %s\n",
                 baseline_path.c_str());
    return false;
  }
  if (failures > 0) {
    std::fprintf(stderr, "throughput regressed >10%% vs %s\n",
                 baseline_path.c_str());
    return false;
  }
  return true;
}

#ifdef DMC_BENCH_HAVE_PERF_EVENT
namespace {

int OpenHardwareCounter(uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = group_fd < 0 ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                  /*cpu=*/-1, group_fd, /*flags=*/0));
}

uint64_t ReadCounter(int fd) {
  if (fd < 0) return 0;
  uint64_t value = 0;
  if (read(fd, &value, sizeof(value)) != sizeof(value)) return 0;
  return value;
}

}  // namespace

PerfCounters::PerfCounters() {
  instructions_fd_ =
      OpenHardwareCounter(PERF_COUNT_HW_INSTRUCTIONS, /*group_fd=*/-1);
  if (instructions_fd_ < 0) return;
  // Grouped with the leader so both cover the exact same interval.
  cache_misses_fd_ =
      OpenHardwareCounter(PERF_COUNT_HW_CACHE_MISSES, instructions_fd_);
}

PerfCounters::~PerfCounters() {
  if (cache_misses_fd_ >= 0) close(cache_misses_fd_);
  if (instructions_fd_ >= 0) close(instructions_fd_);
}

void PerfCounters::Start() {
  instructions_ = 0;
  cache_misses_ = 0;
  if (instructions_fd_ < 0) return;
  ioctl(instructions_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(instructions_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

void PerfCounters::Stop() {
  if (instructions_fd_ < 0) return;
  ioctl(instructions_fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  instructions_ = ReadCounter(instructions_fd_);
  cache_misses_ = ReadCounter(cache_misses_fd_);
}
#else  // !DMC_BENCH_HAVE_PERF_EVENT
PerfCounters::PerfCounters() = default;
PerfCounters::~PerfCounters() = default;
void PerfCounters::Start() {
  instructions_ = 0;
  cache_misses_ = 0;
}
void PerfCounters::Stop() {}
#endif  // DMC_BENCH_HAVE_PERF_EVENT

uint32_t Scaled(double base, double scale, uint32_t min) {
  return std::max(min, static_cast<uint32_t>(base * scale));
}

Dataset MakeWlog(double scale) {
  WebLogOptions o;
  o.num_clients = Scaled(40000, scale);
  o.num_sections = 40;
  o.num_urls = Scaled(8000, scale, o.num_sections);
  o.num_crawlers = 5;
  o.max_pages_per_client = 300;
  return Dataset{"Wlog", GenerateWebLog(o), 218518, 74957};
}

Dataset MakeWlogP(double scale) {
  Dataset d = MakeWlog(scale);
  d.name = "WlogP";
  d.paper_rows = 203185;
  d.paper_columns = 13087;
  d.matrix = SupportPruneColumns(d.matrix, 11).matrix;
  return d;
}

Dataset MakePlinkF(double scale) {
  LinkGraphOptions o;
  o.num_pages = Scaled(40000, scale, /*min=*/4);
  return Dataset{"plinkF", GenerateLinkGraph(o), 173338, 697824};
}

Dataset MakePlinkT(double scale) {
  Dataset d = MakePlinkF(scale);
  d.name = "plinkT";
  d.paper_rows = 695280;
  d.paper_columns = 688747;
  d.matrix = d.matrix.Transposed();
  return d;
}

Dataset MakeNewsSet(double scale) {
  NewsOptions o;
  o.num_docs = Scaled(40000, scale);
  o.num_topics = 60;
  o.background_vocab = Scaled(15000, scale);
  return Dataset{"News", GenerateNews(o).matrix, 84672, 170372};
}

Dataset MakeDicD(double scale) {
  DictionaryOptions o;
  o.num_head_words = Scaled(18000, scale);
  o.num_definition_words = Scaled(8000, scale);
  o.num_synonym_groups = Scaled(500, scale, /*min=*/0);
  return Dataset{"dicD", GenerateDictionary(o).matrix, 45418, 96540};
}

std::vector<Dataset> MakeAllDatasets(double scale) {
  std::vector<Dataset> out;
  out.push_back(MakeWlog(scale));
  out.push_back(MakeWlogP(scale));
  out.push_back(MakePlinkF(scale));
  out.push_back(MakePlinkT(scale));
  out.push_back(MakeNewsSet(scale));
  out.push_back(MakeDicD(scale));
  return out;
}

Dataset MakeNewsP(double scale, NewsData* news_out) {
  // Tuned so the support window leaves thousands of columns — the regime
  // where a-priori's quadratic counter array becomes the bottleneck, as
  // in the paper's 9518-column NewsP.
  NewsOptions o;
  o.num_docs = Scaled(16000, scale);
  o.num_topics = 30;
  o.background_vocab = Scaled(12000, scale);
  o.background_zipf_theta = 0.65;
  o.background_words_min = 20;
  o.background_words_max = 300;
  o.background_len_alpha = 1.5;
  NewsData news = GenerateNews(o);
  // The paper's window: min support 0.2% of docs, max 20% of docs.
  const uint64_t min_sup =
      static_cast<uint64_t>(0.002 * news.matrix.num_rows()) + 1;
  const uint64_t max_sup =
      static_cast<uint64_t>(0.20 * news.matrix.num_rows());
  Dataset d{"NewsP",
            SupportPruneColumns(news.matrix, min_sup, max_sup).matrix,
            16392, 9518};
  if (news_out != nullptr) *news_out = std::move(news);
  return d;
}

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void PrintSubHeader(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

}  // namespace bench
}  // namespace dmc
