#include "util/failpoint.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

#include "util/checksum.h"
#include "util/thread_annotations.h"

namespace dmc {
namespace fail {

namespace {

// Trigger kinds for an armed site.
enum class TriggerKind { kNth, kFromNth, kProbability };

struct Arm {
  Mode mode = Mode::kOff;
  TriggerKind trigger = TriggerKind::kFromNth;
  uint64_t n = 1;        // for kNth / kFromNth (1-based)
  double probability = 0.0;
};

struct Registry {
  Mutex mu;
  std::map<std::string, Arm> arms DMC_GUARDED_BY(mu);
  std::map<std::string, SiteStats> stats DMC_GUARDED_BY(mu);
  uint64_t seed DMC_GUARDED_BY(mu) = 0;
  uint64_t total_fires DMC_GUARDED_BY(mu) = 0;
  std::string spec DMC_GUARDED_BY(mu);
};

std::atomic<bool> g_enabled{false};
std::once_flag g_env_once;

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Deterministic per-(seed, site, hit) coin flip.
bool CoinFlip(uint64_t seed, const char* site, uint64_t hit, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const uint64_t r = SplitMix64(seed ^ Fnv1a(site) ^ (hit * 0x9E37ULL));
  return static_cast<double>(r) <
         p * static_cast<double>(UINT64_MAX);
}

Status ConfigureLocked(Registry& reg, const std::string& spec)
    DMC_REQUIRES(reg.mu);

// One-time pickup of DMC_FAILPOINTS so library users (tests, benches)
// get injection without any CLI plumbing.
void InitFromEnvOnce() {
  std::call_once(g_env_once, [] {
    const char* env = std::getenv("DMC_FAILPOINTS");
    if (env == nullptr || *env == '\0') return;
    Registry& reg = GetRegistry();
    MutexLock lock(reg.mu);
    // A malformed env spec must not crash the host process; it simply
    // stays disabled (Configure reports the error to CLI users).
    (void)ConfigureLocked(reg, env);
  });
}

bool ParseMode(const std::string& word, Mode* mode) {
  if (word == "error") *mode = Mode::kError;
  else if (word == "enospc") *mode = Mode::kNoSpace;
  else if (word == "alloc") *mode = Mode::kAlloc;
  else if (word == "short") *mode = Mode::kShortWrite;
  else if (word == "dataloss") *mode = Mode::kDataLoss;
  else if (word == "off") *mode = Mode::kOff;
  else return false;
  return true;
}

bool ParseTrigger(const std::string& word, Arm* arm) {
  if (word.empty()) return false;
  if (word[0] == 'p') {
    char* end = nullptr;
    const double p = std::strtod(word.c_str() + 1, &end);
    if (end == nullptr || *end != '\0' || !(p >= 0.0) || p > 1.0) {
      return false;
    }
    arm->trigger = TriggerKind::kProbability;
    arm->probability = p;
    return true;
  }
  const bool from = word.back() == '+';
  const std::string digits = from ? word.substr(0, word.size() - 1) : word;
  if (digits.empty()) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  arm->trigger = from ? TriggerKind::kFromNth : TriggerKind::kNth;
  arm->n = std::strtoull(digits.c_str(), nullptr, 10);
  return arm->n >= 1;
}

Status ConfigureLocked(Registry& reg, const std::string& spec)
    DMC_REQUIRES(reg.mu) {
  std::map<std::string, Arm> arms;
  uint64_t seed = 0;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find_first_of(";,", pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      if (pos > spec.size()) break;
      continue;
    }
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return InvalidArgumentError("failpoint spec entry '" + entry +
                                  "' is not site=mode[@trigger]");
    }
    const std::string site = entry.substr(0, eq);
    const std::string rhs = entry.substr(eq + 1);
    if (site == "seed") {
      seed = std::strtoull(rhs.c_str(), nullptr, 10);
      continue;
    }
    Arm arm;
    const size_t at = rhs.find('@');
    const std::string mode_word = rhs.substr(0, at);
    if (!ParseMode(mode_word, &arm.mode)) {
      return InvalidArgumentError("unknown failpoint mode '" + mode_word +
                                  "' in '" + entry + "'");
    }
    if (at != std::string::npos) {
      if (!ParseTrigger(rhs.substr(at + 1), &arm)) {
        return InvalidArgumentError("bad failpoint trigger in '" + entry +
                                    "'");
      }
    }
    if (arm.mode != Mode::kOff) arms[site] = arm;
  }
  reg.arms = std::move(arms);
  reg.stats.clear();
  reg.seed = seed;
  reg.total_fires = 0;
  reg.spec = spec;
  g_enabled.store(true, std::memory_order_release);
  return Status::OK();
}

}  // namespace

bool Enabled() {
  InitFromEnvOnce();
  return g_enabled.load(std::memory_order_acquire);
}

Status Configure(const std::string& spec) {
  InitFromEnvOnce();
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  const Status st = ConfigureLocked(reg, spec);
  if (!st.ok()) g_enabled.store(false, std::memory_order_release);
  return st;
}

void Disable() {
  InitFromEnvOnce();
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  reg.arms.clear();
  reg.stats.clear();
  reg.total_fires = 0;
  reg.spec.clear();
  g_enabled.store(false, std::memory_order_release);
}

std::string CurrentSpec() {
  if (!Enabled()) return "";
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  return reg.spec;
}

Mode Fire(const char* site) {
  if (!Enabled()) return Mode::kOff;
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  if (!g_enabled.load(std::memory_order_relaxed)) return Mode::kOff;
  SiteStats& stats = reg.stats[site];
  const uint64_t hit = ++stats.hits;  // 1-based
  const auto it = reg.arms.find(site);
  if (it == reg.arms.end()) return Mode::kOff;
  const Arm& arm = it->second;
  bool fires = false;
  switch (arm.trigger) {
    case TriggerKind::kNth:
      fires = hit == arm.n;
      break;
    case TriggerKind::kFromNth:
      fires = hit >= arm.n;
      break;
    case TriggerKind::kProbability:
      fires = CoinFlip(reg.seed, site, hit, arm.probability);
      break;
  }
  if (!fires) return Mode::kOff;
  ++stats.fires;
  ++reg.total_fires;
  return arm.mode;
}

Status StatusFor(Mode mode, const char* site) {
  const std::string at = std::string(" at ") + site;
  switch (mode) {
    case Mode::kOff:
      return Status::OK();
    case Mode::kError:
      return IOError("injected I/O error" + at);
    case Mode::kNoSpace:
      return ResourceExhaustedError("injected ENOSPC (no space left)" + at);
    case Mode::kAlloc:
      return ResourceExhaustedError("injected allocation failure" + at);
    case Mode::kShortWrite:
      return IOError("injected short write" + at);
    case Mode::kDataLoss:
      return DataLossError("injected data loss" + at);
  }
  return InternalError("unknown failpoint mode" + at);
}

Status InjectStatus(const char* site) {
  return StatusFor(Fire(site), site);
}

bool IsInjectedFault(const Status& status) {
  return !status.ok() && status.message().rfind("injected ", 0) == 0;
}

std::vector<std::string> SitesSeen() {
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  std::vector<std::string> sites;
  sites.reserve(reg.stats.size());
  for (const auto& [site, stats] : reg.stats) sites.push_back(site);
  return sites;
}

SiteStats GetSiteStats(const std::string& site) {
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  const auto it = reg.stats.find(site);
  return it == reg.stats.end() ? SiteStats{} : it->second;
}

uint64_t TotalFires() {
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  return reg.total_fires;
}

}  // namespace fail
}  // namespace dmc
