// Fault-injection registry ("failpoints") for robustness testing.
//
// Engines and I/O helpers mark fallible sites with a stable string name
// and call fail::InjectStatus("site") there. In production the registry
// is disabled and the whole call collapses to one relaxed atomic load.
// Tests (or an operator, via the DMC_FAILPOINTS environment variable or
// dmc_cli --failpoints) arm sites with a spec like
//
//   external.spill.write=error@2;atomic_io.rename=enospc@p0.25;seed=7
//
// and the armed sites then return injected errors — deterministically:
// a probability trigger is a pure function of (seed, site, hit index),
// so a failing run replays bit-for-bit.
//
// Spec grammar (entries separated by ';' or ','):
//   entry   := site '=' mode [ '@' trigger ] | 'seed=' N
//   mode    := error | enospc | alloc | short | dataloss | off
//   trigger := N      fire on the Nth hit only (1-based, once)
//            | N+     fire on every hit from the Nth onward
//            | pX     fire with probability X in [0,1] per hit
//   (no trigger = '1+', i.e. fire on every hit)
// Every N is a decimal count that fits in 64 bits: Configure rejects a
// sign, any other character and overflow.
//
// An empty spec ("") enables *recording only*: every site that is hit
// registers itself (see SitesSeen) but nothing fires. The differential
// fault-sweep test uses this to enumerate the live sites before forcing
// each one in turn.

#ifndef DMC_UTIL_FAILPOINT_H_
#define DMC_UTIL_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dmc {
namespace fail {

/// What an armed site injects when it fires.
enum class Mode {
  kOff = 0,
  /// Generic I/O failure -> StatusCode::kIOError.
  kError,
  /// Disk full -> StatusCode::kResourceExhausted.
  kNoSpace,
  /// Allocation failure -> StatusCode::kResourceExhausted.
  kAlloc,
  /// Short write: the site persists a truncated prefix before failing
  /// (sites that cannot emulate truncation treat it as kError).
  kShortWrite,
  /// Detected corruption -> StatusCode::kDataLoss.
  kDataLoss,
};

/// Hit/fire counters for one site.
struct SiteStats {
  uint64_t hits = 0;
  uint64_t fires = 0;
};

/// True when any spec is active (including record-only). One relaxed
/// atomic load; the intended guard for per-row call sites.
bool Enabled();

/// Arms the registry from a spec (see grammar above). Replaces any
/// previous configuration and resets all counters. Empty spec = record
/// only. Returns kInvalidArgument on a malformed spec (registry is then
/// left disabled).
[[nodiscard]] Status Configure(const std::string& spec);

/// Disarms everything and clears counters and recorded sites.
void Disable();

/// The spec most recently passed to Configure() (or picked up from
/// DMC_FAILPOINTS), verbatim; "" when disabled or record-only. Lets a
/// parent process propagate its injection config to children it spawns
/// (the shard coordinator forwards this via the child environment).
std::string CurrentSpec();

/// Records a hit at `site` and decides whether to fire. Returns kOff
/// when the registry is disabled, the site is not armed, or the trigger
/// does not match this hit.
Mode Fire(const char* site);

/// The Status a fired mode maps to; message starts with "injected" and
/// names the site. kOff maps to OK.
Status StatusFor(Mode mode, const char* site);

/// Fire() + StatusFor() in one call — the common call-site form:
///   DMC_RETURN_IF_ERROR(fail::InjectStatus("external.spill.open"));
[[nodiscard]] Status InjectStatus(const char* site);

/// True iff `status` was produced by an injected failpoint (used by the
/// engines to count dmc.faults.injected without plumbing extra state).
bool IsInjectedFault(const Status& status);

/// Sites hit since the last Configure(), sorted. Includes sites that
/// never fired (record-only runs use this to enumerate coverage).
std::vector<std::string> SitesSeen();

/// Counters for one site (zeros when unknown).
SiteStats GetSiteStats(const std::string& site);

/// Total fires across all sites since the last Configure().
uint64_t TotalFires();

}  // namespace fail
}  // namespace dmc

#endif  // DMC_UTIL_FAILPOINT_H_
