// Project-invariant static checker ("dmc_lint") — token-based rule
// engine (v2).
//
// Lints the DMC source tree for invariants the compiler cannot (or does
// not, on every toolchain) enforce. Rules run over a real C++ token
// stream (tools/lint_lexer.h) rather than substring scans, so raw
// string literals, line-spliced comments, encoding prefixes and digit
// separators can never produce phantom matches.
//
//   include-guard     every header has #pragma once or a matching
//                     #ifndef/#define guard near the top
//   banned-rand       no rand()/srand() — randomized code must go through
//                     dmc::Rng (util/random.h) so runs are reproducible
//   banned-stdio      no std::cout/std::cerr/printf-family output in
//                     library code — use DMC_LOG (util/logging.h); the
//                     logging backend and tools/ CLIs are whitelisted
//   banned-file-stream  no std::ofstream/fopen in library code — file
//                     exports go through src/observe (stats_export.h);
//                     src/observe and tools/ CLIs are whitelisted
//   banned-raw-unlink no raw unlink/rename/remove (std::, :: or
//                     unqualified) — file replacement goes through
//                     util/atomic_io.h so outputs are never torn;
//                     std::filesystem::remove stays legal for deliberate
//                     deletes, and util/atomic_io.* is whitelisted
//   banned-hot-path-map  no std::map/std::unordered_map (or multimap
//                     variants) in the hot-path mining files
//                     (HotPathFiles(): the scan pass, the merge kernels
//                     and the candidate table) — node-based containers
//                     allocate per element and chase pointers; use dense
//                     vectors with a touched-list reset instead
//   banned-raw-posting  no std::vector<std::vector<RowId>> (or the raw
//                     uint32_t spelling) outside src/postings/ — nested
//                     row-id vectors are the hand-rolled posting-list
//                     shape that used to be duplicated across the
//                     matrix, the counter arena and the incremental
//                     miner; per-column postings go through
//                     PostingContainer (postings/posting_container.h).
//                     Row-major vector<vector<ColumnId>> data stays
//                     legal; matrix/row_order.cc's radix buckets and
//                     datagen/ are whitelisted
//   banned-ruleset-mutation  no mutable_rules()/mutable_pairs() calls
//                     outside src/rules/ and src/incr/ — mined rule sets
//                     are immutable downstream so the incremental
//                     engine's snapshots and the serving index cannot
//                     drift from the counts they were built on
//   discarded-status  a call to a Status/StatusOr-returning function used
//                     as a bare statement (result ignored)
//   banned-raw-socket no raw socket/accept/recv/send calls (:: or
//                     unqualified) outside src/serve/net_* — the BSD
//                     socket primitives live behind the Status-returning
//                     wrappers in serve/net_socket.h, the same way
//                     atomic_io.cc owns unlink/rename; member calls and
//                     namespace-qualified wrappers stay legal
//   banned-raw-process  no raw fork/vfork/execv*/execl*/waitpid/wait4/
//                     kill calls (:: or unqualified) outside
//                     src/shard/process_* — pid lifetimes, signal
//                     delivery and EINTR reaping live behind the
//                     wrappers in shard/process_control.h, the same way
//                     serve/net_* owns sockets; member calls and
//                     namespace-qualified wrappers stay legal
//   banned-raw-lock   no bare .lock()/.unlock() member calls outside
//                     src/util/ — critical sections must use
//                     dmc::MutexLock (util/thread_annotations.h) so
//                     clang -Wthread-safety can see them
//   unannotated-mutex a member or variable of a std:: mutex type is
//                     invisible to thread-safety analysis; declare it as
//                     dmc::Mutex, or reference it from a
//                     DMC_GUARDED_BY/DMC_REQUIRES annotation
//   atomic-ordering-audit  in the audited hot-path files
//                     (AtomicAuditedFiles()) every named
//                     atomic operation (.load/.store/.fetch_*/...)
//                     must spell an explicit std::memory_order —
//                     a defaulted seq_cst is treated as "not thought
//                     about", not "strongest therefore safe"
//
// Suppression: append `// dmc_lint: ignore` to a line to skip it, or put
// `dmc_lint: ignore-file` anywhere in a file to skip the whole file.
//
// The engine is a library so the lint test suite can drive individual
// rules against fixture files; the `dmc_lint` binary wraps LintTree().

#ifndef DMC_TOOLS_LINT_LIB_H_
#define DMC_TOOLS_LINT_LIB_H_

#include <set>
#include <string>
#include <vector>

namespace dmc {
namespace lint {

/// One rule violation at a specific source line.
struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// Returns `content` with comments and string/char literals blanked out
/// (replaced by spaces, newlines preserved) so token scans cannot match
/// inside them. Built on the lexer, so raw strings and line-spliced
/// comments are blanked correctly. Exposed for tests.
std::string ScrubSource(const std::string& content);

/// Harvests the names of functions declared to return Status or
/// StatusOr<...> from source text (token scan; literals and comments
/// can never contribute names).
std::set<std::string> CollectStatusFunctions(const std::string& content);

/// Lints one file's content. `path` selects which rules apply (header
/// rules for .h, stdio rules outside the logging backend, audited-TU
/// rules by suffix, ...); `status_functions` is the registry used by
/// the discarded-status rule.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content,
                              const std::set<std::string>& status_functions);

/// Walks `root` (a directory or a single file), harvests the
/// Status-function registry from every source file, then lints every
/// .h/.cc/.cpp file. Findings are sorted by (file, line).
std::vector<Finding> LintTree(const std::string& root);

/// Path suffixes, relative to src/, of the files banned-hot-path-map
/// and atomic-ordering-audit cover. A test checks that each one exists,
/// so a rename cannot silently drop a file from its rule.
const std::vector<std::string>& HotPathFiles();
const std::vector<std::string>& AtomicAuditedFiles();

/// "file:line: [rule] message" for diagnostics.
std::string FormatFinding(const Finding& f);

}  // namespace lint
}  // namespace dmc

#endif  // DMC_TOOLS_LINT_LIB_H_
