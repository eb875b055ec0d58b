#include "tools/lint_legacy.h"

// NOTE: frozen v1 engine — see lint_legacy.h. Edit lint_lib.cc instead.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

namespace dmc {
namespace lint {
namespace legacy {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool HasExtension(const std::string& path, const char* ext) {
  const size_t n = std::strlen(ext);
  return path.size() >= n && path.compare(path.size() - n, n, ext) == 0;
}

bool IsSourcePath(const std::string& path) {
  return HasExtension(path, ".h") || HasExtension(path, ".cc") ||
         HasExtension(path, ".cpp");
}

// Splits into lines (without trailing '\n'); line i is 1-based line i+1.
std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

// 1-based line number of offset `pos` in `content`.
int LineOf(const std::string& content, size_t pos) {
  return 1 + static_cast<int>(
                 std::count(content.begin(), content.begin() + pos, '\n'));
}

// True when the identifier at [pos, pos+len) is qualified as std::.
// Walks left over an optional `::` and reads the qualifier word.
bool QualifierAllowsBan(const std::string& s, size_t pos) {
  size_t j = pos;
  while (j > 0 && std::isspace(static_cast<unsigned char>(s[j - 1]))) --j;
  if (j < 2 || s[j - 1] != ':' || s[j - 2] != ':') return true;  // unqualified
  j -= 2;
  while (j > 0 && std::isspace(static_cast<unsigned char>(s[j - 1]))) --j;
  size_t end = j;
  while (j > 0 && IsIdentChar(s[j - 1])) --j;
  return s.substr(j, end - j) == "std";  // std::rand banned, Foo::rand not
}

// Index of the matching ')' for the '(' at `open`, or npos.
size_t MatchParen(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

size_t SkipSpace(const std::string& s, size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::string ScrubSource(const std::string& content) {
  std::string out = content;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == quote) {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::set<std::string> CollectStatusFunctions(const std::string& content) {
  const std::string s = ScrubSource(content);
  std::set<std::string> names;
  for (size_t i = 0; i + 6 <= s.size(); ++i) {
    if (s.compare(i, 6, "Status") != 0) continue;
    if (i > 0 && IsIdentChar(s[i - 1])) continue;
    size_t j = i + 6;
    if (j + 2 <= s.size() && s.compare(j, 2, "Or") == 0) {
      j += 2;
      j = SkipSpace(s, j);
      if (j >= s.size() || s[j] != '<') continue;
      int depth = 0;  // skip the (possibly nested) template argument
      while (j < s.size()) {
        if (s[j] == '<') ++depth;
        if (s[j] == '>' && --depth == 0) {
          ++j;
          break;
        }
        ++j;
      }
    } else if (j < s.size() && IsIdentChar(s[j])) {
      continue;  // StatusCode, StatusXyz, ...
    }
    j = SkipSpace(s, j);
    const size_t name_begin = j;
    while (j < s.size() && IsIdentChar(s[j])) ++j;
    if (j == name_begin) continue;
    const std::string name = s.substr(name_begin, j - name_begin);
    j = SkipSpace(s, j);
    if (j < s.size() && s[j] == '(' && name != "operator") {
      names.insert(name);
    }
    i = j;
  }
  return names;
}

namespace {

void CheckIncludeGuard(const std::string& path, const std::string& scrubbed,
                       const std::vector<bool>& suppressed,
                       std::vector<Finding>* findings) {
  if (!HasExtension(path, ".h")) return;
  const auto lines = SplitLines(scrubbed);
  // First two non-blank (post-scrub) lines must be `#pragma once` or a
  // matching #ifndef/#define pair.
  std::vector<std::pair<int, std::string>> significant;
  for (size_t i = 0; i < lines.size() && significant.size() < 2; ++i) {
    const std::string t = Trim(lines[i]);
    if (!t.empty()) significant.emplace_back(static_cast<int>(i + 1), t);
  }
  if (!suppressed.empty() && suppressed[0]) return;
  if (!significant.empty() &&
      significant[0].second.rfind("#pragma once", 0) == 0) {
    return;
  }
  if (significant.size() == 2) {
    const std::string& a = significant[0].second;
    const std::string& b = significant[1].second;
    if (a.rfind("#ifndef ", 0) == 0 && b.rfind("#define ", 0) == 0 &&
        Trim(a.substr(8)) == Trim(b.substr(8)) && !Trim(a.substr(8)).empty()) {
      return;
    }
  }
  findings->push_back(
      {path, 1, "include-guard",
       "header must start with #pragma once or a matching "
       "#ifndef/#define include guard"});
}

void CheckBannedTokens(const std::string& path, const std::string& scrubbed,
                       const std::vector<bool>& suppressed,
                       std::vector<Finding>* findings) {
  struct Ban {
    const char* token;
    bool needs_call;  // must be followed by '('
    const char* rule;
    const char* message;
  };
  static const Ban kBans[] = {
      {"rand", true, "banned-rand",
       "rand() is banned; use dmc::Rng (util/random.h) for reproducibility"},
      {"srand", true, "banned-rand",
       "srand() is banned; seed dmc::Rng explicitly instead"},
      {"printf", true, "banned-stdio",
       "printf in library code is banned; use DMC_LOG (util/logging.h)"},
      {"fprintf", true, "banned-stdio",
       "fprintf in library code is banned; use DMC_LOG (util/logging.h)"},
      {"puts", true, "banned-stdio",
       "puts in library code is banned; use DMC_LOG (util/logging.h)"},
      {"cout", false, "banned-stdio",
       "std::cout in library code is banned; use DMC_LOG (util/logging.h)"},
      {"cerr", false, "banned-stdio",
       "std::cerr in library code is banned; use DMC_LOG (util/logging.h)"},
      {"ofstream", false, "banned-file-stream",
       "opening output streams in library code is banned; route exports "
       "through src/observe (stats_export.h)"},
      {"fopen", true, "banned-file-stream",
       "opening output streams in library code is banned; route exports "
       "through src/observe (stats_export.h)"},
  };
  // The logging backend is the one translation unit allowed to write to
  // stderr directly.
  const bool is_logging_backend =
      path.find("util/logging.") != std::string::npos;
  // The observe export layer is the one library component allowed to open
  // output files; everything else must hand data to it.
  const bool is_observe_export =
      path.find("observe/") != std::string::npos;
  for (const Ban& ban : kBans) {
    if (is_logging_backend &&
        std::string(ban.rule) == "banned-stdio") {
      continue;
    }
    if (is_observe_export &&
        std::string(ban.rule) == "banned-file-stream") {
      continue;
    }
    const size_t len = std::strlen(ban.token);
    size_t pos = 0;
    while ((pos = scrubbed.find(ban.token, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += len;
      if (here > 0 && IsIdentChar(scrubbed[here - 1])) continue;
      if (here + len < scrubbed.size() && IsIdentChar(scrubbed[here + len])) {
        continue;
      }
      if (ban.needs_call) {
        const size_t after = SkipSpace(scrubbed, here + len);
        if (after >= scrubbed.size() || scrubbed[after] != '(') continue;
      }
      if (!QualifierAllowsBan(scrubbed, here)) continue;
      const int line = LineOf(scrubbed, here);
      if (static_cast<size_t>(line - 1) < suppressed.size() &&
          suppressed[line - 1]) {
        continue;
      }
      findings->push_back({path, line, ban.rule, ban.message});
    }
  }
}

// True when the identifier at `pos` is written with an explicit std::
// qualifier (possibly spaced: `std :: map`).
bool IsStdQualified(const std::string& s, size_t pos) {
  size_t j = pos;
  while (j > 0 && std::isspace(static_cast<unsigned char>(s[j - 1]))) --j;
  if (j < 2 || s[j - 1] != ':' || s[j - 2] != ':') return false;
  j -= 2;
  while (j > 0 && std::isspace(static_cast<unsigned char>(s[j - 1]))) --j;
  size_t end = j;
  while (j > 0 && IsIdentChar(s[j - 1])) --j;
  return s.substr(j, end - j) == "std";
}

// The hot-path translation units — the per-row merge loops and their
// kernels — must stay free of node-based associative containers:
// std::map / std::unordered_map allocate per element and chase pointers,
// exactly the behaviour the arena/SoA layout exists to avoid. Dense
// vectors with a touched-list reset are the sanctioned replacement (see
// the bitmap hit-counting phase in streaming_pass.cc).
void CheckHotPathMap(const std::string& path, const std::string& scrubbed,
                     const std::vector<bool>& suppressed,
                     std::vector<Finding>* findings) {
  static const char* kHotPathSuffixes[] = {
      "core/streaming_pass.h", "core/streaming_pass.cc", "core/kernels.cc"};
  bool is_hot_path = false;
  for (const char* suffix : kHotPathSuffixes) {
    const size_t n = std::strlen(suffix);
    if (path.size() >= n && path.compare(path.size() - n, n, suffix) == 0) {
      is_hot_path = true;
      break;
    }
  }
  if (!is_hot_path) return;
  static const char* kTokens[] = {"map", "unordered_map", "multimap",
                                  "unordered_multimap"};
  for (const char* token : kTokens) {
    const size_t len = std::strlen(token);
    size_t pos = 0;
    while ((pos = scrubbed.find(token, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += len;
      if (here > 0 && IsIdentChar(scrubbed[here - 1])) continue;
      if (here + len < scrubbed.size() && IsIdentChar(scrubbed[here + len])) {
        continue;
      }
      // Only the std:: containers are banned; a member `.map(...)` or a
      // project type named map is something else.
      if (!IsStdQualified(scrubbed, here)) continue;
      const int line = LineOf(scrubbed, here);
      if (static_cast<size_t>(line - 1) < suppressed.size() &&
          suppressed[line - 1]) {
        continue;
      }
      findings->push_back(
          {path, line, "banned-hot-path-map",
           "std::map/std::unordered_map are banned in hot-path mining "
           "code; use dense vectors with a touched-list reset (see the "
           "bitmap hit-counting in core/streaming_pass.cc)"});
    }
  }
}

// Bans raw unlink/rename/remove calls (std::, :: or unqualified): file
// replacement must go through util/atomic_io.h so a crash can never
// leave a torn output. std::filesystem::remove stays legal — it is a
// deliberate delete, not a write-replace — and util/atomic_io.* itself
// is the one place allowed to use the primitives.
void CheckRawFileOps(const std::string& path, const std::string& scrubbed,
                     const std::vector<bool>& suppressed,
                     std::vector<Finding>* findings) {
  if (path.find("util/atomic_io.") != std::string::npos) return;
  struct Op {
    const char* token;
    /// `remove` is also the 3-arg <algorithm> erase-remove building
    /// block; only the 1-arg <cstdio> form is a file operation.
    bool one_arg_only;
  };
  static const Op kOps[] = {
      {"unlink", false}, {"rename", false}, {"remove", true}};
  for (const Op& op : kOps) {
    const size_t len = std::strlen(op.token);
    size_t pos = 0;
    while ((pos = scrubbed.find(op.token, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += len;
      if (here > 0 && IsIdentChar(scrubbed[here - 1])) continue;
      if (here + len < scrubbed.size() &&
          IsIdentChar(scrubbed[here + len])) {
        continue;
      }
      const size_t open = SkipSpace(scrubbed, here + len);
      if (open >= scrubbed.size() || scrubbed[open] != '(') continue;
      // Work out the qualifier: std:: and global :: are the raw libc
      // forms; any other namespace (std::filesystem::remove) or a member
      // call (list.remove) is something else entirely.
      size_t q = here;
      while (q > 0 &&
             std::isspace(static_cast<unsigned char>(scrubbed[q - 1]))) {
        --q;
      }
      if (q >= 2 && scrubbed[q - 1] == ':' && scrubbed[q - 2] == ':') {
        size_t e = q - 2;
        while (e > 0 &&
               std::isspace(static_cast<unsigned char>(scrubbed[e - 1]))) {
          --e;
        }
        size_t b = e;
        while (b > 0 && IsIdentChar(scrubbed[b - 1])) --b;
        const std::string qual = scrubbed.substr(b, e - b);
        if (!qual.empty() && qual != "std") continue;
      } else if (q > 0 &&
                 (scrubbed[q - 1] == '.' ||
                  (q >= 2 && scrubbed[q - 1] == '>' &&
                   scrubbed[q - 2] == '-'))) {
        continue;
      }
      if (op.one_arg_only) {
        const size_t close = MatchParen(scrubbed, open);
        if (close == std::string::npos) continue;
        int depth = 0;
        bool multi_arg = false;
        for (size_t i = open; i <= close && !multi_arg; ++i) {
          if (scrubbed[i] == '(') ++depth;
          else if (scrubbed[i] == ')') --depth;
          else if (scrubbed[i] == ',' && depth == 1) multi_arg = true;
        }
        if (multi_arg) continue;
      }
      const int line = LineOf(scrubbed, here);
      if (static_cast<size_t>(line - 1) < suppressed.size() &&
          suppressed[line - 1]) {
        continue;
      }
      findings->push_back(
          {path, line, "banned-raw-unlink",
           "raw unlink/rename/remove is banned; replace files via "
           "util/atomic_io.h (AtomicFileWriter) or delete deliberately "
           "with std::filesystem::remove"});
    }
  }
}

// Bans mutable_rules()/mutable_pairs() calls outside src/rules/ and
// src/incr/: every other layer must treat a RuleSet as immutable once
// mined, or the incremental engine's snapshots and the serving index
// could silently drift from the counts they were built on.
void CheckRuleSetMutation(const std::string& path,
                          const std::string& scrubbed,
                          const std::vector<bool>& suppressed,
                          std::vector<Finding>* findings) {
  if (path.find("rules/") != std::string::npos ||
      path.find("incr/") != std::string::npos) {
    return;
  }
  static const char* kTokens[] = {"mutable_rules", "mutable_pairs"};
  for (const char* token : kTokens) {
    const size_t len = std::strlen(token);
    size_t pos = 0;
    while ((pos = scrubbed.find(token, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += len;
      if (here > 0 && IsIdentChar(scrubbed[here - 1])) continue;
      if (here + len < scrubbed.size() && IsIdentChar(scrubbed[here + len])) {
        continue;
      }
      // Only a member call (x.mutable_rules(...) / p->mutable_pairs(...))
      // is a mutation; the accessor declarations themselves and bare
      // identifiers are not.
      const size_t open = SkipSpace(scrubbed, here + len);
      if (open >= scrubbed.size() || scrubbed[open] != '(') continue;
      if (here == 0) continue;
      const char prev = scrubbed[here - 1];
      const bool member_call =
          prev == '.' ||
          (here >= 2 && prev == '>' && scrubbed[here - 2] == '-');
      if (!member_call) continue;
      const int line = LineOf(scrubbed, here);
      if (static_cast<size_t>(line - 1) < suppressed.size() &&
          suppressed[line - 1]) {
        continue;
      }
      findings->push_back(
          {path, line, "banned-ruleset-mutation",
           "mutable_rules()/mutable_pairs() are banned outside src/rules/ "
           "and src/incr/; mined rule sets are immutable downstream — "
           "build a new set (or go through the incremental engine) "
           "instead of editing one in place"});
    }
  }
}

void CheckDiscardedStatus(const std::string& path,
                          const std::string& scrubbed,
                          const std::vector<bool>& suppressed,
                          const std::set<std::string>& status_functions,
                          std::vector<Finding>* findings) {
  for (const std::string& name : status_functions) {
    size_t pos = 0;
    while ((pos = scrubbed.find(name, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += name.size();
      if (here > 0 && IsIdentChar(scrubbed[here - 1])) continue;
      const size_t after_name = here + name.size();
      if (after_name < scrubbed.size() && IsIdentChar(scrubbed[after_name])) {
        continue;
      }
      // Must be a call: next significant char is '('.
      const size_t open = SkipSpace(scrubbed, after_name);
      if (open >= scrubbed.size() || scrubbed[open] != '(') continue;
      // Walk left over the receiver chain (obj.  obj->  ns::) to the
      // start of the expression.
      size_t j = here;
      while (j > 0) {
        const char c = scrubbed[j - 1];
        if (IsIdentChar(c) || c == '.' || c == ':') {
          --j;
        } else if (c == '>' && j >= 2 && scrubbed[j - 2] == '-') {
          j -= 2;
        } else {
          break;
        }
      }
      // The previous significant character decides statement context.
      size_t k = j;
      while (k > 0 &&
             std::isspace(static_cast<unsigned char>(scrubbed[k - 1]))) {
        --k;
      }
      const char prev = k == 0 ? ';' : scrubbed[k - 1];
      bool statement_start = prev == ';' || prev == '{' || prev == '}';
      if (prev == ')') {
        // `if (cond) Foo();` discards; `(void)Foo();` does not.
        std::string before = scrubbed.substr(0, k);
        const size_t v = before.rfind("(void)");
        statement_start = !(v != std::string::npos && v + 6 == k);
      }
      if (!statement_start) continue;
      // The whole statement must be the call: `Foo(...);`.
      const size_t close = MatchParen(scrubbed, open);
      if (close == std::string::npos) continue;
      const size_t semi = SkipSpace(scrubbed, close + 1);
      if (semi >= scrubbed.size() || scrubbed[semi] != ';') continue;
      const int line = LineOf(scrubbed, here);
      if (static_cast<size_t>(line - 1) < suppressed.size() &&
          suppressed[line - 1]) {
        continue;
      }
      findings->push_back(
          {path, line, "discarded-status",
           "result of Status-returning call '" + name +
               "' is discarded; check it or cast to (void) with a reason"});
    }
  }
}

}  // namespace

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content,
                              const std::set<std::string>& status_functions) {
  std::vector<Finding> findings;
  if (content.find("dmc_lint: ignore-file") != std::string::npos) {
    return findings;
  }
  const auto raw_lines = SplitLines(content);
  std::vector<bool> suppressed(raw_lines.size());
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    suppressed[i] = raw_lines[i].find("dmc_lint: ignore") != std::string::npos;
  }
  const std::string scrubbed = ScrubSource(content);
  CheckIncludeGuard(path, scrubbed, suppressed, &findings);
  CheckBannedTokens(path, scrubbed, suppressed, &findings);
  CheckHotPathMap(path, scrubbed, suppressed, &findings);
  CheckRawFileOps(path, scrubbed, suppressed, &findings);
  CheckRuleSetMutation(path, scrubbed, suppressed, &findings);
  CheckDiscardedStatus(path, scrubbed, suppressed, status_functions,
                       &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> LintTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_directory(root, ec)) {
    for (const auto& entry :
         fs::recursive_directory_iterator(root, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string p = entry.path().string();
      if (IsSourcePath(p)) files.push_back(p);
    }
  } else {
    files.push_back(root);
  }
  std::sort(files.begin(), files.end());

  std::vector<std::pair<std::string, std::string>> contents;
  std::set<std::string> registry;
  for (const std::string& p : files) {
    std::ifstream in(p, std::ios::binary);
    if (!in) continue;
    std::ostringstream buf;
    buf << in.rdbuf();
    contents.emplace_back(p, buf.str());
    for (const std::string& name : CollectStatusFunctions(contents.back().second)) {
      registry.insert(name);
    }
  }

  std::vector<Finding> findings;
  for (const auto& [p, content] : contents) {
    auto file_findings = LintFile(p, content, registry);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  return findings;
}

}  // namespace legacy
}  // namespace lint
}  // namespace dmc
