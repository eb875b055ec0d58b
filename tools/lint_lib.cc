#include "tools/lint_lib.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "tools/lint_lexer.h"

namespace dmc {
namespace lint {

namespace {

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

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Tokens touch with no whitespace/comment between them. The receiver
/// chain walk in discarded-status is adjacency-sensitive (as the v1
/// character walk was): `state.Frob()` is one chain, `return Frob()`
/// is not.
bool Adjacent(const Token& a, const Token& b) {
  return a.end_offset == b.offset;
}

/// Index of the token holding the ')' matching the '(' at `open`,
/// or npos. Parens inside literals are literal content, not tokens.
size_t MatchParen(const std::vector<Token>& code, size_t open) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (IsPunct(code[i], "(")) ++depth;
    if (IsPunct(code[i], ")") && --depth == 0) return i;
  }
  return std::string::npos;
}

/// True when the ban on the identifier at code[i] applies: the name is
/// unqualified (including member access — `obj.printf(...)` is still
/// banned) or qualified exactly `std::`. A global `::rand` or a foreign
/// `Foo::rand` names something else and is left alone.
bool BanQualifierApplies(const std::vector<Token>& code, size_t i) {
  if (i >= 1 && IsPunct(code[i - 1], "::")) {
    return i >= 2 && IsIdent(code[i - 2], "std");
  }
  return true;
}

/// True when code[i] is written with an explicit std:: qualifier.
bool IsStdQualified(const std::vector<Token>& code, size_t i) {
  return i >= 2 && IsPunct(code[i - 1], "::") && IsIdent(code[i - 2], "std");
}

/// Per-file context shared by every rule: the comment-free token
/// stream, plus the raw-line suppression map.
struct FileCtx {
  const std::string& path;
  std::vector<Token> code;       // comments dropped; literals kept
  std::vector<bool> suppressed;  // `// dmc_lint: ignore` per raw line

  bool Suppressed(int line) const {
    return line >= 1 && static_cast<size_t>(line - 1) < suppressed.size() &&
           suppressed[line - 1];
  }
  bool PathContains(const char* s) const {
    return path.find(s) != std::string::npos;
  }
  bool PathEndsWith(const char* s) const { return HasExtension(path, s); }
};

void CheckIncludeGuard(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (!ctx.PathEndsWith(".h")) return;
  if (!ctx.suppressed.empty() && ctx.suppressed[0]) return;
  // First two significant lines: a line counts once it carries a token
  // that is neither comment (already dropped) nor literal — matching
  // the v1 notion of "non-blank after scrubbing".
  std::vector<std::vector<Token>> lines;
  int cur_line = -1;
  bool cur_significant = false;
  auto flush = [&](std::vector<Token>&& toks) {
    if (cur_significant && lines.size() < 2) lines.push_back(std::move(toks));
  };
  std::vector<Token> cur;
  for (const Token& t : ctx.code) {
    if (t.line != cur_line) {
      flush(std::move(cur));
      cur.clear();
      cur_line = t.line;
      cur_significant = false;
    }
    if (t.kind != TokenKind::kString && t.kind != TokenKind::kCharLiteral) {
      cur_significant = true;
    }
    cur.push_back(t);
  }
  flush(std::move(cur));

  auto rest_of_line = [](const std::vector<Token>& toks, size_t from) {
    std::string joined;
    for (size_t i = from; i < toks.size(); ++i) {
      if (!joined.empty()) joined.push_back(' ');
      joined += toks[i].text;
    }
    return joined;
  };

  if (!lines.empty()) {
    const auto& l1 = lines[0];
    if (l1.size() >= 3 && IsPunct(l1[0], "#") && IsIdent(l1[1], "pragma") &&
        IsIdent(l1[2], "once")) {
      return;
    }
    if (lines.size() == 2) {
      const auto& l2 = lines[1];
      if (l1.size() >= 3 && IsPunct(l1[0], "#") && IsIdent(l1[1], "ifndef") &&
          l2.size() >= 3 && IsPunct(l2[0], "#") && IsIdent(l2[1], "define") &&
          rest_of_line(l1, 2) == rest_of_line(l2, 2)) {
        return;
      }
    }
  }
  findings->push_back(
      {ctx.path, 1, "include-guard",
       "header must start with #pragma once or a matching "
       "#ifndef/#define include guard"});
}

void CheckBannedTokens(const FileCtx& ctx, std::vector<Finding>* findings) {
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
  // The logging backend is the one library translation unit allowed to
  // write to stderr directly; command-line front ends under tools/
  // write to their own stdout by design.
  const bool stdio_exempt =
      ctx.PathContains("util/logging.") || ctx.PathContains("tools/");
  // The observe export layer is the one library component allowed to
  // open output files; tools/ CLIs own their output files too.
  const bool file_stream_exempt =
      ctx.PathContains("observe/") || ctx.PathContains("tools/");
  for (const Ban& ban : kBans) {
    if (stdio_exempt && std::strcmp(ban.rule, "banned-stdio") == 0) continue;
    if (file_stream_exempt &&
        std::strcmp(ban.rule, "banned-file-stream") == 0) {
      continue;
    }
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      if (!IsIdent(ctx.code[i], ban.token)) continue;
      if (ban.needs_call &&
          (i + 1 >= ctx.code.size() || !IsPunct(ctx.code[i + 1], "("))) {
        continue;
      }
      if (!BanQualifierApplies(ctx.code, i)) continue;
      if (ctx.Suppressed(ctx.code[i].line)) continue;
      findings->push_back({ctx.path, ctx.code[i].line, ban.rule, ban.message});
    }
  }
}

// The hot-path files — the per-row merge loop, its kernels and the
// candidate table they write — must stay free of node-based associative
// containers: std::map / std::unordered_map allocate per element and
// chase pointers, exactly the behaviour the arena/SoA layout exists to
// avoid. Dense vectors with a touched-list reset are the sanctioned
// replacement (see the bitmap hit-counting phase in streaming_pass.cc).
void CheckHotPathMap(const FileCtx& ctx, std::vector<Finding>* findings) {
  bool is_hot_path = false;
  for (const std::string& suffix : HotPathFiles()) {
    if (ctx.PathEndsWith(suffix.c_str())) {
      is_hot_path = true;
      break;
    }
  }
  if (!is_hot_path) return;
  static const char* kTokens[] = {"map", "unordered_map", "multimap",
                                  "unordered_multimap"};
  for (size_t i = 0; i < ctx.code.size(); ++i) {
    bool hit = false;
    for (const char* token : kTokens) {
      if (IsIdent(ctx.code[i], token)) {
        hit = true;
        break;
      }
    }
    // Only the std:: containers are banned; a member `.map(...)` or a
    // project type named map is something else.
    if (!hit || !IsStdQualified(ctx.code, i)) continue;
    if (ctx.Suppressed(ctx.code[i].line)) continue;
    findings->push_back(
        {ctx.path, ctx.code[i].line, "banned-hot-path-map",
         "std::map/std::unordered_map are banned in hot-path mining "
         "code; use dense vectors with a touched-list reset (see the "
         "bitmap hit-counting in core/streaming_pass.cc)"});
  }
}

// Bans nested row-id posting collections (std::vector<std::vector<RowId>>
// or the raw uint32_t spelling) outside src/postings/: per-column posting
// lists live in PostingContainer (postings/posting_container.h), which
// picks array/bitmap/run storage per 64Ki chunk. Before the container,
// the matrix, the counter arena and the incremental miner each grew
// their own copy of this shape; the ban keeps the duplication from
// coming back. Row-major data (vector<vector<ColumnId>>) is a different
// shape and stays legal, as do the whitelisted non-posting users:
// matrix/row_order.cc's radix buckets and the datagen builders.
void CheckRawPosting(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (ctx.PathContains("postings/") || ctx.PathContains("matrix/row_order.") ||
      ctx.PathContains("datagen/")) {
    return;
  }
  const auto& code = ctx.code;
  for (size_t i = 0; i + 7 < code.size(); ++i) {
    if (!IsIdent(code[i], "vector") || !IsStdQualified(code, i)) continue;
    if (!IsPunct(code[i + 1], "<")) continue;
    if (!IsIdent(code[i + 2], "std") || !IsPunct(code[i + 3], "::") ||
        !IsIdent(code[i + 4], "vector") || !IsPunct(code[i + 5], "<")) {
      continue;
    }
    const bool row_id_element =
        IsIdent(code[i + 6], "RowId") || IsIdent(code[i + 6], "uint32_t");
    if (!row_id_element || !IsPunct(code[i + 7], ">")) continue;
    if (ctx.Suppressed(code[i].line)) continue;
    findings->push_back(
        {ctx.path, code[i].line, "banned-raw-posting",
         "nested row-id vectors re-create the per-column posting-list "
         "representation; use PostingContainer "
         "(postings/posting_container.h) so every layer shares one "
         "compressed substrate"});
  }
}

// Bans raw unlink/rename/remove calls (std::, :: or unqualified): file
// replacement must go through util/atomic_io.h so a crash can never
// leave a torn output. std::filesystem::remove stays legal — it is a
// deliberate delete, not a write-replace — and util/atomic_io.* itself
// is the one place allowed to use the primitives.
void CheckRawFileOps(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (ctx.PathContains("util/atomic_io.")) return;
  struct Op {
    const char* token;
    /// `remove` is also the 3-arg <algorithm> erase-remove building
    /// block; only the 1-arg <cstdio> form is a file operation.
    bool one_arg_only;
  };
  static const Op kOps[] = {
      {"unlink", false}, {"rename", false}, {"remove", true}};
  const auto& code = ctx.code;
  for (const Op& op : kOps) {
    for (size_t i = 0; i < code.size(); ++i) {
      if (!IsIdent(code[i], op.token)) continue;
      if (i + 1 >= code.size() || !IsPunct(code[i + 1], "(")) continue;
      // Work out the qualifier: std:: and global :: are the raw libc
      // forms; any other namespace (std::filesystem::remove) or a member
      // call (list.remove) is something else entirely.
      if (i >= 1 && IsPunct(code[i - 1], "::")) {
        const bool named_qualifier =
            i >= 2 && (IsIdent(code[i - 2]) ||
                       code[i - 2].kind == TokenKind::kNumber);
        if (named_qualifier && code[i - 2].text != "std") continue;
      } else if (i >= 1 && (IsPunct(code[i - 1], ".") ||
                            IsPunct(code[i - 1], "->"))) {
        continue;
      }
      if (op.one_arg_only) {
        const size_t close = MatchParen(code, i + 1);
        if (close == std::string::npos) continue;
        int depth = 0;
        bool multi_arg = false;
        for (size_t j = i + 1; j <= close && !multi_arg; ++j) {
          if (IsPunct(code[j], "(")) ++depth;
          else if (IsPunct(code[j], ")")) --depth;
          else if (IsPunct(code[j], ",") && depth == 1) multi_arg = true;
        }
        if (multi_arg) continue;
      }
      if (ctx.Suppressed(code[i].line)) continue;
      findings->push_back(
          {ctx.path, code[i].line, "banned-raw-unlink",
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
void CheckRuleSetMutation(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (ctx.PathContains("rules/") || ctx.PathContains("incr/")) return;
  static const char* kTokens[] = {"mutable_rules", "mutable_pairs"};
  const auto& code = ctx.code;
  for (const char* token : kTokens) {
    for (size_t i = 0; i < code.size(); ++i) {
      if (!IsIdent(code[i], token)) continue;
      // Only a member call (x.mutable_rules(...) / p->mutable_pairs(...))
      // is a mutation; the accessor declarations themselves and bare
      // identifiers are not.
      if (i + 1 >= code.size() || !IsPunct(code[i + 1], "(")) continue;
      if (i == 0 ||
          (!IsPunct(code[i - 1], ".") && !IsPunct(code[i - 1], "->"))) {
        continue;
      }
      if (ctx.Suppressed(code[i].line)) continue;
      findings->push_back(
          {ctx.path, code[i].line, "banned-ruleset-mutation",
           "mutable_rules()/mutable_pairs() are banned outside src/rules/ "
           "and src/incr/; mined rule sets are immutable downstream — "
           "build a new set (or go through the incremental engine) "
           "instead of editing one in place"});
    }
  }
}

void CheckDiscardedStatus(const FileCtx& ctx,
                          const std::set<std::string>& status_functions,
                          std::vector<Finding>* findings) {
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIdent(code[i]) || status_functions.count(code[i].text) == 0) {
      continue;
    }
    // Must be a call: the next token is '('.
    if (i + 1 >= code.size() || !IsPunct(code[i + 1], "(")) continue;
    // Walk left over the receiver chain (obj.  obj->  ns::). Each hop
    // must be whitespace-free — `state.Frob()` walks to `state`, while
    // `return Frob()` stops at `Frob` and sees `return` as context.
    size_t start = i;
    while (start >= 1) {
      const Token& p = code[start - 1];
      const bool connector =
          IsPunct(p, ".") || IsPunct(p, "->") || IsPunct(p, "::");
      if (!connector || !Adjacent(p, code[start])) break;
      if (start >= 2 && IsIdent(code[start - 2]) &&
          Adjacent(code[start - 2], p)) {
        start -= 2;
        continue;
      }
      start -= 1;  // chain opens with the connector itself (e.g. `).Foo`)
      break;
    }
    // The previous token decides statement context.
    bool statement_start;
    if (start == 0) {
      statement_start = true;
    } else {
      const Token& prev = code[start - 1];
      if (IsPunct(prev, ";") || IsPunct(prev, "{") || IsPunct(prev, "}")) {
        statement_start = true;
      } else if (IsPunct(prev, ")")) {
        // `if (cond) Foo();` discards; `(void)Foo();` does not.
        const bool void_cast =
            start >= 3 && IsPunct(code[start - 3], "(") &&
            IsIdent(code[start - 2], "void") &&
            Adjacent(code[start - 3], code[start - 2]) &&
            Adjacent(code[start - 2], code[start - 1]);
        statement_start = !void_cast;
      } else {
        statement_start = false;
      }
    }
    if (!statement_start) continue;
    // The whole statement must be the call: `Foo(...);`.
    const size_t close = MatchParen(code, i + 1);
    if (close == std::string::npos) continue;
    if (close + 1 >= code.size() || !IsPunct(code[close + 1], ";")) continue;
    if (ctx.Suppressed(code[i].line)) continue;
    findings->push_back(
        {ctx.path, code[i].line, "discarded-status",
         "result of Status-returning call '" + code[i].text +
             "' is discarded; check it or cast to (void) with a reason"});
  }
}

// Confines the raw BSD socket primitives to src/serve/net_*: every
// other layer speaks fds through the Status-returning wrappers in
// serve/net_socket.h, the same way atomic_io.cc owns unlink/rename, so
// errno mapping, EINTR retries and non-blocking semantics cannot fork.
// Only socket/accept/recv/send are listed — bind/listen/connect would
// false-positive on std::bind and friends, and a socket obtained
// without socket()/accept() has nothing to recv on anyway.
void CheckRawSocket(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (ctx.PathContains("serve/net_")) return;
  static const char* kCalls[] = {"socket", "accept", "recv", "send"};
  const auto& code = ctx.code;
  for (const char* call : kCalls) {
    for (size_t i = 0; i < code.size(); ++i) {
      if (!IsIdent(code[i], call)) continue;
      if (i + 1 >= code.size() || !IsPunct(code[i + 1], "(")) continue;
      // The libc primitives are unqualified or global-:: qualified. A
      // member call (conn.send) or any named namespace (net::, asio::)
      // is a wrapper, which is exactly what the rule wants callers on.
      if (i >= 1 && IsPunct(code[i - 1], "::")) {
        const bool named_qualifier =
            i >= 2 && (IsIdent(code[i - 2]) ||
                       code[i - 2].kind == TokenKind::kNumber);
        if (named_qualifier) continue;
      } else if (i >= 1 && (IsPunct(code[i - 1], ".") ||
                            IsPunct(code[i - 1], "->"))) {
        continue;
      }
      if (ctx.Suppressed(code[i].line)) continue;
      findings->push_back(
          {ctx.path, code[i].line, "banned-raw-socket",
           "raw " + code[i].text +
               "() is banned outside src/serve/net_*; speak to sockets "
               "through the Status-returning wrappers in "
               "serve/net_socket.h"});
    }
  }
}

// Confines the raw process-control primitives to src/shard/process_*:
// the coordinator's fork/exec plumbing owns pid lifetimes, signal
// delivery and EINTR-safe reaping, the same way serve/net_* owns
// sockets and atomic_io.cc owns unlink/rename. Everything else spawns
// and signals workers through the Status-returning wrappers in
// shard/process_control.h, so a stray kill(2) or unreaped child cannot
// appear outside the one audited TU.
void CheckRawProcess(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (ctx.PathContains("shard/process_")) return;
  static const char* kCalls[] = {"fork",   "vfork", "execv",   "execve",
                                 "execvp", "execl", "execlp",  "waitpid",
                                 "wait4",  "kill"};
  const auto& code = ctx.code;
  for (const char* call : kCalls) {
    for (size_t i = 0; i < code.size(); ++i) {
      if (!IsIdent(code[i], call)) continue;
      if (i + 1 >= code.size() || !IsPunct(code[i + 1], "(")) continue;
      // Same qualifier logic as banned-raw-socket: the libc primitives
      // are unqualified or global-:: qualified; member calls and named
      // namespaces are wrappers.
      if (i >= 1 && IsPunct(code[i - 1], "::")) {
        const bool named_qualifier =
            i >= 2 && (IsIdent(code[i - 2]) ||
                       code[i - 2].kind == TokenKind::kNumber);
        if (named_qualifier) continue;
      } else if (i >= 1 && (IsPunct(code[i - 1], ".") ||
                            IsPunct(code[i - 1], "->"))) {
        continue;
      }
      if (ctx.Suppressed(code[i].line)) continue;
      findings->push_back(
          {ctx.path, code[i].line, "banned-raw-process",
           "raw " + code[i].text +
               "() is banned outside src/shard/process_*; spawn, signal "
               "and reap workers through the wrappers in "
               "shard/process_control.h"});
    }
  }
}

// Bans bare .lock()/.unlock() member calls outside src/util/: a raw
// critical section is invisible to clang's -Wthread-safety analysis.
// dmc::MutexLock (util/thread_annotations.h) is the sanctioned guard;
// the wrapper's own implementation under src/util/ is the one place
// the primitives may appear.
void CheckRawLock(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (ctx.PathContains("util/")) return;
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIdent(code[i], "lock") && !IsIdent(code[i], "unlock")) continue;
    if (i == 0 ||
        (!IsPunct(code[i - 1], ".") && !IsPunct(code[i - 1], "->"))) {
      continue;
    }
    if (i + 1 >= code.size() || !IsPunct(code[i + 1], "(")) continue;
    if (ctx.Suppressed(code[i].line)) continue;
    findings->push_back(
        {ctx.path, code[i].line, "banned-raw-lock",
         "bare ." + code[i].text +
             "() is banned outside src/util/; hold critical sections via "
             "dmc::MutexLock (util/thread_annotations.h) so thread-safety "
             "analysis can see them"});
  }
}

// Flags declarations of std:: mutex types: libstdc++ mutexes carry no
// capability attributes, so clang's analysis cannot track them. Either
// declare dmc::Mutex (an annotated capability), or — for the rare case
// where a raw std::mutex is unavoidable — tie it into the annotation
// graph by referencing its name from DMC_GUARDED_BY/DMC_REQUIRES.
void CheckUnannotatedMutex(const FileCtx& ctx,
                           std::vector<Finding>* findings) {
  // The annotated wrapper itself is the one sanctioned home for a raw
  // std::mutex.
  if (ctx.PathContains("util/thread_annotations.h")) return;
  static const char* kMutexTypes[] = {
      "mutex",       "shared_mutex",           "recursive_mutex",
      "timed_mutex", "recursive_timed_mutex", "shared_timed_mutex"};
  static const char* kAnnotations[] = {
      "DMC_GUARDED_BY", "DMC_PT_GUARDED_BY", "DMC_REQUIRES",
      "DMC_REQUIRES_SHARED", "DMC_ACQUIRE", "DMC_ACQUIRE_SHARED",
      "DMC_RELEASE", "DMC_RELEASE_SHARED", "DMC_EXCLUDES",
      "DMC_ASSERT_CAPABILITY"};
  const auto& code = ctx.code;

  // Names referenced from any annotation argument list.
  std::set<std::string> referenced;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    bool is_annotation = false;
    for (const char* a : kAnnotations) {
      if (IsIdent(code[i], a)) {
        is_annotation = true;
        break;
      }
    }
    if (!is_annotation || !IsPunct(code[i + 1], "(")) continue;
    const size_t close = MatchParen(code, i + 1);
    if (close == std::string::npos) continue;
    for (size_t j = i + 2; j < close; ++j) {
      if (IsIdent(code[j])) referenced.insert(code[j].text);
    }
  }

  for (size_t i = 0; i + 4 < code.size(); ++i) {
    if (!IsIdent(code[i], "std") || !IsPunct(code[i + 1], "::")) continue;
    bool is_mutex_type = false;
    for (const char* t : kMutexTypes) {
      if (IsIdent(code[i + 2], t)) {
        is_mutex_type = true;
        break;
      }
    }
    if (!is_mutex_type) continue;
    // A declaration, not a mention: `std::mutex name;`.
    if (!IsIdent(code[i + 3]) || !IsPunct(code[i + 4], ";")) continue;
    const std::string& name = code[i + 3].text;
    if (referenced.count(name) != 0) continue;
    if (ctx.Suppressed(code[i].line)) continue;
    findings->push_back(
        {ctx.path, code[i].line, "unannotated-mutex",
         "std::" + code[i + 2].text + " '" + name +
             "' is invisible to thread-safety analysis; declare it as "
             "dmc::Mutex (util/thread_annotations.h) or reference it "
             "from DMC_GUARDED_BY/DMC_REQUIRES"});
  }
}

// In the audited hot-path TUs, every named atomic operation must spell
// its std::memory_order. A defaulted seq_cst on a hot path is treated
// as "ordering not thought about", not "strongest therefore safe" —
// the sweep that relaxed these counters is easy to silently regress.
void CheckAtomicOrdering(const FileCtx& ctx, std::vector<Finding>* findings) {
  bool audited = false;
  for (const std::string& suffix : AtomicAuditedFiles()) {
    if (ctx.PathEndsWith(suffix.c_str())) {
      audited = true;
      break;
    }
  }
  if (!audited) return;
  static const char* kAtomicOps[] = {
      "load",        "store",       "exchange",
      "fetch_add",   "fetch_sub",   "fetch_and",
      "fetch_or",    "fetch_xor",   "compare_exchange_weak",
      "compare_exchange_strong",    "test_and_set"};
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    bool is_op = false;
    for (const char* op : kAtomicOps) {
      if (IsIdent(code[i], op)) {
        is_op = true;
        break;
      }
    }
    if (!is_op) continue;
    if (i == 0 ||
        (!IsPunct(code[i - 1], ".") && !IsPunct(code[i - 1], "->"))) {
      continue;
    }
    if (i + 1 >= code.size() || !IsPunct(code[i + 1], "(")) continue;
    const size_t close = MatchParen(code, i + 1);
    if (close == std::string::npos) continue;
    bool has_order = false;
    for (size_t j = i + 2; j < close; ++j) {
      if (IsIdent(code[j]) &&
          code[j].text.rfind("memory_order", 0) == 0) {
        has_order = true;
        break;
      }
    }
    if (has_order) continue;
    if (ctx.Suppressed(code[i].line)) continue;
    findings->push_back(
        {ctx.path, code[i].line, "atomic-ordering-audit",
         "atomic ." + code[i].text +
             "() without an explicit std::memory_order in an audited "
             "hot-path TU; spell the ordering (memory_order_relaxed if "
             "that is what you mean)"});
  }
}

}  // namespace

std::string ScrubSource(const std::string& content) {
  return ScrubWithLexer(content);
}

std::set<std::string> CollectStatusFunctions(const std::string& content) {
  std::vector<Token> code;
  for (Token& t : LexSource(content)) {
    if (t.kind != TokenKind::kComment) code.push_back(std::move(t));
  }
  std::set<std::string> names;
  for (size_t i = 0; i < code.size(); ++i) {
    size_t j;
    if (IsIdent(code[i], "StatusOr")) {
      // Skip the (possibly nested) template argument. `<`/`>` are
      // single-char tokens, so `>>` closes two levels, as it should.
      if (i + 1 >= code.size() || !IsPunct(code[i + 1], "<")) continue;
      int depth = 0;
      j = i + 1;
      while (j < code.size()) {
        if (IsPunct(code[j], "<")) ++depth;
        if (IsPunct(code[j], ">") && --depth == 0) {
          ++j;
          break;
        }
        ++j;
      }
    } else if (IsIdent(code[i], "Status")) {
      j = i + 1;
    } else {
      continue;
    }
    if (j >= code.size() || !IsIdent(code[j])) continue;
    const std::string& name = code[j].text;
    if (j + 1 < code.size() && IsPunct(code[j + 1], "(") &&
        name != "operator") {
      names.insert(name);
    }
  }
  return names;
}

const std::vector<std::string>& HotPathFiles() {
  static const std::vector<std::string> kFiles = {
      "core/streaming_pass.h", "core/streaming_pass.cc", "core/kernels.h",
      "core/kernels.cc", "core/miss_counter_table.h"};
  return kFiles;
}

const std::vector<std::string>& AtomicAuditedFiles() {
  static const std::vector<std::string> kFiles = {
      "core/streaming_pass.h", "core/streaming_pass.cc",
      "core/kernels.h",        "core/kernels.cc",
      "core/miss_counter_table.h",
      "core/parallel_dmc.cc",  "util/failpoint.cc",
      "util/logging.cc",       "util/atomic_io.cc"};
  return kFiles;
}

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
  FileCtx ctx{path, {}, std::move(suppressed)};
  for (Token& t : LexSource(content)) {
    if (t.kind != TokenKind::kComment) ctx.code.push_back(std::move(t));
  }
  CheckIncludeGuard(ctx, &findings);
  CheckBannedTokens(ctx, &findings);
  CheckHotPathMap(ctx, &findings);
  CheckRawPosting(ctx, &findings);
  CheckRawFileOps(ctx, &findings);
  CheckRuleSetMutation(ctx, &findings);
  CheckDiscardedStatus(ctx, status_functions, &findings);
  CheckRawSocket(ctx, &findings);
  CheckRawProcess(ctx, &findings);
  CheckRawLock(ctx, &findings);
  CheckUnannotatedMutex(ctx, &findings);
  CheckAtomicOrdering(ctx, &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
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
    for (const std::string& name :
         CollectStatusFunctions(contents.back().second)) {
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

std::string FormatFinding(const Finding& f) {
  std::ostringstream os;
  os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
  return os.str();
}

}  // namespace lint
}  // namespace dmc
