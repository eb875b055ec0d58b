#include "tools/lint_lib.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace dmc {
namespace lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(DMC_TESTDATA_DIR) + "/lint/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

size_t CountRule(const std::vector<Finding>& findings,
                 const std::string& rule) {
  size_t n = 0;
  for (const auto& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

TEST(ScrubSourceTest, BlanksCommentsAndStringsKeepsNewlines) {
  const std::string src =
      "int x; // rand()\n"
      "const char* s = \"srand(1)\";\n"
      "/* std::cout\n   rand() */ int y;\n";
  const std::string scrubbed = ScrubSource(src);
  EXPECT_EQ(scrubbed.find("rand"), std::string::npos);
  EXPECT_EQ(scrubbed.find("cout"), std::string::npos);
  EXPECT_NE(scrubbed.find("int x;"), std::string::npos);
  EXPECT_NE(scrubbed.find("int y;"), std::string::npos);
  EXPECT_EQ(std::count(scrubbed.begin(), scrubbed.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
}

TEST(ScrubSourceTest, EscapedQuoteStaysInsideString) {
  const std::string scrubbed =
      ScrubSource("const char* s = \"a\\\"rand()\"; int z;");
  EXPECT_EQ(scrubbed.find("rand"), std::string::npos);
  EXPECT_NE(scrubbed.find("int z;"), std::string::npos);
}

TEST(CollectStatusFunctionsTest, HarvestsDeclarations) {
  const auto names = CollectStatusFunctions(
      "Status WriteThing(int x);\n"
      "StatusOr<std::vector<int>> ReadThing();\n"
      "  [[nodiscard]] StatusOr<Matrix> Load(const std::string& p);\n");
  EXPECT_TRUE(names.count("WriteThing"));
  EXPECT_TRUE(names.count("ReadThing"));
  EXPECT_TRUE(names.count("Load"));
  EXPECT_EQ(names.size(), 3u);
}

TEST(CollectStatusFunctionsTest, SkipsNonFunctions) {
  const auto names = CollectStatusFunctions(
      "StatusCode code();\n"        // different type
      "Status st = Foo();\n"        // variable, not a declaration
      "enum class Status { kA };\n");
  EXPECT_TRUE(names.empty());
}

// --- fixture files: each violating fixture fires its rule exactly once ---

TEST(LintFixtureTest, BannedRandFiresExactlyOnce) {
  const auto findings =
      LintFile("uses_rand.cc", ReadFile(FixturePath("uses_rand.cc")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-rand");
  EXPECT_EQ(findings[0].line, 10);
}

TEST(LintFixtureTest, MissingGuardFiresExactlyOnce) {
  const auto findings = LintFile(
      "missing_guard.h", ReadFile(FixturePath("missing_guard.h")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-guard");
}

TEST(LintFixtureTest, IgnoredStatusFiresExactlyOnce) {
  const std::string content = ReadFile(FixturePath("ignored_status.cc"));
  // Registry harvested from the fixture's own declarations.
  const auto registry = CollectStatusFunctions(content);
  EXPECT_TRUE(registry.count("Frob"));
  EXPECT_TRUE(registry.count("Other"));
  const auto findings = LintFile("ignored_status.cc", content, registry);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "discarded-status");
  EXPECT_EQ(findings[0].line, 15);
  EXPECT_NE(findings[0].message.find("Frob"), std::string::npos);
}

TEST(LintFixtureTest, BannedStdioFiresExactlyOnce) {
  const auto findings =
      LintFile("uses_stdio.cc", ReadFile(FixturePath("uses_stdio.cc")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-stdio");
}

TEST(LintFixtureTest, BannedFileStreamFiresExactlyOnce) {
  const auto findings = LintFile("uses_ofstream.cc",
                                 ReadFile(FixturePath("uses_ofstream.cc")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-file-stream");
  EXPECT_EQ(findings[0].line, 10);
  EXPECT_NE(findings[0].message.find("observe"), std::string::npos);
}

TEST(LintFixtureTest, BannedRawUnlinkFiresExactlyOnce) {
  const auto findings = LintFile("uses_unlink.cc",
                                 ReadFile(FixturePath("uses_unlink.cc")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-raw-unlink");
  EXPECT_EQ(findings[0].line, 14);
  EXPECT_NE(findings[0].message.find("atomic_io"), std::string::npos);
}

TEST(LintFixtureTest, BannedHotPathMapFiresExactlyOnce) {
  const auto findings =
      LintFile("core/streaming_pass.cc",
               ReadFile(FixturePath("core/streaming_pass.cc")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-hot-path-map");
  EXPECT_EQ(findings[0].line, 12);
  EXPECT_NE(findings[0].message.find("dense vectors"), std::string::npos);
}

TEST(LintFixtureTest, CleanFilesPass) {
  EXPECT_TRUE(
      LintFile("clean.h", ReadFile(FixturePath("clean.h")), {}).empty());
  EXPECT_TRUE(
      LintFile("clean.cc", ReadFile(FixturePath("clean.cc")), {}).empty());
}

TEST(LintFixtureTest, TreeWalkFindsOnePerViolatingFixture) {
  const auto findings = LintTree(std::string(DMC_TESTDATA_DIR) + "/lint");
  EXPECT_EQ(CountRule(findings, "banned-rand"), 1u);
  EXPECT_EQ(CountRule(findings, "include-guard"), 1u);
  EXPECT_EQ(CountRule(findings, "discarded-status"), 1u);
  EXPECT_EQ(CountRule(findings, "banned-stdio"), 1u);
  EXPECT_EQ(CountRule(findings, "banned-file-stream"), 1u);
  EXPECT_EQ(CountRule(findings, "banned-raw-unlink"), 1u);
  EXPECT_EQ(CountRule(findings, "banned-hot-path-map"), 1u);
  EXPECT_EQ(CountRule(findings, "banned-ruleset-mutation"), 1u);
  EXPECT_EQ(CountRule(findings, "banned-raw-posting"), 1u);
  EXPECT_EQ(CountRule(findings, "banned-raw-lock"), 2u);
  EXPECT_EQ(CountRule(findings, "banned-raw-socket"), 4u);
  EXPECT_EQ(CountRule(findings, "banned-raw-process"), 5u);
  EXPECT_EQ(CountRule(findings, "unannotated-mutex"), 1u);
  EXPECT_EQ(CountRule(findings, "atomic-ordering-audit"), 1u);
  EXPECT_EQ(findings.size(), 22u);
}

TEST(LintFixtureTest, BannedRawLockFiresPerPrimitiveCall) {
  const auto findings = LintFile(
      "bad_raw_lock.cc", ReadFile(FixturePath("bad_raw_lock.cc")), {});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "banned-raw-lock");
  EXPECT_EQ(findings[0].line, 10);
  EXPECT_NE(findings[0].message.find("MutexLock"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "banned-raw-lock");
  EXPECT_EQ(findings[1].line, 12);
}

TEST(LintFixtureTest, BannedRawSocketFiresPerPrimitiveCall) {
  const auto findings = LintFile(
      "uses_socket.cc", ReadFile(FixturePath("uses_socket.cc")), {});
  ASSERT_EQ(findings.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(findings[i].rule, "banned-raw-socket");
    EXPECT_EQ(findings[i].line, 11 + i);
    EXPECT_NE(findings[i].message.find("serve/net_socket.h"),
              std::string::npos);
  }
}

TEST(LintFixtureTest, BannedRawProcessFiresPerPrimitiveCall) {
  const auto findings = LintFile(
      "uses_process.cc", ReadFile(FixturePath("uses_process.cc")), {});
  ASSERT_EQ(findings.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(findings[i].rule, "banned-raw-process");
    EXPECT_EQ(findings[i].line, 12 + i);
    EXPECT_NE(findings[i].message.find("shard/process_control.h"),
              std::string::npos);
  }
}

TEST(LintFixtureTest, BannedRawProcessExemptsProcessControlFiles) {
  // The same content under the sanctioned path must stay silent.
  const auto findings =
      LintFile("src/shard/process_control.cc",
               ReadFile(FixturePath("uses_process.cc")), {});
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtureTest, BannedRawSocketExemptsNetSocketFiles) {
  // The same content under the sanctioned path must stay silent.
  const auto findings =
      LintFile("src/serve/net_socket.cc",
               ReadFile(FixturePath("uses_socket.cc")), {});
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtureTest, UnannotatedMutexFiresExactlyOnce) {
  const auto findings =
      LintFile("bad_mutex_member.h",
               ReadFile(FixturePath("bad_mutex_member.h")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unannotated-mutex");
  EXPECT_EQ(findings[0].line, 19);
  EXPECT_NE(findings[0].message.find("mu_"), std::string::npos);
}

TEST(LintFixtureTest, AtomicOrderingAuditFiresExactlyOnce) {
  const auto findings = LintFile(
      "core/kernels.cc", ReadFile(FixturePath("core/kernels.cc")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "atomic-ordering-audit");
  EXPECT_EQ(findings[0].line, 11);
  EXPECT_NE(findings[0].message.find("memory_order"), std::string::npos);
}

TEST(LintFixtureTest, RegressionFixturesAreCleanUnderTokenEngine) {
  // Raw strings and line-spliced comments produced phantom findings
  // under the v1 substring engine; the token engine must stay silent.
  EXPECT_TRUE(LintFile("regression/raw_string_decoy.cc",
                       ReadFile(FixturePath("regression/raw_string_decoy.cc")),
                       {})
                  .empty());
  EXPECT_TRUE(
      LintFile("regression/comment_splice_decoy.cc",
               ReadFile(FixturePath("regression/comment_splice_decoy.cc")),
               {})
          .empty());
}

TEST(LintFixtureTest, BannedRuleSetMutationFiresExactlyOnce) {
  const auto findings =
      LintFile("bad_ruleset_mutation.cc",
               ReadFile(FixturePath("bad_ruleset_mutation.cc")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-ruleset-mutation");
  EXPECT_EQ(findings[0].line, 15);
  EXPECT_NE(findings[0].message.find("immutable"), std::string::npos);
}

TEST(LintFixtureTest, BannedRawPostingFiresExactlyOnce) {
  const auto findings = LintFile(
      "bad_raw_posting.cc", ReadFile(FixturePath("bad_raw_posting.cc")), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-raw-posting");
  EXPECT_EQ(findings[0].line, 16);
  EXPECT_NE(findings[0].message.find("PostingContainer"), std::string::npos);
}

TEST(LintFixtureTest, BannedRawPostingExemptsContainerAndWhitelist) {
  const std::string content = ReadFile(FixturePath("bad_raw_posting.cc"));
  EXPECT_TRUE(
      LintFile("src/postings/posting_container.cc", content, {}).empty());
  EXPECT_TRUE(LintFile("src/matrix/row_order.cc", content, {}).empty());
  EXPECT_TRUE(LintFile("src/datagen/dictionary_gen.cc", content, {}).empty());
}

// --- rule details on inline content ---

TEST(LintRuleTest, PragmaOnceSatisfiesGuardRule) {
  EXPECT_TRUE(LintFile("x.h", "#pragma once\nint v;\n", {}).empty());
}

TEST(LintRuleTest, MismatchedGuardMacroFails) {
  const auto findings =
      LintFile("x.h", "#ifndef A_H_\n#define B_H_\nint v;\n#endif\n", {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-guard");
}

TEST(LintRuleTest, GuardRuleIgnoresNonHeaders) {
  EXPECT_TRUE(LintFile("x.cc", "int v;\n", {}).empty());
}

TEST(LintRuleTest, LoggingBackendMayUseStdio) {
  const std::string body = "#include <cstdio>\nvoid F(){fprintf(stderr, x);}\n";
  EXPECT_TRUE(LintFile("src/util/logging.cc", body, {}).empty());
  EXPECT_EQ(LintFile("src/core/engine.cc", body, {}).size(), 1u);
}

TEST(LintRuleTest, ObserveExportMayOpenFileStreams) {
  const std::string body =
      "#include <fstream>\nvoid F(){ std::ofstream out(\"x\"); }\n";
  EXPECT_TRUE(LintFile("src/observe/stats_export.cc", body, {}).empty());
  const auto findings = LintFile("src/core/engine.cc", body, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-file-stream");
}

TEST(LintRuleTest, RuleSetMutationAllowedOnlyInRulesAndIncr) {
  const std::string body =
      "void F(RuleSet& r){ r.mutable_rules(); }\n"
      "void G(RuleSet* r){ r->mutable_pairs(); }\n";
  EXPECT_TRUE(LintFile("src/rules/rule_set_fuzz.cc", body, {}).empty());
  EXPECT_TRUE(LintFile("src/incr/incr_miner.cc", body, {}).empty());
  const auto findings = LintFile("src/core/engine.cc", body, {});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "banned-ruleset-mutation");
  // Declarations are not calls: defining the accessors is legal anywhere.
  EXPECT_TRUE(LintFile("src/core/engine.cc",
                       "struct S { int* mutable_rules(); };\n", {})
                  .empty());
}

TEST(LintRuleTest, FileStreamLineSuppressionWorks) {
  const std::string body =
      "#include <fstream>\n"
      "void F(){ std::ofstream out(\"x\"); }  // dmc_lint: ignore\n";
  EXPECT_TRUE(LintFile("src/core/engine.cc", body, {}).empty());
}

TEST(LintRuleTest, FopenRequiresCallToFire) {
  EXPECT_EQ(LintFile("x.cc", "void F(){ fopen(\"a\", \"w\"); }\n", {}).size(),
            1u);
  // A mention without a call (e.g. a symbol named fopen_mode) is legal.
  EXPECT_TRUE(LintFile("x.cc", "int fopen_mode = 0;\n", {}).empty());
}

TEST(LintRuleTest, RawUnlinkFormsAreBanned) {
  EXPECT_EQ(LintFile("x.cc", "void F(){ unlink(\"a\"); }\n", {}).size(), 1u);
  EXPECT_EQ(LintFile("x.cc", "void F(){ ::unlink(\"a\"); }\n", {}).size(),
            1u);
  EXPECT_EQ(
      LintFile("x.cc", "void F(){ std::rename(\"a\", \"b\"); }\n", {}).size(),
      1u);
  EXPECT_EQ(LintFile("x.cc", "void F(){ std::remove(\"a\"); }\n", {}).size(),
            1u);
}

TEST(LintRuleTest, DeliberateAndAlgorithmRemovesAreAllowed) {
  EXPECT_TRUE(
      LintFile("x.cc", "void F(){ std::filesystem::remove(p); }\n", {})
          .empty());
  EXPECT_TRUE(LintFile("x.cc", "void F(){ list.remove(7); }\n", {}).empty());
  EXPECT_TRUE(
      LintFile("x.cc",
               "void F(){ std::remove(v.begin(), v.end(), 3); }\n", {})
          .empty());
  // A mention without a call is legal.
  EXPECT_TRUE(LintFile("x.cc", "int unlink_count = 0;\n", {}).empty());
}

TEST(LintRuleTest, AtomicIoHelperMayUseRawFileOps) {
  const std::string body = "void F(){ ::unlink(\"a\"); }\n";
  EXPECT_TRUE(LintFile("src/util/atomic_io.cc", body, {}).empty());
  EXPECT_EQ(LintFile("src/core/engine.cc", body, {}).size(), 1u);
}

TEST(LintRuleTest, QualifiedNonStdRandIsAllowed) {
  EXPECT_TRUE(LintFile("x.cc", "int v = Legacy::rand();\n", {}).empty());
  EXPECT_EQ(LintFile("x.cc", "int v = std::rand();\n", {}).size(), 1u);
}

TEST(LintRuleTest, HotPathMapIsPathConditional) {
  const std::string body =
      "#include <map>\nvoid F(){ std::map<int, int> m; (void)m; }\n";
  // The scan pass, the merge kernels and the candidate table; headers
  // also draw include-guard, so count the rule alone.
  for (const char* path :
       {"src/core/streaming_pass.cc", "src/core/streaming_pass.h",
        "src/core/kernels.cc", "src/core/kernels.h",
        "src/core/miss_counter_table.h"}) {
    EXPECT_EQ(CountRule(LintFile(path, body, {}), "banned-hot-path-map"), 1u)
        << path;
  }
  // Everywhere else node-based containers stay legal.
  EXPECT_TRUE(LintFile("src/core/dmc_imp.cc", body, {}).empty());
  EXPECT_TRUE(LintFile("src/observe/metrics.cc", body, {}).empty());
}

TEST(LintRuleTest, HotPathMapRequiresStdQualifier) {
  // A project type or member named map is not the banned container.
  EXPECT_TRUE(LintFile("src/core/streaming_pass.cc",
                       "void F(){ ColumnMap map; map.Clear(); }\n", {})
                  .empty());
  EXPECT_EQ(LintFile("src/core/streaming_pass.cc",
                     "void F(){ std::unordered_map<int, int> m; }\n", {})
                .size(),
            1u);
}

TEST(LintRuleTest, HotPathMapSuppressionWorks) {
  const std::string body =
      "void F(){ std::map<int, int> m; }  // dmc_lint: ignore\n";
  EXPECT_TRUE(LintFile("src/core/streaming_pass.cc", body, {}).empty());
}

TEST(LintRuleTest, RawLockAllowedOnlyUnderUtil) {
  const std::string body = "void F(M& mu){ mu.lock(); mu.unlock(); }\n";
  EXPECT_TRUE(LintFile("src/util/spin.cc", body, {}).empty());
  EXPECT_EQ(LintFile("src/core/engine.cc", body, {}).size(), 2u);
  EXPECT_EQ(LintFile("src/core/engine.cc",
                     "void G(M* mu){ mu->lock(); }\n", {})
                .size(),
            1u);
}

TEST(LintRuleTest, RawLockNeedsMemberCall) {
  // Free functions and plain identifiers named lock are not the
  // primitive.
  EXPECT_TRUE(LintFile("src/core/engine.cc",
                       "void F(){ lock(); int lock = 0; (void)lock; }\n", {})
                  .empty());
  const std::string body =
      "void F(M& mu){ mu.lock(); }  // dmc_lint: ignore\n";
  EXPECT_TRUE(LintFile("src/core/engine.cc", body, {}).empty());
}

TEST(LintRuleTest, UnannotatedMutexAcceptsGuardedByReference) {
  const std::string referenced =
      "#pragma once\n"
      "class C { std::mutex mu_; int x_ DMC_GUARDED_BY(mu_); };\n";
  EXPECT_TRUE(LintFile("src/core/engine.h", referenced, {}).empty());
  const std::string bare =
      "#pragma once\nclass C { std::mutex mu_; };\n";
  EXPECT_EQ(LintFile("src/core/engine.h", bare, {}).size(), 1u);
  // A DMC_REQUIRES contract also ties the mutex into the graph.
  const std::string required =
      "#pragma once\n"
      "struct R { std::mutex mu; };\n"
      "void G(R& r) DMC_REQUIRES(r.mu);\n";
  EXPECT_TRUE(LintFile("src/core/engine.h", required, {}).empty());
}

TEST(LintRuleTest, UnannotatedMutexIgnoresNonDeclarations) {
  // Mentions that are not `std::mutex name;` declarations: references,
  // template arguments, lock types.
  EXPECT_TRUE(LintFile("src/core/engine.cc",
                       "void F(std::mutex& mu);\n"
                       "std::lock_guard<std::mutex> g(mu);\n",
                       {})
                  .empty());
  // dmc::Mutex is the annotated capability; never flagged.
  EXPECT_TRUE(LintFile("src/core/engine.cc",
                       "class C { Mutex mu_; };\n", {})
                  .empty());
}

TEST(LintRuleTest, AtomicOrderingAuditIsPathConditional) {
  const std::string body = "long F(A& a){ return a.load(); }\n";
  EXPECT_EQ(LintFile("src/core/parallel_dmc.cc", body, {}).size(), 1u);
  EXPECT_EQ(LintFile("src/util/failpoint.cc", body, {}).size(), 1u);
  for (const char* path :
       {"src/core/streaming_pass.h", "src/core/kernels.h",
        "src/core/miss_counter_table.h"}) {
    EXPECT_EQ(CountRule(LintFile(path, body, {}), "atomic-ordering-audit"),
              1u)
        << path;
  }
  // Outside the audited TUs a defaulted order is left to review.
  EXPECT_TRUE(LintFile("src/observe/metrics.cc", body, {}).empty());
}

// Both rules match by path suffix, so a renamed or deleted file would
// silently leave its rule; every listed suffix must name a real source.
TEST(LintRuleTest, RuleFileListsNameExistingSources) {
  for (const auto* files : {&HotPathFiles(), &AtomicAuditedFiles()}) {
    for (const std::string& suffix : *files) {
      EXPECT_TRUE(std::filesystem::is_regular_file(
          std::string(DMC_SOURCE_DIR) + "/src/" + suffix))
          << suffix;
    }
  }
}

TEST(LintRuleTest, AtomicOrderingAcceptsExplicitOrder) {
  const std::string body =
      "void F(A& a){ a.store(1, std::memory_order_release); "
      "a.fetch_add(2, std::memory_order_relaxed); }\n";
  EXPECT_TRUE(LintFile("src/core/parallel_dmc.cc", body, {}).empty());
  // C++20 scoped form counts too.
  EXPECT_TRUE(LintFile("src/core/parallel_dmc.cc",
                       "void G(A& a){ a.store(1, std::memory_order::release); "
                       "}\n",
                       {})
                  .empty());
}

TEST(LintRuleTest, DiscardInsideIfBodyIsFlagged) {
  const std::set<std::string> registry{"Frob"};
  const auto findings =
      LintFile("x.cc", "void F(bool b){ if (b) Frob(); }\n", registry);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "discarded-status");
}

TEST(LintRuleTest, MemberCallDiscardIsFlagged) {
  const std::set<std::string> registry{"VerifyImplications"};
  const auto findings = LintFile(
      "x.cc", "void F(V& v){ v.VerifyImplications(r, m); }\n", registry);
  ASSERT_EQ(findings.size(), 1u);
}

TEST(LintRuleTest, CheckedUsesAreNotFlagged) {
  const std::set<std::string> registry{"Frob"};
  const std::string body =
      "Status G() {\n"
      "  Status s = Frob();\n"
      "  if (!Frob().ok()) return s;\n"
      "  (void)Frob();\n"
      "  return Frob();\n"
      "}\n";
  EXPECT_TRUE(LintFile("x.cc", body, registry).empty());
}

TEST(LintRuleTest, IgnoreFileSuppressesEverything) {
  const auto findings = LintFile(
      "x.cc", "// dmc_lint: ignore-file\nvoid F(){ srand(7); }\n", {});
  EXPECT_TRUE(findings.empty());
}

TEST(LintRuleTest, LineSuppressionWorks) {
  const auto findings = LintFile(
      "x.cc", "void F(){ srand(7); }  // dmc_lint: ignore\n", {});
  EXPECT_TRUE(findings.empty());
}

TEST(LintRuleTest, FormatFindingIsStable) {
  const Finding f{"a/b.cc", 12, "banned-rand", "no"};
  EXPECT_EQ(FormatFinding(f), "a/b.cc:12: [banned-rand] no");
}

}  // namespace
}  // namespace lint
}  // namespace dmc
