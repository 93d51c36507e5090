// dsflint's own tests: every seeded fixture in tests/dsflint_fixtures/
// must be flagged with exactly the right rule kind at the right line,
// the clean fixture and the lint:allow escape must stay silent, and the
// real tree (src/ + tools/ against tools/dsflint/lock_hierarchy.txt)
// must lint clean — the same gate scripts/run_static_analysis.sh and CI
// enforce, kept in ctest so a plain `ctest` run catches regressions.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analyzer.h"
#include "gtest/gtest.h"
#include "report.h"

namespace dsflint {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string FixturePath(const std::string& name) {
  return std::string(DSFLINT_FIXTURE_DIR) + "/" + name;
}

// Options under which the fixture directory is fully enforced.
AnalyzerOptions FixtureOptions() {
  AnalyzerOptions options;
  options.strict_dirs = {"dsflint_fixtures/"};
  options.fault_dirs = {"dsflint_fixtures/"};
  return options;
}

LintReport RunOnFixtures(AnalyzerOptions options,
                         const std::vector<std::string>& names) {
  Analyzer analyzer(std::move(options));
  for (const std::string& name : names) {
    analyzer.AddFile(FixturePath(name), ReadFile(FixturePath(name)));
  }
  return analyzer.Run();
}

TEST(DsflintFixtures, GuardedByViolationPinned) {
  const LintReport report = RunOnFixtures(FixtureOptions(), {"guarded_by.cc"});
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kGuardedByViolation);
  EXPECT_EQ(report.findings[0].line, 14);
}

TEST(DsflintFixtures, LockOrderInversionPinned) {
  AnalyzerOptions options = FixtureOptions();
  options.hierarchy_file = FixturePath("fixture_hierarchy.txt");
  const LintReport report =
      RunOnFixtures(std::move(options), {"lock_order.cc"});
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kLockOrderViolation);
  EXPECT_EQ(report.findings[0].line, 19);
}

TEST(DsflintFixtures, LockCyclePinned) {
  const LintReport report = RunOnFixtures(FixtureOptions(), {"lock_cycle.cc"});
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kLockCycle);
  EXPECT_EQ(report.findings[0].line, 24);
}

// Journal and Index both declare `mu`: the acquisition is reported with
// both candidates instead of vanishing from the lock graph.
TEST(DsflintFixtures, UnresolvedLockPinned) {
  Analyzer analyzer(FixtureOptions());
  const std::string path = FixturePath("unresolved_lock.cc");
  analyzer.AddFile(path, ReadFile(path));
  const LintReport report = analyzer.Run();
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kUnresolvedLock);
  EXPECT_EQ(report.findings[0].line, 18);
  EXPECT_NE(report.findings[0].message.find("Journal::mu, Index::mu"),
            std::string::npos)
      << report.findings[0].message;
  EXPECT_EQ(analyzer.DumpLockGraph(), "");
}

// Only the seeded cycle is found: the container call and the class's
// own size() under log_mu resolve to no lock (see the fixture).
TEST(DsflintFixtures, CallResolutionFindsOnlyTheRealCycle) {
  Analyzer analyzer(FixtureOptions());
  const std::string path = FixturePath("call_resolution.cc");
  analyzer.AddFile(path, ReadFile(path));
  const LintReport report = analyzer.Run();
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kLockCycle);
  EXPECT_EQ(report.findings[0].line, 34);
  EXPECT_EQ(analyzer.DumpLockGraph(),
            "Log::log_mu -> Table::table_mu  [via call Lookup()]  (" + path +
                ":50)\n"
                "Table::table_mu -> Log::log_mu  [via call Append()]  (" +
                path + ":34)\n");
}

TEST(DsflintFixtures, DiscardedStatusPinned) {
  const LintReport report =
      RunOnFixtures(FixtureOptions(), {"discarded_status.cc"});
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kDiscardedStatus);
  EXPECT_EQ(report.findings[0].line, 14);
}

TEST(DsflintFixtures, MetricCatalogPinned) {
  // Three seeded violations across the pair: an undeclared constant, a
  // raw literal registration (multiline — the old grep linter's blind
  // spot), and a stale catalog entry.
  const LintReport report = RunOnFixtures(
      FixtureOptions(), {"metric_names.h", "metric_rogue.cc"});
  ASSERT_EQ(report.findings.size(), 3u) << report.ToString();
  // Sorted by (file, line): the stale catalog constant first.
  EXPECT_EQ(report.findings[0].kind, RuleKind::kStaleMetricConstant);
  EXPECT_EQ(report.findings[0].line, 8);
  EXPECT_EQ(report.findings[1].kind, RuleKind::kUnknownMetricName);
  EXPECT_EQ(report.findings[1].line, 9);
  EXPECT_EQ(report.findings[2].kind, RuleKind::kUnknownMetricName);
  EXPECT_EQ(report.findings[2].line, 11);
}

TEST(DsflintFixtures, UnhandledSpanKindPinned) {
  const LintReport report = RunOnFixtures(FixtureOptions(), {"spankind.cc"});
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kUnhandledSpanKind);
  EXPECT_EQ(report.findings[0].line, 12);
  EXPECT_NE(report.findings[0].message.find("kBeta"), std::string::npos);
}

TEST(DsflintFixtures, RawPageIoPinned) {
  const LintReport report = RunOnFixtures(FixtureOptions(), {"raw_page.cc"});
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kRawPageIo);
  EXPECT_EQ(report.findings[0].line, 12);
}

TEST(DsflintFixtures, RawSyscallIoPinned) {
  const LintReport report =
      RunOnFixtures(FixtureOptions(), {"raw_syscall.cc"});
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kRawSyscallIo);
  EXPECT_EQ(report.findings[0].line, 15);
}

TEST(DsflintFixtures, CheckOnFaultPathPinned) {
  const LintReport report =
      RunOnFixtures(FixtureOptions(), {"fault_check.cc"});
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kCheckOnFaultPath);
  EXPECT_EQ(report.findings[0].line, 10);
}

TEST(DsflintFixtures, NakedMutexPinned) {
  const LintReport report =
      RunOnFixtures(FixtureOptions(), {"naked_mutex.cc"});
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].kind, RuleKind::kNakedMutex);
  EXPECT_EQ(report.findings[0].line, 8);
}

TEST(DsflintFixtures, CleanFixtureStaysClean) {
  const LintReport report = RunOnFixtures(FixtureOptions(), {"clean.cc"});
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(DsflintFixtures, LintAllowEscapesAFinding) {
  Analyzer analyzer(FixtureOptions());
  analyzer.AddFile("dsflint_fixtures/allowed.cc",
                   "namespace fixture {\n"
                   "class Cache {\n"
                   " private:\n"
                   "  // lint:allow(no-naked-mutex) justified here\n"
                   "  std::mutex mu_;\n"
                   "};\n"
                   "}  // namespace fixture\n");
  EXPECT_TRUE(analyzer.Run().ok());
}

TEST(DsflintFixtures, LintAllowOnlyReachesThreeLines) {
  Analyzer analyzer(FixtureOptions());
  analyzer.AddFile("dsflint_fixtures/too_far.cc",
                   "namespace fixture {\n"
                   "// lint:allow(no-naked-mutex) too far away\n"
                   "class Cache {\n"
                   " private:\n"
                   "\n"
                   "\n"
                   "  std::mutex mu_;\n"
                   "};\n"
                   "}  // namespace fixture\n");
  const LintReport report = analyzer.Run();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, RuleKind::kNakedMutex);
}

// The repo gate: src/ and tools/ lint clean against the declared
// hierarchy, with the analyzer's conservative defaults. This is the
// tier-1 ctest twin of scripts/run_static_analysis.sh layer 1.
TEST(DsflintRepo, TreeLintsClean) {
  const std::string root = DSF_REPO_ROOT;
  AnalyzerOptions options;
  options.hierarchy_file = root + "/tools/dsflint/lock_hierarchy.txt";
  Analyzer analyzer(std::move(options));
  int added = 0;
  for (const char* dir : {"/src", "/tools"}) {
    for (fs::recursive_directory_iterator it(root + dir), end; it != end;
         ++it) {
      if (!it->is_regular_file()) continue;
      const std::string p = it->path().generic_string();
      if (p.size() > 3 && (p.compare(p.size() - 3, 3, ".cc") == 0 ||
                           p.compare(p.size() - 2, 2, ".h") == 0)) {
        analyzer.AddFile(p, ReadFile(p));
        ++added;
      }
    }
  }
  ASSERT_GT(added, 50);
  const LintReport report = analyzer.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Every default rule scope names a path that exists. A scope left behind
// by a deleted directory matches no file, and its rule silently checks
// nothing. A scope is a path prefix: "src/core/" names a directory,
// "src/util/temp_dir" the files in src/util/ whose names start with
// temp_dir.
TEST(DsflintRepo, ConfiguredScopesExist) {
  const fs::path root = DSF_REPO_ROOT;
  const AnalyzerOptions defaults;
  for (const std::vector<std::string>* scopes :
       {&defaults.strict_dirs, &defaults.raw_page_dirs,
        &defaults.raw_syscall_dirs, &defaults.fault_dirs,
        &defaults.naked_mutex_exempt_dirs, &defaults.metric_free_dirs}) {
    for (const std::string& scope : *scopes) {
      const size_t cut = scope.rfind('/') + 1;  // 0 when there is no '/'
      const fs::path parent = root / scope.substr(0, cut);
      const std::string stem = scope.substr(cut);
      bool found = false;
      if (fs::is_directory(parent)) {
        for (const fs::directory_entry& entry :
             fs::directory_iterator(parent)) {
          found = found || entry.path().filename().string().rfind(stem, 0) == 0;
        }
      }
      EXPECT_TRUE(found) << "scope " << scope << " matches nothing under "
                         << root;
    }
  }
}

}  // namespace
}  // namespace dsflint
