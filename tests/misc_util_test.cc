// Coverage for the supporting utilities: logging levels, fatal check
// macros (death tests), the smart-placement spill rule, and small
// diagnostics that the larger suites exercise only incidentally.

#include <gtest/gtest.h>

#include "core/control2.h"
#include "storage/disk_model.h"
#include "util/check.h"
#include "util/logging.h"
#include "workload/workload.h"

namespace dsf {
namespace {

TEST(Logging, LevelGatesEmission) {
  const LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  testing::internal::CaptureStderr();
  DSF_LOG(kInfo) << "hidden";
  DSF_LOG(kWarning) << "also hidden";
  DSF_LOG(kError) << "visible";
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("hidden"), std::string::npos);
  EXPECT_NE(err.find("visible"), std::string::npos);
  EXPECT_NE(err.find("ERROR"), std::string::npos);
  SetLogLevel(previous);
}

TEST(Logging, DebugLevelEmitsEverything) {
  const LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  DSF_LOG(kDebug) << "dbg " << 42;
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("dbg 42"), std::string::npos);
  SetLogLevel(previous);
}

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, CheckAbortsWithMessage) {
  EXPECT_DEATH({ DSF_CHECK(1 == 2) << "custom context " << 7; },
               "DSF_CHECK failed: 1 == 2.*custom context 7");
}

TEST(CheckDeathTest, CheckPassesSilently) {
  DSF_CHECK(2 + 2 == 4) << "never printed";
  SUCCEED();
}

TEST(CheckDeathTest, PageMisuseAborts) {
  EXPECT_DEATH(
      {
        Page p(4);
        (void)p.MinKey();  // empty page
      },
      "MinKey on empty page");
}

TEST(CheckDeathTest, PageFileRangeAborts) {
  EXPECT_DEATH({ PageFile f(0, 4); }, "at least one page");
}

TEST(DiskModel, ToStringMentionsParameters) {
  DiskModel disk{12.5, 0.5};
  const std::string s = disk.ToString();
  EXPECT_NE(s.find("12.5"), std::string::npos);
  EXPECT_NE(s.find("0.5"), std::string::npos);
}

TEST(SmartPlacement, SpillsPastSaturatedBlockIntoEmptyNeighbor) {
  Control2::Options options;
  options.config.num_pages = 8;
  options.config.d = 9;
  options.config.D = 18;
  options.config.smart_placement = true;
  options.J = 3;
  options.allow_gap_violation_for_testing = true;
  std::unique_ptr<Control2> c = std::move(*Control2::Create(options));
  // Page 3 one short of the warning band (g(leaf,2/3) = 17); page 4
  // empty; everything else calm. An append-after-page-3 key must spill
  // into page 4 instead of activating page 3.
  std::vector<std::vector<Record>> layout(8);
  for (int64_t i = 0; i < 16; ++i) {
    layout[2].push_back(Record{static_cast<Key>(3000 + i), 0});
  }
  layout[5].push_back(Record{6000, 0});
  ASSERT_TRUE(c->LoadLayout(layout).ok());
  ASSERT_TRUE(c->Insert(Record{3500, 0}).ok());
  const Calibrator& cal = c->calibrator();
  EXPECT_EQ(cal.Count(cal.LeafOf(4)), 1);   // spilled
  EXPECT_EQ(cal.Count(cal.LeafOf(3)), 16);  // untouched
  EXPECT_EQ(c->stats().activations, 0);
  EXPECT_TRUE(c->ValidateInvariants().ok());
}

TEST(SmartPlacement, DoesNotSpillWhenTargetHasHeadroom) {
  Control2::Options options;
  options.config.num_pages = 8;
  options.config.d = 9;
  options.config.D = 18;
  options.config.smart_placement = true;
  options.allow_gap_violation_for_testing = true;
  std::unique_ptr<Control2> c = std::move(*Control2::Create(options));
  std::vector<std::vector<Record>> layout(8);
  for (int64_t i = 0; i < 5; ++i) {
    layout[2].push_back(Record{static_cast<Key>(3000 + i), 0});
  }
  ASSERT_TRUE(c->LoadLayout(layout).ok());
  ASSERT_TRUE(c->Insert(Record{3500, 0}).ok());
  const Calibrator& cal = c->calibrator();
  EXPECT_EQ(cal.Count(cal.LeafOf(3)), 6);  // went into the target page
}

TEST(SmartPlacement, NeverSpillsPastTheSuccessorBlock) {
  Control2::Options options;
  options.config.num_pages = 8;
  options.config.d = 9;
  options.config.D = 18;
  options.config.smart_placement = true;
  options.J = 3;
  options.allow_gap_violation_for_testing = true;
  std::unique_ptr<Control2> c = std::move(*Control2::Create(options));
  // Saturated page 3 followed directly by the successor's page 4: no
  // empty block exists between predecessor and successor, so the insert
  // must go to page 3 (and may overflow transiently).
  std::vector<std::vector<Record>> layout(8);
  for (int64_t i = 0; i < 17; ++i) {
    layout[2].push_back(Record{static_cast<Key>(3000 + i), 0});
  }
  layout[3].push_back(Record{4000, 0});
  ASSERT_TRUE(c->LoadLayout(layout).ok());
  ASSERT_TRUE(c->Insert(Record{3500, 0}).ok());
  EXPECT_TRUE(c->ValidateInvariants().ok());
  EXPECT_TRUE(c->Contains(3500));
}

}  // namespace
}  // namespace dsf
