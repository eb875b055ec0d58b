#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <string>

namespace dmc {
namespace {

// The registry is process-global; every test re-Configures and finishes
// by disabling so tests stay order-independent.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::Disable(); }
};

TEST_F(FailpointTest, DisabledByDefaultCostsNothing) {
  fail::Disable();
  EXPECT_FALSE(fail::Enabled());
  EXPECT_EQ(fail::Fire("any.site"), fail::Mode::kOff);
  EXPECT_TRUE(fail::InjectStatus("any.site").ok());
  EXPECT_TRUE(fail::SitesSeen().empty());
}

TEST_F(FailpointTest, EveryHitFiresWithoutTrigger) {
  ASSERT_TRUE(fail::Configure("io.read=error").ok());
  EXPECT_TRUE(fail::Enabled());
  for (int i = 0; i < 3; ++i) {
    const Status st = fail::InjectStatus("io.read");
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_TRUE(fail::IsInjectedFault(st));
  }
  EXPECT_EQ(fail::GetSiteStats("io.read").hits, 3u);
  EXPECT_EQ(fail::GetSiteStats("io.read").fires, 3u);
}

TEST_F(FailpointTest, NthHitTriggerFiresExactlyOnce) {
  ASSERT_TRUE(fail::Configure("io.read=error@2").ok());
  EXPECT_TRUE(fail::InjectStatus("io.read").ok());
  EXPECT_FALSE(fail::InjectStatus("io.read").ok());
  EXPECT_TRUE(fail::InjectStatus("io.read").ok());
  EXPECT_EQ(fail::GetSiteStats("io.read").fires, 1u);
  EXPECT_EQ(fail::TotalFires(), 1u);
}

TEST_F(FailpointTest, FromNthOnwardTrigger) {
  ASSERT_TRUE(fail::Configure("io.read=error@3+").ok());
  EXPECT_TRUE(fail::InjectStatus("io.read").ok());
  EXPECT_TRUE(fail::InjectStatus("io.read").ok());
  EXPECT_FALSE(fail::InjectStatus("io.read").ok());
  EXPECT_FALSE(fail::InjectStatus("io.read").ok());
}

TEST_F(FailpointTest, ModesMapToStatusCodes) {
  ASSERT_TRUE(
      fail::Configure("a=error;b=enospc;c=alloc;d=dataloss;e=short").ok());
  EXPECT_EQ(fail::InjectStatus("a").code(), StatusCode::kIOError);
  EXPECT_EQ(fail::InjectStatus("b").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fail::InjectStatus("c").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fail::InjectStatus("d").code(), StatusCode::kDataLoss);
  // InjectStatus cannot emulate truncation, so kShortWrite degrades to a
  // plain I/O error; sites that can truncate handle the mode themselves.
  EXPECT_EQ(fail::InjectStatus("e").code(), StatusCode::kIOError);
}

TEST_F(FailpointTest, OffModeNeverFiresButRecordsHits) {
  ASSERT_TRUE(fail::Configure("io.read=off").ok());
  EXPECT_TRUE(fail::InjectStatus("io.read").ok());
  EXPECT_EQ(fail::GetSiteStats("io.read").hits, 1u);
  EXPECT_EQ(fail::GetSiteStats("io.read").fires, 0u);
}

TEST_F(FailpointTest, RecordOnlyModeEnumeratesSites) {
  ASSERT_TRUE(fail::Configure("").ok());
  EXPECT_TRUE(fail::Enabled());
  EXPECT_TRUE(fail::InjectStatus("zeta.site").ok());
  EXPECT_TRUE(fail::InjectStatus("alpha.site").ok());
  EXPECT_TRUE(fail::InjectStatus("alpha.site").ok());
  const auto sites = fail::SitesSeen();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], "alpha.site");
  EXPECT_EQ(sites[1], "zeta.site");
  EXPECT_EQ(fail::TotalFires(), 0u);
}

TEST_F(FailpointTest, ProbabilityTriggerIsDeterministicInSeed) {
  auto run = [](const std::string& spec) {
    EXPECT_TRUE(fail::Configure(spec).ok());
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += fail::InjectStatus("io.read").ok() ? '.' : 'X';
    }
    return pattern;
  };
  const std::string a = run("io.read=error@p0.5;seed=11");
  const std::string b = run("io.read=error@p0.5;seed=11");
  const std::string c = run("io.read=error@p0.5;seed=12");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to collide across 64 flips
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST_F(FailpointTest, MalformedSpecIsRejectedAndDisables) {
  EXPECT_EQ(fail::Configure("io.read").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fail::Configure("io.read=bogus").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fail::Configure("io.read=error@x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fail::Configure("io.read=error@p2").code(),
            StatusCode::kInvalidArgument);
  // Counts are whole decimal values that fit in 64 bits.
  for (const char* spec :
       {"seed=abc", "seed=", "seed=-1", "seed=7x", "seed=18446744073709551616",
        "io.read=error@18446744073709551616",
        "io.read=error@99999999999999999999+"}) {
    EXPECT_EQ(fail::Configure(spec).code(), StatusCode::kInvalidArgument)
        << spec;
  }
  EXPECT_FALSE(fail::Enabled());
  EXPECT_TRUE(fail::Configure("io.read=error@18446744073709551615;"
                              "seed=18446744073709551615")
                  .ok());
}

TEST_F(FailpointTest, ReconfigureResetsCounters) {
  ASSERT_TRUE(fail::Configure("io.read=error").ok());
  EXPECT_FALSE(fail::InjectStatus("io.read").ok());
  ASSERT_TRUE(fail::Configure("io.read=error").ok());
  EXPECT_EQ(fail::GetSiteStats("io.read").hits, 0u);
  EXPECT_EQ(fail::TotalFires(), 0u);
}

TEST_F(FailpointTest, IsInjectedFaultIgnoresOrdinaryErrors) {
  EXPECT_FALSE(fail::IsInjectedFault(Status::OK()));
  EXPECT_FALSE(fail::IsInjectedFault(IOError("disk on fire")));
  ASSERT_TRUE(fail::Configure("s=dataloss").ok());
  EXPECT_TRUE(fail::IsInjectedFault(fail::InjectStatus("s")));
}

}  // namespace
}  // namespace dmc
