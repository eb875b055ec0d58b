// The regression gate of tools/check.sh stages (i2) and (i3),
// bench::MeetsBaseline: a gated record passes at 0.90x of its baseline
// throughput and fails at 0.89x, a record with no baseline entry is
// skipped, and a run with no comparable record fails.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace dmc {
namespace {

using bench::BenchRecord;

BenchRecord Record(const std::string& name, double rows_per_sec) {
  BenchRecord r;
  r.bench = name;
  r.rows_per_sec = rows_per_sec;
  return r;
}

bool Gated(const BenchRecord& r) { return r.bench.rfind("scan_", 0) == 0; }

class BenchBaselineTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/bench_baseline_test.json";
    ASSERT_TRUE(bench::WriteBenchJson(
        {Record("scan_imp_dense/simd", 1000.0),
         Record("scan_sim_dense/simd", 2000.0),
         Record("table_churn", 500.0)},
        path_));
  }

  std::string path_;
};

TEST_F(BenchBaselineTest, NinetyPercentPassesAndEightyNineFails) {
  EXPECT_TRUE(bench::MeetsBaseline({Record("scan_imp_dense/simd", 900.0),
                                    Record("scan_sim_dense/simd", 1800.0)},
                                   path_, Gated));
  EXPECT_FALSE(bench::MeetsBaseline({Record("scan_imp_dense/simd", 890.0),
                                     Record("scan_sim_dense/simd", 2400.0)},
                                    path_, Gated));
}

TEST_F(BenchBaselineTest, RecordsWithoutABaselineEntryAreSkipped) {
  EXPECT_TRUE(bench::MeetsBaseline({Record("scan_imp_dense/simd", 1000.0),
                                    Record("scan_imp_sparse/simd", 1.0)},
                                   path_, Gated));
}

TEST_F(BenchBaselineTest, RecordsTheSelectionLeavesOutAreNotCompared) {
  // table_churn has a baseline entry but is not a scan_* record.
  EXPECT_TRUE(bench::MeetsBaseline({Record("scan_imp_dense/simd", 1000.0),
                                    Record("table_churn", 1.0)},
                                   path_, Gated));
  const auto all = [](const BenchRecord&) { return true; };
  EXPECT_FALSE(bench::MeetsBaseline({Record("table_churn", 1.0)}, path_, all));
}

TEST_F(BenchBaselineTest, NoComparableRecordFails) {
  EXPECT_FALSE(bench::MeetsBaseline({Record("scan_imp_sparse/simd", 1000.0)},
                                    path_, Gated));
  EXPECT_FALSE(bench::MeetsBaseline({}, path_, Gated));
  EXPECT_FALSE(bench::MeetsBaseline({Record("scan_imp_dense/simd", 1000.0)},
                                    path_ + ".missing", Gated));
}

}  // namespace
}  // namespace dmc
