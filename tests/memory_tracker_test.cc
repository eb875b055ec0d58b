#include "util/memory_tracker.h"

#include <gtest/gtest.h>

namespace dmc {
namespace {

TEST(MemoryTrackerTest, TracksCurrentAndPeak) {
  MemoryTracker t;
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_EQ(t.peak_bytes(), 0u);
  t.Add(100);
  t.Add(50);
  EXPECT_EQ(t.current_bytes(), 150u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.Sub(120);
  EXPECT_EQ(t.current_bytes(), 30u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.Add(10);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.Add(200);
  EXPECT_EQ(t.peak_bytes(), 240u);
}

TEST(MemoryTrackerTest, SubClampsAtZero) {
  MemoryTracker t;
  t.Add(10);
  t.Sub(100);
  EXPECT_EQ(t.current_bytes(), 0u);
}

}  // namespace
}  // namespace dmc
