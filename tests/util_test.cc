#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/binomial.h"
#include "util/flat_map64.h"
#include "util/flat_set64.h"
#include "util/histogram.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/timer.h"

namespace loom {
namespace util {
namespace {

// ---------------------------------------------------------------- binomial

TEST(BinomialTest, LogFactorialBasics) {
  EXPECT_NEAR(LogFactorial(0), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(1), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(5), std::log(120.0), 1e-9);
}

TEST(BinomialTest, CoefficientMatchesPascal) {
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(5, 2)), 10.0, 1e-6);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(10, 0)), 1.0, 1e-6);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(10, 10)), 1.0, 1e-6);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(52, 5)), 2598960.0, 1.0);
}

TEST(BinomialTest, PmfEdgeCases) {
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 9, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 6, 0.5), 0.0);  // k > n
}

TEST(BinomialTest, PmfSumsToOne) {
  for (double p : {0.1, 0.5, 0.9}) {
    double sum = 0;
    for (uint64_t k = 0; k <= 30; ++k) sum += BinomialPmf(30, k, p);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(BinomialTest, PmfMatchesClosedFormSmall) {
  // Binomial(4, 0.5): P(X=2) = 6/16.
  EXPECT_NEAR(BinomialPmf(4, 2, 0.5), 0.375, 1e-12);
}

TEST(BinomialTest, CdfMonotoneInK) {
  double prev = -1;
  for (uint64_t k = 0; k <= 20; ++k) {
    double c = BinomialCdf(20, k, 0.3);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);
}

TEST(BinomialTest, CdfFullRangeIsOne) {
  EXPECT_DOUBLE_EQ(BinomialCdf(10, 10, 0.7), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCdf(10, 25, 0.7), 1.0);
}

// ------------------------------------------------------------ table writer

TEST(TableWriterTest, AlignsAndUnderlines) {
  TableWriter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableWriterTest, ShortRowsPadded) {
  TableWriter t({"a", "b", "c"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(TableWriterTest, Formatting) {
  EXPECT_EQ(TableWriter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::Fmt(2.0, 0), "2");
  EXPECT_EQ(TableWriter::Pct(0.4215, 1), "42.1%");
  EXPECT_EQ(TableWriter::Pct(1.0, 0), "100%");
}

// ------------------------------------------------------------- string util

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a-b-c", '-'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a--b", '-'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", '-'), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\ta b\n"), "a b");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, HumanCount) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1200), "1.2k");
  EXPECT_EQ(HumanCount(2500000), "2.5M");
  EXPECT_EQ(HumanCount(1300000000ULL), "1.3B");
}

// ------------------------------------------------------------------- timer

TEST(TimerTest, MonotoneNonNegative) {
  Timer t;
  int64_t a = t.ElapsedUs();
  int64_t b = t.ElapsedUs();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  EXPECT_GE(t.ElapsedMs(), 0.0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

// ------------------------------------------------------------ flat set/map

TEST(FlatSet64Test, InsertContainsErase) {
  FlatSet64 s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.Insert(42));
  EXPECT_FALSE(s.Insert(42));  // duplicate
  EXPECT_TRUE(s.Contains(42));
  EXPECT_FALSE(s.Contains(43));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Erase(42));
  EXPECT_FALSE(s.Erase(42));
  EXPECT_FALSE(s.Contains(42));
  EXPECT_TRUE(s.empty());
}

TEST(FlatSet64Test, SurvivesGrowthAndChurn) {
  FlatSet64 s;
  // Heavy insert/erase churn with a small live set: the table must stay
  // correct across rehashes and tombstone recycling.
  for (uint64_t round = 0; round < 50; ++round) {
    for (uint64_t i = 0; i < 100; ++i) {
      EXPECT_TRUE(s.Insert(round * 1000 + i));
    }
    for (uint64_t i = 0; i < 100; ++i) {
      EXPECT_TRUE(s.Contains(round * 1000 + i));
    }
    for (uint64_t i = 0; i < 95; ++i) {
      EXPECT_TRUE(s.Erase(round * 1000 + i));
    }
  }
  EXPECT_EQ(s.size(), 50u * 5u);
  EXPECT_TRUE(s.Contains(49 * 1000 + 97));
  EXPECT_FALSE(s.Contains(49 * 1000 + 3));
}

TEST(FlatMap64Test, InsertFindOverwriteClear) {
  FlatMap64<int> m;
  EXPECT_EQ(m.Find(7), nullptr);
  m.Insert(7, 70);
  m.Insert(9, 90);
  ASSERT_NE(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(7), 70);
  m.Insert(7, 71);  // overwrite
  EXPECT_EQ(*m.Find(7), 71);
  EXPECT_EQ(m.size(), 2u);
  for (uint64_t i = 100; i < 400; ++i) m.Insert(i, static_cast<int>(i));
  for (uint64_t i = 100; i < 400; ++i) {
    ASSERT_NE(m.Find(i), nullptr) << i;
    EXPECT_EQ(*m.Find(i), static_cast<int>(i));
  }
  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Find(7), nullptr);
}

TEST(TimerTest, StartResets) {
  Timer t;
  // Burn a little time.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  (void)x;
  int64_t before = t.ElapsedUs();
  t.Start();
  EXPECT_LE(t.ElapsedUs(), before + 1000000);
}

TEST(HistogramTest, EmptyIsZeroEverywhere) {
  Histogram h;
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.Quantile(0.5), 0u);
  EXPECT_EQ(s.Summary(), "n=0");
}

TEST(HistogramTest, BucketsByBitWidth) {
  Histogram h;
  h.Add(0);
  h.Add(1);
  h.Add(2);
  h.Add(3);
  h.Add(4, 3);  // weighted
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.buckets[0], 1u);  // value 0
  EXPECT_EQ(s.buckets[1], 1u);  // value 1
  EXPECT_EQ(s.buckets[2], 2u);  // values in [2, 3]
  EXPECT_EQ(s.buckets[3], 3u);  // values in [4, 7]
  EXPECT_EQ(s.Count(), 7u);
  EXPECT_EQ(s.max, 4u);
}

TEST(HistogramTest, QuantilesWalkBucketsAndClampToMax) {
  Histogram h;
  h.Add(100, 99);  // bucket 7: [64, 127]
  h.Add(5000);     // bucket 13: [4096, 8191]
  const HistogramSnapshot s = h.Snapshot();
  // p50 lands in the 99-sample bucket: its midpoint.
  EXPECT_EQ(s.Quantile(0.5), 64u + (127u - 64u) / 2);
  // p100 lands in the tail bucket, whose midpoint (6143) exceeds the
  // observed max — the estimate must clamp to it.
  EXPECT_EQ(s.Quantile(1.0), 5000u);
  EXPECT_EQ(s.max, 5000u);
}

// Nearest-rank with ceil (1-based): rank ⌈q·n⌉. The old floor-based rank
// rounded small samples down a whole rank (p90 of 10 samples picked the
// 9th instead of the ⌈9⌉th = 9th but p50 of 3 picked the 1st instead of
// the 2nd) and sent p100 to a bucket midpoint instead of the true max.
TEST(HistogramTest, QuantileUsesCeilNearestRank) {
  Histogram h;
  h.Add(1);   // bucket 1
  h.Add(2);   // bucket 2
  h.Add(8);   // bucket 4: [8, 15]
  const HistogramSnapshot s = h.Snapshot();
  // n=3: p50 → rank ⌈1.5⌉ = 2 → the middle sample's bucket.
  EXPECT_EQ(s.Quantile(0.5), 2u);
  // p0 → rank clamps up to 1 → the smallest sample's bucket.
  EXPECT_EQ(s.Quantile(0.0), 1u);
  // p100 → the tracked maximum exactly, never a midpoint estimate.
  EXPECT_EQ(s.Quantile(1.0), 8u);
  // Out-of-domain q behaves as the nearest endpoint.
  EXPECT_EQ(s.Quantile(-0.5), 1u);
  EXPECT_EQ(s.Quantile(2.0), 8u);
}

TEST(HistogramTest, SingleSampleIsEveryQuantile) {
  Histogram h;
  h.Add(700);  // bucket 10: [512, 1023], midpoint 767
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Quantile(0.0), 700u);
  EXPECT_EQ(s.Quantile(0.5), 700u);
  EXPECT_EQ(s.Quantile(0.99), 700u);
  EXPECT_EQ(s.Quantile(1.0), 700u);
}

// A bucket whose midpoint overshoots the observed max must clamp at every
// quantile that lands in it, not only at p100.
TEST(HistogramTest, SaturatedBucketClampsMidQuantilesToMax) {
  Histogram h;
  h.Add(4100, 10);  // all mass in bucket 13 [4096, 8191], midpoint 6143
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Quantile(0.5), 4100u);
  EXPECT_EQ(s.Quantile(0.9), 4100u);
  EXPECT_EQ(s.Quantile(1.0), 4100u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(42, 10);
  h.Reset();
  EXPECT_EQ(h.Snapshot().Count(), 0u);
  EXPECT_EQ(h.Snapshot().max, 0u);
}

TEST(HistogramTest, FormatNsTiers) {
  EXPECT_EQ(HistogramSnapshot::FormatNs(874), "874ns");
  EXPECT_EQ(HistogramSnapshot::FormatNs(12'300), "12.3us");
  EXPECT_EQ(HistogramSnapshot::FormatNs(4'700'000), "4.7ms");
  EXPECT_EQ(HistogramSnapshot::FormatNs(1'200'000'000), "1.20s");
}

}  // namespace
}  // namespace util
}  // namespace loom
