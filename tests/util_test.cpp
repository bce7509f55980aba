// Unit tests for dsp_util: rng, stats, time, table, csv, env, log.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/csv.h"
#include "util/env.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/time.h"

namespace dsp {
namespace {

// ---------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------

TEST(TimeTest, FromSecondsRoundsToMicroseconds) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.5), 500 * kMillisecond);
  EXPECT_EQ(from_seconds(1e-6), 1);
  EXPECT_EQ(from_seconds(0.0), 0);
  EXPECT_EQ(from_seconds(-1.0), -kSecond);
}

TEST(TimeTest, ToSecondsInverts) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(kMinute), 60.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
}

TEST(TimeTest, FromMinutes) { EXPECT_EQ(from_minutes(2.0), 2 * kMinute); }

TEST(TimeTest, FormatRanges) {
  EXPECT_EQ(format_time(kNoTime), "--");
  EXPECT_EQ(format_time(90 * kMinute), "1h30m");
  EXPECT_EQ(format_time(90 * kSecond), "1m30s");
  EXPECT_EQ(format_time(from_seconds(2.5)), "2.5s");
  EXPECT_EQ(format_time(500), "0.5ms");
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(19);
  std::vector<double> v;
  for (int i = 0; i < 40000; ++i) v.push_back(rng.lognormal(2.0, 0.5));
  EXPECT_NEAR(median_of(v), std::exp(2.0), 0.15);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(37);
  std::vector<double> w{1.0, 3.0};
  int count1 = 0;
  for (int i = 0; i < 40000; ++i)
    if (rng.weighted_index(w) == 1) ++count1;
  EXPECT_NEAR(static_cast<double>(count1) / 40000.0, 0.75, 0.02);
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

TEST(StatsTest, RunningStatBasics) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(StatsTest, RunningStatEmpty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatsTest, MergeMatchesSequential) {
  Rng rng(43);
  RunningStat whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    whole.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StatsTest, MergeWithEmpty) {
  RunningStat a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median_of(v), 2.5);
}

TEST(StatsTest, PercentileEmptyAndSingle) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.99), 7.0);
}

TEST(StatsTest, MeanOf) {
  const std::vector<double> v{1.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 3.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

// ---------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  Table t("demo");
  t.set_header({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  const std::string out = t.render();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find('\n'), std::string::npos);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, FmtHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_count(42), "42");
}

// ---------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------

TEST(CsvTest, ParsesPlainFields) {
  const auto f = parse_csv_line("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(CsvTest, ParsesQuotedFieldsWithCommasAndQuotes) {
  const auto f = parse_csv_line("\"a,b\",\"say \"\"hi\"\"\",c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "say \"hi\"");
}

TEST(CsvTest, EmptyFields) {
  const auto f = parse_csv_line(",,");
  ASSERT_EQ(f.size(), 3u);
  for (const auto& s : f) EXPECT_TRUE(s.empty());
}

TEST(CsvTest, EscapeRoundTrip) {
  for (const std::string s : {"plain", "with,comma", "with\"quote", "a\nb"}) {
    const std::string line = csv_escape(s);
    const auto parsed = parse_csv_line(line);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], s);
  }
}

TEST(CsvTest, ReaderSkipsBlanksAndComments) {
  std::istringstream in("a,b\n\n# comment\nc,d\n");
  CsvReader reader(in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.next(fields));
  EXPECT_EQ(fields[0], "a");
  ASSERT_TRUE(reader.next(fields));
  EXPECT_EQ(fields[0], "c");
  EXPECT_FALSE(reader.next(fields));
}

TEST(CsvTest, WriterQuotesWhenNeeded) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write({"a", "b,c"});
  EXPECT_EQ(out.str(), "a,\"b,c\"\n");
}

// ---------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------

TEST(EnvTest, FallbackWhenUnset) {
  ::unsetenv("DSP_TEST_ENV_X");
  EXPECT_EQ(env_string("DSP_TEST_ENV_X", "d"), "d");
}

TEST(EnvTest, ParsesSetValues) {
  ::setenv("DSP_TEST_ENV_Y", "41", 1);
  EXPECT_EQ(env_string("DSP_TEST_ENV_Y", ""), "41");
  ::unsetenv("DSP_TEST_ENV_Y");
}

// ---------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------

TEST(LogTest, FormatLineHasTagTimestampAndNewline) {
  EXPECT_EQ(log_detail::format_line(LogLevel::kWarn, 1.5, "disk full"),
            "[dsp WARN +1.500s] disk full\n");
  EXPECT_EQ(log_detail::format_line(LogLevel::kDebug, 0.0, ""),
            "[dsp DEBUG +0.000s] \n");
  const std::string line =
      log_detail::format_line(LogLevel::kError, 12.3456, "x");
  // Millisecond precision on the monotonic stamp.
  EXPECT_NE(line.find("+12.346s"), std::string::npos) << line;
}

TEST(LogTest, LevelNames) {
  EXPECT_STREQ(to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(to_string(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(to_string(LogLevel::kWarn), "WARN");
  EXPECT_STREQ(to_string(LogLevel::kError), "ERROR");
  EXPECT_STREQ(to_string(LogLevel::kOff), "OFF");
}

TEST(LogTest, EnabledFollowsThreshold) {
  const LogLevel saved = log_detail::threshold();
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
  set_log_level(saved);
}

}  // namespace
}  // namespace dsp
