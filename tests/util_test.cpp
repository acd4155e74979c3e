#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include <limits>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/matrix.h"
#include "util/monotone_queue.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace rlcr::util {
namespace {

// ---------------------------------------------------------------- RNG

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixMixIsStateless) {
  EXPECT_EQ(SplitMix64::mix(123), SplitMix64::mix(123));
  EXPECT_NE(SplitMix64::mix(123), SplitMix64::mix(124));
  EXPECT_EQ(SplitMix64::mix2(1, 2), SplitMix64::mix2(1, 2));
  EXPECT_NE(SplitMix64::mix2(1, 2), SplitMix64::mix2(2, 1));
}

TEST(Rng, XoshiroSameSeedSameSequence) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, XoshiroDifferentSeedsDiffer) {
  Xoshiro256 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliMatchesProbability) {
  Xoshiro256 rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalHasRightMoments) {
  Xoshiro256 rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(2.0, 3.0));
  EXPECT_NEAR(mean(xs), 2.0, 0.15);
  EXPECT_NEAR(stddev(xs), 3.0, 0.15);
}

TEST(Rng, ShuffleIsPermutation) {
  Xoshiro256 rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

// ---------------------------------------------------------------- Matrix

TEST(Matrix, IdentitySolve) {
  const Matrix i3 = Matrix::identity(3);
  const LuFactor lu(i3);
  const std::vector<double> b{1.0, -2.0, 3.0};
  EXPECT_EQ(lu.solve(b), b);
}

TEST(Matrix, SolvesKnownSystem) {
  // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const LuFactor lu(a);
  const auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const LuFactor lu(a);
  const auto x = lu.solve({3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(LuFactor{a}, std::runtime_error);
}

TEST(Matrix, TinyScaleIsNotFlaggedSingular) {
  // MNA matrices carry femto-scale entries; the relative pivot test must
  // accept them.
  Matrix a(2, 2);
  a(0, 0) = 1e-15;
  a(0, 1) = 2e-16;
  a(1, 0) = 3e-16;
  a(1, 1) = 2e-15;
  EXPECT_NO_THROW(LuFactor{a});
}

TEST(Matrix, MultiplyAndTranspose) {
  Matrix a(2, 3);
  int v = 1;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
  const Matrix at = a.transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_EQ(at.cols(), 2u);
  const Matrix ata = at * a;
  EXPECT_EQ(ata.rows(), 3u);
  // (A^T A)(0,0) = 1*1 + 4*4 = 17
  EXPECT_DOUBLE_EQ(ata(0, 0), 17.0);
}

TEST(Matrix, MatVec) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const auto y = a * std::vector<double>{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, LeastSquaresRecoversLine) {
  // y = 3x + 1 with exact data.
  Matrix a(4, 2);
  std::vector<double> b(4);
  for (int i = 0; i < 4; ++i) {
    a(static_cast<std::size_t>(i), 0) = i;
    a(static_cast<std::size_t>(i), 1) = 1.0;
    b[static_cast<std::size_t>(i)] = 3.0 * i + 1.0;
  }
  const auto coef = least_squares(a, b);
  EXPECT_NEAR(coef[0], 3.0, 1e-6);
  EXPECT_NEAR(coef[1], 1.0, 1e-6);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_THROW(a.add_scaled(b, 1.0), std::invalid_argument);
  EXPECT_THROW(a * std::vector<double>{1.0}, std::invalid_argument);
}

// ---------------------------------------------------------------- Stats

TEST(Stats, MeanVarStd) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(1.25));
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> c{5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);
}

TEST(Stats, SpearmanIsRankBased) {
  // Monotone but nonlinear: rank correlation 1, linear correlation < 1.
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{1, 8, 27, 64, 125};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 1.0);
}

TEST(Stats, RanksAverageTies) {
  const auto r = ranks({10.0, 20.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, LinearFitExact) {
  const std::vector<double> x{0, 1, 2, 3};
  const std::vector<double> y{1, 3, 5, 7};
  const LinearFit f = linear_fit(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(Stats, EmptyInputsThrowOrDefault) {
  EXPECT_THROW(min_of({}), std::invalid_argument);
  EXPECT_THROW(max_of({}), std::invalid_argument);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

// ------------------------------------------------------------ TablePrinter

TEST(TablePrinter, RendersHeaderAndRows) {
  TablePrinter t("Title");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinter, FormatHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.146), "14.60%");
  EXPECT_EQ(fmt_percent(0.3, 0), "30%");
  EXPECT_EQ(fmt_int(42), "42");
}

// ---------------------------------------------------------------- Csv

TEST(Csv, WritesAndQuotes) {
  const std::string path = testing::TempDir() + "/rlcr_csv_test.csv";
  {
    CsvWriter w(path);
    w.write_row(std::vector<std::string>{"a", "b,c", "d\"e"});
    w.write_row(std::vector<double>{1.5, 2.5});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1.5,2.5");
}

// ----------------------------------------------------- MonotoneMaxQueue

using QEntry = MonotoneMaxQueue::Entry;

/// Builds `q` from a list of entries.
void build(MonotoneMaxQueue& q, const std::vector<QEntry>& entries) {
  q.build([&](auto visit) {
    for (const QEntry& e : entries) visit(e);
  });
}

/// Settles and pops everything left, returning the ids in pop order.
std::vector<std::int32_t> drain(MonotoneMaxQueue& q) {
  std::vector<std::int32_t> ids;
  while (q.settle()) {
    ids.push_back(q.top().id);
    q.pop();
  }
  return ids;
}

TEST(MonotoneMaxQueue, PopsInKeyThenIdOrder) {
  MonotoneMaxQueue q;
  build(q, {{1.0, 0, 0}, {3.0, 1, 0}, {3.0, 2, 0}, {2.0, 3, 0}});
  EXPECT_EQ(q.size(), 4u);
  // Equal keys: the larger id pops first.
  EXPECT_EQ(drain(q), (std::vector<std::int32_t>{2, 1, 3, 0}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(MonotoneMaxQueue, EmptyAndOneEntryBuilds) {
  MonotoneMaxQueue fresh;
  EXPECT_FALSE(fresh.settle());  // never built
  EXPECT_EQ(fresh.size(), 0u);

  MonotoneMaxQueue q;
  build(q, {});
  EXPECT_FALSE(q.settle());
  build(q, {{1.5, 0, 7}});
  ASSERT_TRUE(q.settle());
  EXPECT_EQ(q.top().id, 0);
  EXPECT_EQ(q.top().key, 1.5);
  EXPECT_EQ(q.top().tag, 7);  // the payload rides along
  q.pop();
  EXPECT_FALSE(q.settle());
}

TEST(MonotoneMaxQueue, PushedEntriesCompeteWithTheOpenBucket) {
  MonotoneMaxQueue q;
  build(q, {{5.0, 0, 0}, {4.0, 1, 0}, {1.0, 2, 0}});
  ASSERT_TRUE(q.settle());
  EXPECT_EQ(q.top().id, 0);
  q.pop();
  q.push({4.5, 0, 0});  // re-key below the key just taken
  ASSERT_TRUE(q.settle());
  EXPECT_EQ(q.top().id, 0);
  q.pop();
  q.push({0.5, 0, 0});  // now below every built entry
  EXPECT_EQ(drain(q), (std::vector<std::int32_t>{1, 2, 0}));
}

TEST(MonotoneMaxQueue, AllKeysInOneBucket) {
  std::vector<QEntry> entries;
  for (std::int32_t i = 0; i < 200; ++i) {
    entries.push_back({1.0 + (i % 17) * 1e-9, i, 0});
  }
  for (const QEntry& e : entries) {
    ASSERT_EQ(MonotoneMaxQueue::bucket_of(e.key),
              MonotoneMaxQueue::bucket_of(1.0));
  }
  MonotoneMaxQueue q;
  build(q, entries);
  std::vector<QEntry> want = entries;
  std::sort(want.begin(), want.end(), [](const QEntry& a, const QEntry& b) {
    return a.key != b.key ? a.key > b.key : a.id > b.id;
  });
  const std::vector<std::int32_t> got = drain(q);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i].id);
}

TEST(MonotoneMaxQueue, BucketOfFollowsKeyOrder) {
  // Ascending, across signs, exponents, subnormals and infinities.
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> keys = {
      -inf,  -1e300, -3.0, -2.5, -1.0, -1e-300, -tiny, 0.0,
      tiny,  1e-300, 0.11, 1.0,  1.0625, 2.0,  12.37, 1e300, inf};
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LE(MonotoneMaxQueue::bucket_of(keys[i - 1]),
              MonotoneMaxQueue::bucket_of(keys[i]))
        << keys[i - 1] << " vs " << keys[i];
  }
  // Far-apart keys land in different buckets.
  const auto bucket = &MonotoneMaxQueue::bucket_of;
  EXPECT_LT(bucket(-1.0), bucket(0.0));
  EXPECT_LT(bucket(1.0), bucket(2.0));
  EXPECT_LT(bucket(1e-300), bucket(1.0));
}

TEST(MonotoneMaxQueue, KeysSpanningExponentsAndSigns) {
  const std::vector<QEntry> entries = {
      {-2.5, 0, 0},  {1e300, 1, 0}, {1e-300, 2, 0}, {-1e-300, 3, 0},
      {0.75, 4, 0},  {-1e300, 5, 0}, {3.0, 6, 0},   {-2.5, 7, 0},
      {1e-300, 8, 0}, {0.0, 9, 0}};
  MonotoneMaxQueue q;
  build(q, entries);
  EXPECT_EQ(drain(q),
            (std::vector<std::int32_t>{1, 6, 4, 8, 2, 9, 3, 7, 0, 5}));
}

TEST(MonotoneMaxQueue, NegativeZeroIsPositiveZero) {
  EXPECT_EQ(MonotoneMaxQueue::bucket_of(-0.0),
            MonotoneMaxQueue::bucket_of(0.0));
  // -0.0 == +0.0, so the id alone orders them, across both signs.
  MonotoneMaxQueue q;
  build(q,
        {{0.0, 1, 0}, {-0.0, 4, 0}, {-0.0, 2, 0}, {0.0, 3, 0}, {-1.0, 5, 0}});
  EXPECT_EQ(drain(q), (std::vector<std::int32_t>{4, 3, 2, 1, 5}));
}

TEST(MonotoneMaxQueue, ChunkedLayOutMatchesSerialBuild) {
  Xoshiro256 rng(11);
  std::vector<QEntry> entries;
  for (std::int32_t i = 0; i < 3000; ++i) {
    entries.push_back({static_cast<double>(rng.below(400)) / 8.0 - 10.0, i, i});
  }
  MonotoneMaxQueue serial;
  build(serial, entries);

  // Three uneven chunks fill the same queue through the parallel protocol.
  const std::size_t bounds[] = {0, 100, 2500, entries.size()};
  std::vector<std::uint32_t> counts(3 * MonotoneMaxQueue::kBuckets, 0);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      ++counts[c * MonotoneMaxQueue::kBuckets +
               MonotoneMaxQueue::bucket_of(entries[i].key)];
    }
  }
  MonotoneMaxQueue chunked;
  chunked.lay_out(counts);
  for (std::size_t c = 3; c-- > 0;) {  // any chunk order fills the same slots
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      chunked.slot(counts[c * MonotoneMaxQueue::kBuckets +
                          MonotoneMaxQueue::bucket_of(entries[i].key)]++) =
          entries[i];
    }
  }
  EXPECT_EQ(chunked.size(), entries.size());
  EXPECT_EQ(drain(chunked), drain(serial));
}

// Randomized differential against a brute-force (key, id) argmax over the
// live items: build, pops, pushes at or below the key just taken (the only
// pushes the queue allows), and items the caller retires, which the queue
// must skip whether they sit in an unopened bucket, the open one, or among
// the pushed entries.
TEST(MonotoneMaxQueue, MatchesBruteForceArgmax) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Xoshiro256 rng(seed);
    const std::int32_t n = 1500;
    // Keys from a few regimes: heavy ties, one bucket, many exponents and
    // both signs (with both zeros).
    auto draw = [&]() -> double {
      switch (rng.below(4)) {
        case 0: return static_cast<double>(rng.below(6));
        case 1: return 2.0 + static_cast<double>(rng.below(1000)) * 1e-6;
        case 2: return std::ldexp(1.0 + rng.uniform(),
                                  static_cast<int>(rng.below(80)) - 40);
        default: return (rng.below(2) ? -1.0 : 1.0) *
                        static_cast<double>(rng.below(3)) * 0.5;
      }
    };
    std::vector<QEntry> entries;
    std::vector<double> live_key(static_cast<std::size_t>(n));
    std::vector<std::uint8_t> live(static_cast<std::size_t>(n), 1);
    std::vector<std::uint8_t> dead(static_cast<std::size_t>(n), 0);
    for (std::int32_t i = 0; i < n; ++i) {
      live_key[static_cast<std::size_t>(i)] = draw();
      entries.push_back({live_key[static_cast<std::size_t>(i)], i, -i});
    }
    MonotoneMaxQueue q;
    build(q, entries);
    const auto is_dead = [&](const QEntry& e) {
      return dead[static_cast<std::size_t>(e.id)] != 0;
    };
    std::size_t steps = 0;
    for (;;) {
      // Brute force: the largest (key, id) among live, not-dead items.
      std::int32_t best = -1;
      for (std::int32_t i = 0; i < n; ++i) {
        const auto u = static_cast<std::size_t>(i);
        if (!live[u] || dead[u]) continue;
        const auto b = static_cast<std::size_t>(best);
        if (best < 0 || live_key[u] > live_key[b] ||
            (live_key[u] == live_key[b] && i > best)) {
          best = i;
        }
      }
      const bool any = q.settle(is_dead);
      ASSERT_EQ(any, best >= 0) << "seed " << seed << " step " << steps;
      if (!any) break;
      const QEntry top = q.top();
      ASSERT_EQ(top.id, best) << "seed " << seed << " step " << steps;
      ASSERT_EQ(top.key, live_key[static_cast<std::size_t>(best)]);
      ASSERT_EQ(top.tag, -best);
      q.pop();
      live[static_cast<std::size_t>(best)] = 0;
      ++steps;
      const auto roll = rng.below(10);
      if (roll < 4) {
        // Re-key: back in at or below the key just taken.
        const double below =
            rng.below(4) == 0 ? top.key
                              : top.key - std::ldexp(rng.uniform(),
                                                     static_cast<int>(
                                                         rng.below(12)) - 4);
        live_key[static_cast<std::size_t>(best)] = below;
        live[static_cast<std::size_t>(best)] = 1;
        q.push({below, best, -best});
      } else if (roll < 6) {
        // The caller retires a random item; its entry stays in the queue.
        dead[rng.below(static_cast<std::uint64_t>(n))] = 1;
      }
    }
    EXPECT_GT(steps, static_cast<std::size_t>(n) / 2);
  }
}

// -------------------------------------------------------------- Stopwatch

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch w;
  const double t0 = w.seconds();
  EXPECT_GE(t0, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(w.seconds(), t0);
  w.reset();
  EXPECT_LT(w.seconds(), 1.0);
}

}  // namespace
}  // namespace rlcr::util
