#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "ktable/keff.h"
#include "ktable/lsk_builder.h"
#include "ktable/lsk_table.h"
#include "util/stats.h"

namespace rlcr::ktable {
namespace {

TEST(Keff, ProfileDecaysMonotonically) {
  const KeffModel m;
  EXPECT_DOUBLE_EQ(m.profile(0), 0.0);
  EXPECT_DOUBLE_EQ(m.profile(1), 1.0);
  for (int d = 2; d < 32; ++d) {
    EXPECT_LT(m.profile(d), m.profile(d - 1)) << "d=" << d;
    EXPECT_GT(m.profile(d), 0.0);
  }
}

TEST(Keff, ProfileClampsAtMaxSeparation) {
  KeffParams p;
  p.max_separation = 8;
  const KeffModel m(p);
  EXPECT_DOUBLE_EQ(m.profile(8), m.profile(100));
}

TEST(Keff, ScaleMultiplies) {
  KeffParams p;
  p.scale = 2.5;
  const KeffModel m(p);
  EXPECT_DOUBLE_EQ(m.profile(1), 2.5);
}

TEST(Keff, PairCouplingSymmetricAndShieldAttenuated) {
  const KeffModel m;
  //               0  1        2  3        4
  const SlotVec slots{0, kEmptySlot, 1, kShieldSlot, 2};
  EXPECT_DOUBLE_EQ(m.pair_coupling(slots, 0, 2), m.pair_coupling(slots, 2, 0));
  EXPECT_DOUBLE_EQ(m.pair_coupling(slots, 0, 2), m.profile(2));
  // One shield between slots 2 and 4.
  EXPECT_NEAR(m.pair_coupling(slots, 2, 4),
              m.profile(2) * m.params().shield_attenuation, 1e-12);
  // Non-signal slots never couple.
  EXPECT_DOUBLE_EQ(m.pair_coupling(slots, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.pair_coupling(slots, 0, 3), 0.0);
  EXPECT_DOUBLE_EQ(m.pair_coupling(slots, 0, 0), 0.0);
}

TEST(Keff, TwoShieldsAttenuateTwice) {
  const KeffModel m;
  const SlotVec slots{0, kShieldSlot, kShieldSlot, 1};
  const double a = m.params().shield_attenuation;
  EXPECT_NEAR(m.pair_coupling(slots, 0, 3), m.profile(3) * a * a, 1e-12);
}

TEST(Keff, TotalCouplingSumsAggressorsOnly) {
  const KeffModel m;
  const SlotVec slots{0, 1, 2, 3};
  // Only nets 1 and 3 attack the victim in slot 0.
  const double ki = m.total_coupling(
      slots, 0, [](Slot net) { return net == 1 || net == 3; });
  EXPECT_NEAR(ki, m.profile(1) + m.profile(3), 1e-12);
}

TEST(Keff, VictimMustBeASignal) {
  const KeffModel m;
  const SlotVec slots{kShieldSlot, 1};
  EXPECT_DOUBLE_EQ(m.total_coupling(slots, 0, [](Slot) { return true; }), 0.0);
}

TEST(Keff, AttenuationPastTheTableMatchesStdPow) {
  const KeffModel m;
  for (int s : {0, 1, 5, 63, 64, 65, 200}) {
    EXPECT_EQ(m.attenuation(s), std::pow(m.params().shield_attenuation, s))
        << "shields=" << s;
  }
}

// The constructor rejects every parameter outside the ranges the coupling
// model (and SINO's shield compaction) relies on.
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(KeffParamsValidation, RejectsBadMaxSeparation) {
  for (int v : {-1, 0}) {
    KeffParams p;
    p.max_separation = v;
    EXPECT_THROW(KeffModel{p}, std::invalid_argument) << v;
  }
  KeffParams p;
  p.max_separation = 1;
  EXPECT_DOUBLE_EQ(KeffModel(p).profile(5), 1.0);  // the tail is profile(1)
}

TEST(KeffParamsValidation, RejectsBadShieldAttenuation) {
  for (double v : {0.0, -0.2, 1.0 + 1e-12, 2.0, kNan, kInf}) {
    KeffParams p;
    p.shield_attenuation = v;
    EXPECT_THROW(KeffModel{p}, std::invalid_argument) << v;
  }
  KeffParams p;
  p.shield_attenuation = 1.0;
  EXPECT_NO_THROW(KeffModel{p});
}

TEST(KeffParamsValidation, RejectsBadDecayExponent) {
  for (double v : {-0.1, kNan, kInf, -kInf}) {
    KeffParams p;
    p.decay_exponent = v;
    EXPECT_THROW(KeffModel{p}, std::invalid_argument) << v;
  }
  KeffParams p;
  p.decay_exponent = 0.0;
  EXPECT_NO_THROW(KeffModel{p});
}

TEST(KeffParamsValidation, RejectsBadScale) {
  for (double v : {-1.0, kNan, kInf}) {
    KeffParams p;
    p.scale = v;
    EXPECT_THROW(KeffModel{p}, std::invalid_argument) << v;
  }
  KeffParams p;
  p.scale = 0.0;
  EXPECT_NO_THROW(KeffModel{p});
}

// ---------------------------------------------------------------- table

TEST(LskTable, FromLinearSpansRequestedBand) {
  const LskTable t = LskTable::from_linear(0.05, 0.01);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_DOUBLE_EQ(t.entries().front().voltage, 0.10);
  EXPECT_DOUBLE_EQ(t.entries().back().voltage, 0.20);
}

TEST(LskTable, EntriesStrictlyIncrease) {
  const LskTable t = LskTable::default_table();
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GT(t.entries()[i].lsk, t.entries()[i - 1].lsk);
    EXPECT_GT(t.entries()[i].voltage, t.entries()[i - 1].voltage);
  }
}

TEST(LskTable, LookupInterpolatesLinearSource) {
  const double slope = 0.05, icept = 0.01;
  const LskTable t = LskTable::from_linear(slope, icept);
  for (double lsk : {0.5, 1.5, 2.8}) {
    EXPECT_NEAR(t.voltage(lsk), slope * lsk + icept, 1e-9);
  }
}

TEST(LskTable, InverseRoundTrips) {
  const LskTable t = LskTable::default_table();
  for (double v = 0.11; v < 0.20; v += 0.017) {
    EXPECT_NEAR(t.voltage(t.lsk_budget(v)), v, 1e-9);
  }
}

TEST(LskTable, ExtrapolatesBeyondEnds) {
  const LskTable t = LskTable::from_linear(0.05, 0.01);
  // Far below the band the line continues (clamped at zero).
  EXPECT_NEAR(t.voltage(0.0), 0.01, 1e-9);
  EXPECT_DOUBLE_EQ(t.voltage(-100.0), 0.0);
  // Above the band too.
  EXPECT_NEAR(t.voltage(10.0), 0.05 * 10.0 + 0.01, 1e-9);
}

TEST(LskTable, RejectsBadInputs) {
  EXPECT_THROW(LskTable::from_linear(-1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LskTable({{0.0, 0.1}}), std::invalid_argument);
  EXPECT_THROW(LskTable({{0.0, 0.1}, {0.0, 0.2}}), std::invalid_argument);
  EXPECT_THROW(LskTable({{0.0, 0.2}, {1.0, 0.1}}), std::invalid_argument);
}

// --------------------------------------------------------------- builder

TEST(LskBuilder, SmallRunFitsPositiveSlope) {
  LskBuilderOptions opt;
  opt.tracks = 6;
  opt.samples_per_length = 6;
  opt.lengths_um = {300.0, 900.0};
  opt.segments = 4;
  opt.sim_dt = 0.5e-12;
  opt.sim_t_stop = 120e-12;
  const LskTableBuilder builder(opt);
  const KeffModel keff;
  const circuit::Technology tech;

  const auto samples = builder.sample(keff, tech);
  ASSERT_GT(samples.size(), 4u);
  const auto fit = builder.fit(samples);
  EXPECT_GT(fit.slope, 0.0);

  const LskTable table = builder.build(keff, tech);
  EXPECT_EQ(table.size(), 100u);
}

TEST(LskBuilder, FidelityRankCorrelation) {
  // The paper's fidelity property: higher LSK implies higher simulated
  // noise. Checked as a rank correlation over a modest sample.
  LskBuilderOptions opt;
  opt.tracks = 8;
  opt.samples_per_length = 10;
  opt.lengths_um = {400.0, 1000.0};
  opt.segments = 4;
  opt.sim_dt = 0.5e-12;
  opt.sim_t_stop = 120e-12;
  const auto samples = LskTableBuilder(opt).sample(KeffModel{}, circuit::Technology{});
  std::vector<double> lsk, noise;
  for (const auto& s : samples) {
    lsk.push_back(s.lsk);
    noise.push_back(s.noise_v);
  }
  EXPECT_GT(util::spearman(lsk, noise), 0.6);
}

TEST(LskBuilder, DeterministicInSeed) {
  LskBuilderOptions opt;
  opt.tracks = 6;
  opt.samples_per_length = 4;
  opt.lengths_um = {500.0};
  opt.segments = 4;
  opt.sim_dt = 0.5e-12;
  opt.sim_t_stop = 100e-12;
  const auto a = LskTableBuilder(opt).sample(KeffModel{}, circuit::Technology{});
  const auto b = LskTableBuilder(opt).sample(KeffModel{}, circuit::Technology{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].lsk, b[i].lsk);
    EXPECT_DOUBLE_EQ(a[i].noise_v, b[i].noise_v);
  }
}

}  // namespace
}  // namespace rlcr::ktable
