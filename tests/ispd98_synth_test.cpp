// ISPD98-class generator and instance-discovery tests. The full-size
// ibm01-class fingerprint is pinned as a golden so the generator cannot
// drift across PRs (every downstream scaling number is keyed to these
// instances).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "netlist/ispd98_synth.h"

namespace rlcr::netlist {
namespace {

TEST(Ispd98Classes, SixCalibratedClasses) {
  const auto classes = ispd98_classes();
  ASSERT_EQ(classes.size(), 6u);
  EXPECT_EQ(classes.front().name, "ibm01");
  EXPECT_EQ(classes.back().name, "ibm06");
  for (const Ispd98ClassSpec& c : classes) {
    EXPECT_GT(c.nets, 14000u);
    EXPECT_GT(c.modules, c.pads);
    EXPECT_GT(c.mean_degree(), 3.0);
    EXPECT_LT(c.mean_degree(), 5.0);
    const grid::RegionGridSpec g = c.grid_spec();
    EXPECT_GT(g.cols * g.rows, 16000);  // ISPD98-size fabrics
    EXPECT_GT(g.region_w_um, 0.0);
    EXPECT_GT(g.region_h_um, 0.0);
  }
}

TEST(Ispd98Classes, FindByName) {
  const auto classes = ispd98_classes();
  ASSERT_NE(find_ispd98_class(classes, "ibm04"), nullptr);
  EXPECT_EQ(find_ispd98_class(classes, "ibm04")->name, "ibm04");
  EXPECT_EQ(find_ispd98_class(classes, "ibm99"), nullptr);
}

TEST(Ispd98Synth, Ibm01FingerprintGolden) {
  // Golden pinned at introduction: the full-size ibm01-class instance,
  // byte-stable across platforms and PRs. A deliberate generator change
  // must re-pin this value (and expects the scaling trajectory to reset).
  const auto classes = ispd98_classes();
  const Netlist nl = generate_ispd98(classes[0]);
  EXPECT_EQ(nl.net_count(), 14111u);
  EXPECT_EQ(nl.cell_count(), 12752u);
  EXPECT_EQ(netlist_fingerprint(nl), 0x77045ddaf07588eaULL);
}

TEST(Ispd98Synth, DeterministicInSpec) {
  const auto classes = ispd98_classes(0.05);
  const Netlist a = generate_ispd98(classes[1]);
  const Netlist b = generate_ispd98(classes[1]);
  EXPECT_EQ(netlist_fingerprint(a), netlist_fingerprint(b));
}

TEST(Ispd98Synth, MatchesPublishedDistributions) {
  const auto classes = ispd98_classes();
  for (const std::size_t idx : {std::size_t{0}, std::size_t{4}}) {
    const Ispd98ClassSpec& spec = classes[idx];
    const Netlist nl = generate_ispd98(spec);
    // Exact counts: nets, modules, pads.
    EXPECT_EQ(nl.net_count(), spec.nets);
    EXPECT_EQ(nl.cell_count(), spec.modules);
    std::size_t pads = 0;
    for (const Cell& c : nl.cells()) pads += c.is_pad;
    EXPECT_EQ(pads, spec.pads);
    // Mean degree within 3% of the published pins/nets (duplicate-cell
    // rejection trims the tail slightly).
    double pins = 0.0;
    for (const Net& n : nl.nets()) {
      pins += static_cast<double>(n.pins.size());
      EXPECT_GE(n.pins.size(), 2u);
    }
    const double mean = pins / static_cast<double>(nl.net_count());
    EXPECT_NEAR(mean, spec.mean_degree(), 0.03 * spec.mean_degree());
    // Every pin is cell-backed and materialized inside the outline.
    for (const Net& n : nl.nets()) {
      for (const Pin& p : n.pins) {
        ASSERT_NE(p.cell, kNoCell);
        EXPECT_GE(p.pos.x, 0.0);
        EXPECT_LE(p.pos.x, nl.width_um());
        EXPECT_GE(p.pos.y, 0.0);
        EXPECT_LE(p.pos.y, nl.height_um());
      }
    }
  }
}

TEST(Ispd98Synth, ScaledClassKeepsShape) {
  const auto full = ispd98_classes();
  const auto small = ispd98_classes(0.1);
  EXPECT_NEAR(static_cast<double>(small[0].nets),
              0.1 * static_cast<double>(full[0].nets), 2.0);
  EXPECT_NEAR(small[0].mean_degree(), full[0].mean_degree(), 0.01);
  // Grid and chip shrink together (density preserved).
  EXPECT_NEAR(static_cast<double>(small[0].grid_cols),
              std::sqrt(0.1) * full[0].grid_cols, 1.0);
  const Netlist nl = generate_ispd98(small[0]);
  EXPECT_EQ(nl.net_count(), small[0].nets);
}

TEST(Ispd98Instance, SyntheticWhenNoRealFiles) {
  ::unsetenv("RLCR_ISPD98_DIR");
  const auto classes = ispd98_classes(0.02);
  const Ispd98Instance inst = make_ispd98_instance(classes[0]);
  EXPECT_FALSE(inst.real);
  EXPECT_EQ(inst.source, "synthetic");
  EXPECT_EQ(inst.design.net_count(), classes[0].nets);
}

TEST(Ispd98Instance, RealFilesSubstituteWhenDirProvided) {
  // A miniature netD/.are pair standing in for the genuine suite files.
  const std::string dir = ::testing::TempDir() + "rlcr_ispd98";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  {
    std::ofstream net(dir + "/ibm01.netD");
    net << "0\n7\n2\n5\n2\n"
           "a0 s\na1 l\np1 l\n"
           "a2 s\na0 l\na1 l\np2 l\n";
    std::ofstream are(dir + "/ibm01.are");
    are << "a0 4\na1 2\na2 8\np1 1\np2 1\n";
  }
  ::setenv("RLCR_ISPD98_DIR", dir.c_str(), 1);
  const auto classes = ispd98_classes();
  const Ispd98Instance inst = make_ispd98_instance(classes[0]);
  ::unsetenv("RLCR_ISPD98_DIR");

  EXPECT_TRUE(inst.real);
  EXPECT_EQ(inst.source, dir + "/ibm01.netD");
  EXPECT_EQ(inst.design.net_count(), 2u);
  EXPECT_EQ(inst.design.cell_count(), 5u);
  EXPECT_TRUE(inst.parse_stats.counts_match());
  // Placed inside the class outline with pins materialized.
  EXPECT_DOUBLE_EQ(inst.design.width_um(), classes[0].chip_w_um);
  for (const Net& n : inst.design.nets()) {
    for (const Pin& p : n.pins) {
      EXPECT_GE(p.pos.x, 0.0);
      EXPECT_LE(p.pos.x, inst.design.width_um());
    }
  }
  // The .are areas attached.
  for (const Cell& c : inst.design.cells()) {
    if (c.name == "a2") EXPECT_DOUBLE_EQ(c.area_um2, 8.0);
  }
}

TEST(Ispd98Instance, ScaledSpecsNeverSubstituteRealFiles) {
  // A real circuit cannot shrink with the fabric: on a scaled spec the
  // genuine files are ignored even when the directory holds them.
  const std::string dir = ::testing::TempDir() + "rlcr_ispd98_scaled";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  {
    std::ofstream net(dir + "/ibm01.netD");
    net << "0\n3\n1\n2\n0\na0 s\na1 l\na0 l\n";
  }
  ::setenv("RLCR_ISPD98_DIR", dir.c_str(), 1);
  const auto scaled = ispd98_classes(0.05);
  const Ispd98Instance inst = make_ispd98_instance(scaled[0]);
  ::unsetenv("RLCR_ISPD98_DIR");
  EXPECT_FALSE(inst.real);
  EXPECT_EQ(inst.source, "synthetic");
  EXPECT_EQ(inst.design.net_count(), scaled[0].nets);
}

}  // namespace
}  // namespace rlcr::netlist
