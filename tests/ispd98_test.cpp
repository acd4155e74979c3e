#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mutate.h"
#include "netlist/ispd98.h"

namespace rlcr::netlist {
namespace {

constexpr const char* kSampleNet =
    "0\n"
    " 7\n"
    " 2\n"
    " 5\n"
    " 1\n"
    "a0 s\n"
    "a1 l\n"
    "p0 l\n"
    "a2 s\n"
    "a0 l\n"
    "a3 l\n"
    "p1 l\n";

TEST(Ispd98, ParsesSampleNetlist) {
  std::istringstream in(kSampleNet);
  Netlist nl;
  const Ispd98Parser parser;
  const Ispd98Stats stats = parser.parse_net(in, nl);

  EXPECT_EQ(stats.declared_pins, 7u);
  EXPECT_EQ(stats.declared_nets, 2u);
  EXPECT_EQ(stats.declared_modules, 5u);
  EXPECT_EQ(stats.parsed_pins, 7u);
  EXPECT_EQ(stats.parsed_nets, 2u);
  EXPECT_EQ(nl.net_count(), 2u);
  EXPECT_EQ(nl.cell_count(), 6u);  // a0..a3, p0, p1

  // First net: a0 (source), a1, p0.
  EXPECT_EQ(nl.net(0).pins.size(), 3u);
  EXPECT_EQ(nl.cell(nl.net(0).pins[0].cell).name, "a0");
  // Second net: a2 (source), a0, a3, p1 — a0 is shared between nets.
  EXPECT_EQ(nl.net(1).pins.size(), 4u);
  EXPECT_EQ(nl.cell(nl.net(1).pins[1].cell).name, "a0");
}

TEST(Ispd98, HugeDeclaredModuleCountParsesWithoutHugeReservation) {
  // A header may declare any module count; 2^40 must neither allocate
  // for it nor fail the parse (a header/body mismatch is reported, not
  // rejected).
  std::istringstream in("0\n3\n1\n1099511627776\n0\na0 s\na1 l\na0 l\n");
  Netlist nl;
  const Ispd98Stats stats = Ispd98Parser().parse_net(in, nl);
  EXPECT_EQ(stats.declared_modules, std::size_t{1} << 40);
  EXPECT_EQ(stats.parsed_modules, 2u);
  EXPECT_EQ(nl.cell_count(), 2u);
  EXPECT_FALSE(stats.counts_match());
}

TEST(Ispd98, PadDetectionByPrefix) {
  std::istringstream in(kSampleNet);
  Netlist nl;
  Ispd98Parser().parse_net(in, nl);
  int pads = 0;
  for (const Cell& c : nl.cells()) pads += c.is_pad;
  EXPECT_EQ(pads, 2);
}

TEST(Ispd98, HandlesCrLfAndBlankLines) {
  std::istringstream in("0\r\n3\r\n1\r\n2\r\n0\r\n\r\na0 s\r\na1 l\r\na0 l\r\n");
  Netlist nl;
  const auto stats = Ispd98Parser().parse_net(in, nl);
  EXPECT_EQ(stats.parsed_nets, 1u);
  EXPECT_EQ(stats.parsed_pins, 3u);
}

TEST(Ispd98, ContinuationBeforeStartThrows) {
  std::istringstream in("0\n1\n1\n1\n0\na0 l\n");
  Netlist nl;
  EXPECT_THROW(Ispd98Parser().parse_net(in, nl), std::runtime_error);
}

TEST(Ispd98, UnknownKindThrows) {
  std::istringstream in("0\n1\n1\n1\n0\na0 x\n");
  Netlist nl;
  EXPECT_THROW(Ispd98Parser().parse_net(in, nl), std::runtime_error);
}

TEST(Ispd98, EmptyInputThrows) {
  std::istringstream in("");
  Netlist nl;
  EXPECT_THROW(Ispd98Parser().parse_net(in, nl), std::runtime_error);
}

TEST(Ispd98, BadHeaderCountThrows) {
  std::istringstream in("0\nnotanumber\n");
  Netlist nl;
  EXPECT_THROW(Ispd98Parser().parse_net(in, nl), std::runtime_error);
}

TEST(Ispd98, AreasAttachToKnownModules) {
  std::istringstream in(kSampleNet);
  Netlist nl;
  Ispd98Parser().parse_net(in, nl);

  std::istringstream areas("a0 12.5\na1 3\nunknown 99\n");
  const std::size_t matched = Ispd98Parser().parse_areas(areas, nl);
  EXPECT_EQ(matched, 2u);
  for (const Cell& c : nl.cells()) {
    if (c.name == "a0") EXPECT_DOUBLE_EQ(c.area_um2, 12.5);
    if (c.name == "a1") EXPECT_DOUBLE_EQ(c.area_um2, 3.0);
  }
}

TEST(Ispd98, BadAreaOfAKnownModuleThrows) {
  // Missing, unparsable, trailing junk, non-finite, out of range and
  // negative areas of a parsed cell are all malformed entries.
  for (const char* line :
       {"a0\n", "a0 junk\n", "a1 -5\n", "a0 5junk\n", "a0 nan\n",
        "a0 inf\n", "a0 1e999\n", "a1 +\n", "a1 +-5\n", "a1 ++5\n"}) {
    SCOPED_TRACE(line);
    std::istringstream in(kSampleNet);
    Netlist nl;
    Ispd98Parser().parse_net(in, nl);
    std::istringstream areas(std::string("a2 1\n") + line);
    EXPECT_THROW(Ispd98Parser().parse_areas(areas, nl), std::runtime_error);
  }
}

TEST(Ispd98, SignedAreasThatAreNotNegativeParse) {
  // A leading '+' and a negative zero are not negative areas.
  std::istringstream in(kSampleNet);
  Netlist nl;
  Ispd98Parser().parse_net(in, nl);
  std::istringstream areas("a0 +5\na1 -0\na2 +2.5e1\n");
  EXPECT_EQ(Ispd98Parser().parse_areas(areas, nl), 3u);
  for (const Cell& c : nl.cells()) {
    if (c.name == "a0") EXPECT_DOUBLE_EQ(c.area_um2, 5.0);
    if (c.name == "a1") EXPECT_EQ(c.area_um2, 0.0);
    if (c.name == "a2") EXPECT_DOUBLE_EQ(c.area_um2, 25.0);
  }
}

TEST(Ispd98, UnknownModuleLinesAreSkippedWhateverTheirArea) {
  std::istringstream in(kSampleNet);
  Netlist nl;
  Ispd98Parser().parse_net(in, nl);
  std::istringstream areas("space0 junk\nspace1\na0 0\na1 2.5e1\n");
  EXPECT_EQ(Ispd98Parser().parse_areas(areas, nl), 2u);
  for (const Cell& c : nl.cells()) {
    if (c.name == "a1") EXPECT_DOUBLE_EQ(c.area_um2, 25.0);
  }
}

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return {text.begin(), text.end()};
}

std::string text_of(const std::vector<std::uint8_t>& bytes) {
  return {bytes.begin(), bytes.end()};
}

TEST(Ispd98Fuzz, NetMutantsThrowOrParseToTheirOwnCounts) {
  // Seeded byte mutants of two small netD texts: each either throws
  // std::runtime_error or parses to a netlist holding exactly the counts
  // the parser reports.
  const std::vector<std::uint8_t> a = bytes_of(kSampleNet);
  const std::vector<std::uint8_t> b = bytes_of(
      "0\n6\n2\n4\n1\na0 s\na1 l\np0 l\na2 s\na0 l\na1 l\n");
  fuzz::Mutator mutator(98);
  int parsed = 0, rejected = 0;
  for (int it = 0; it < 3000; ++it) {
    const std::vector<std::uint8_t> mutant =
        mutator.coin() ? mutator.mutate(a, b) : mutator.mutate(b, a);
    std::istringstream in(text_of(mutant));
    Netlist nl;
    Ispd98Stats stats;
    try {
      stats = Ispd98Parser().parse_net(in, nl);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++parsed;
    std::size_t pins = 0;
    for (const Net& net : nl.nets()) pins += net.pins.size();
    ASSERT_EQ(stats.parsed_nets, nl.net_count()) << "iteration " << it;
    ASSERT_EQ(stats.parsed_pins, pins) << "iteration " << it;
    ASSERT_EQ(stats.parsed_modules, nl.cell_count()) << "iteration " << it;
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Ispd98Fuzz, AreaMutantsThrowOrAttachValidAreas) {
  // Seeded byte mutants of two small .are texts over a parsed netlist:
  // each either throws std::runtime_error or leaves every cell with a
  // finite, non-negative area and reports at most one match per line.
  const std::vector<std::uint8_t> a = bytes_of("a0 12.5\na1 3\nspace 9\n");
  const std::vector<std::uint8_t> b =
      bytes_of("p0 0\na2 7.25\na3 1e2\np1 4\n");
  fuzz::Mutator mutator(1998);
  int parsed = 0, rejected = 0;
  for (int it = 0; it < 3000; ++it) {
    const std::vector<std::uint8_t> mutant =
        mutator.coin() ? mutator.mutate(a, b) : mutator.mutate(b, a);
    std::istringstream net_in(kSampleNet);
    Netlist nl;
    Ispd98Parser().parse_net(net_in, nl);
    const std::string text = text_of(mutant);
    std::istringstream in(text);
    std::size_t matched = 0;
    try {
      matched = Ispd98Parser().parse_areas(in, nl);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++parsed;
    const auto lines =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    ASSERT_LE(matched, lines + 1) << "iteration " << it;
    for (const Cell& c : nl.cells()) {
      ASSERT_TRUE(std::isfinite(c.area_um2) && c.area_um2 >= 0.0)
          << "iteration " << it << " cell " << c.name;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Ispd98, LoadMissingFileThrows) {
  EXPECT_THROW(Ispd98Parser().load("/nonexistent/file.net"), std::runtime_error);
}

TEST(Ispd98, MatchingCountsReportNothing) {
  // Header consistent with the body: 6 pins, 2 nets, 4 modules.
  std::istringstream in(
      "0\n6\n2\n4\n1\n"
      "a0 s\na1 l\np0 l\n"
      "a2 s\na0 l\na1 l\n");
  Netlist nl;
  const Ispd98Stats stats = Ispd98Parser().parse_net(in, nl);
  EXPECT_TRUE(stats.counts_match());
  EXPECT_EQ(stats.mismatch_report(), "");
}

TEST(Ispd98, MismatchReportNamesEveryDiscrepantField) {
  // Header declares 9 pins / 3 nets / 7 modules; the body holds 7 / 2 / 6.
  std::istringstream in(std::string("0\n9\n3\n7\n1\n") +
                        "a0 s\na1 l\np0 l\n"
                        "a2 s\na0 l\na3 l\np1 l\n");
  Netlist nl;
  const Ispd98Stats stats = Ispd98Parser().parse_net(in, nl);
  EXPECT_FALSE(stats.counts_match());
  const std::string report = stats.mismatch_report();
  EXPECT_NE(report.find("pins"), std::string::npos);
  EXPECT_NE(report.find("declares 9"), std::string::npos);
  EXPECT_NE(report.find("parsed 7"), std::string::npos);
  EXPECT_NE(report.find("nets"), std::string::npos);
  EXPECT_NE(report.find("modules"), std::string::npos);
}

TEST(Ispd98, MismatchIsNotAParseError) {
  // A count mismatch is reported, never thrown — some suite distributions
  // disagree with their own headers.
  std::istringstream in("0\n100\n100\n100\n0\na0 s\na1 l\n");
  Netlist nl;
  Ispd98Stats stats;
  EXPECT_NO_THROW(stats = Ispd98Parser().parse_net(in, nl));
  EXPECT_FALSE(stats.counts_match());
  EXPECT_EQ(nl.net_count(), 1u);
}

TEST(Ispd98, PadOnlyNetsParse) {
  // A net whose every terminal is a pad (feed-through I/O) is legal.
  std::istringstream in("0\n5\n2\n3\n3\np0 s\np1 l\np2 l\np0 s\np2 l\n");
  Netlist nl;
  const Ispd98Stats stats = Ispd98Parser().parse_net(in, nl);
  EXPECT_EQ(stats.parsed_nets, 2u);
  EXPECT_EQ(nl.net_count(), 2u);
  for (const Net& net : nl.nets()) {
    EXPECT_TRUE(net.routable());
    for (const Pin& p : net.pins) EXPECT_TRUE(nl.cell(p.cell).is_pad);
  }
}

}  // namespace
}  // namespace rlcr::netlist
