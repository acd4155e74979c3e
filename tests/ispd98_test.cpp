#include <gtest/gtest.h>

#include <sstream>

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
