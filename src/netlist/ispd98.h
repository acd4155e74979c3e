// Parser for the ISPD'98 / IBM circuit benchmark suite ("netD" + ".are"
// format). The paper evaluates on ibm01-ibm06 from this suite; the files are
// not redistributable with this repository, but a user who has them can load
// the genuine circuits through this parser and run every flow unchanged.
//
// netD format (one entry per line after a 5-line header):
//   line 1: ignored (historically 0)
//   line 2: total number of pins
//   line 3: number of nets
//   line 4: number of modules
//   line 5: pad offset
//   then:   <module> <s|l> [I|O|B]
// where 's' starts a new net (that module is taken as the net's source) and
// 'l' continues the current net. Module names beginning with 'p' are pads.
//
// .are format: "<module> <area>" per line.
#pragma once

#include <istream>
#include <string>

#include "netlist/netlist.h"

namespace rlcr::netlist {

/// Summary of a parsed netD file, for validation against the header counts.
struct Ispd98Stats {
  std::size_t declared_pins = 0;
  std::size_t declared_nets = 0;
  std::size_t declared_modules = 0;
  std::size_t parsed_pins = 0;
  std::size_t parsed_nets = 0;
  std::size_t parsed_modules = 0;

  /// True when every parsed count equals its header declaration.
  bool counts_match() const {
    return declared_pins == parsed_pins && declared_nets == parsed_nets &&
           declared_modules == parsed_modules;
  }
  /// Human-readable description of every header/parsed discrepancy
  /// ("" when counts_match()). A mismatch is not a parse error — some
  /// suite distributions disagree with their own headers — so the parser
  /// reports it for the caller to surface instead of throwing.
  std::string mismatch_report() const;
};

class Ispd98Parser {
 public:
  /// Parse a netD stream into `out` (cells + unplaced nets).
  /// Throws std::runtime_error on malformed input.
  Ispd98Stats parse_net(std::istream& in, Netlist& out) const;

  /// Parse an .are stream, attaching areas to already-parsed cells.
  /// Unknown module names are ignored (the suite contains space modules).
  /// The area is the line's second token, read whole: an optional leading
  /// '+' and a decimal or scientific number (-0 reads as zero). Throws
  /// std::runtime_error when a line naming a parsed cell has a missing
  /// area, trailing characters after the number, or an unparsable,
  /// out-of-range, non-finite or negative area.
  std::size_t parse_areas(std::istream& in, Netlist& inout) const;

  /// Convenience: load netD (+ optional .are) from files. When `stats` is
  /// non-null it receives the parse summary (callers typically surface
  /// stats->mismatch_report() as a warning).
  Netlist load(const std::string& net_path, const std::string& are_path = "",
               Ispd98Stats* stats = nullptr) const;
};

}  // namespace rlcr::netlist
