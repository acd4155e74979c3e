#include "netlist/ispd98.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace rlcr::netlist {

namespace {

// Reads the next non-empty line; returns false at EOF.
bool next_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    // Strip trailing CR from DOS-formatted benchmark files.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t') {
        blank = false;
        break;
      }
    }
    if (!blank) return true;
  }
  return false;
}

std::size_t parse_count(const std::string& line, const char* what) {
  std::istringstream iss(line);
  long long v = -1;
  iss >> v;
  if (v < 0) {
    throw std::runtime_error(std::string("ISPD98 parser: bad ") + what +
                             " line: '" + line + "'");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

std::string Ispd98Stats::mismatch_report() const {
  std::string report;
  auto field = [&](const char* what, std::size_t declared, std::size_t parsed) {
    if (declared == parsed) return;
    if (!report.empty()) report += "; ";
    report += std::string(what) + ": header declares " +
              std::to_string(declared) + ", parsed " + std::to_string(parsed);
  };
  field("pins", declared_pins, parsed_pins);
  field("nets", declared_nets, parsed_nets);
  field("modules", declared_modules, parsed_modules);
  return report;
}

Ispd98Stats Ispd98Parser::parse_net(std::istream& in, Netlist& out) const {
  Ispd98Stats stats;
  std::string line;

  if (!next_line(in, line)) throw std::runtime_error("ISPD98 parser: empty input");
  // First header line is historically "0"; ignored.
  if (!next_line(in, line)) throw std::runtime_error("ISPD98 parser: missing pin count");
  stats.declared_pins = parse_count(line, "pin count");
  if (!next_line(in, line)) throw std::runtime_error("ISPD98 parser: missing net count");
  stats.declared_nets = parse_count(line, "net count");
  if (!next_line(in, line)) throw std::runtime_error("ISPD98 parser: missing module count");
  stats.declared_modules = parse_count(line, "module count");
  if (!next_line(in, line)) throw std::runtime_error("ISPD98 parser: missing pad offset");
  // Pad offset is informational; pad-ness is derived from the name prefix.

  // The header's module count is untrusted input: reserve for at most
  // kMaxReservedModules names up front (ibm18, the largest suite circuit,
  // has about 211k modules) and let the map grow past that on demand.
  constexpr std::size_t kMaxReservedModules = std::size_t{1} << 20;
  std::unordered_map<std::string, CellId> by_name;
  by_name.reserve(std::min(stats.declared_modules, kMaxReservedModules) * 2);

  auto intern_cell = [&](const std::string& name) -> CellId {
    const auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    Cell c;
    c.name = name;
    c.is_pad = !name.empty() && name[0] == 'p';
    const CellId id = out.add_cell(std::move(c));
    by_name.emplace(name, id);
    return id;
  };

  Net current;
  bool have_net = false;
  std::size_t net_index = 0;

  auto flush = [&]() {
    if (!have_net) return;
    out.add_net(std::move(current));
    current = Net{};
    ++stats.parsed_nets;
  };

  while (next_line(in, line)) {
    std::istringstream iss(line);
    std::string module, kind;
    iss >> module >> kind;
    if (module.empty() || kind.empty()) {
      throw std::runtime_error("ISPD98 parser: malformed entry: '" + line + "'");
    }
    const CellId cell = intern_cell(module);
    if (kind == "s") {
      flush();
      have_net = true;
      current.name = "net" + std::to_string(net_index++);
      current.pins.push_back(Pin{{0.0, 0.0}, cell});
    } else if (kind == "l") {
      if (!have_net) {
        throw std::runtime_error("ISPD98 parser: 'l' entry before any 's' entry");
      }
      current.pins.push_back(Pin{{0.0, 0.0}, cell});
    } else {
      throw std::runtime_error("ISPD98 parser: unknown entry kind '" + kind + "'");
    }
    ++stats.parsed_pins;
  }
  flush();

  stats.parsed_modules = out.cell_count();
  return stats;
}

std::size_t Ispd98Parser::parse_areas(std::istream& in, Netlist& inout) const {
  std::unordered_map<std::string, CellId> by_name;
  by_name.reserve(inout.cell_count() * 2);
  for (std::size_t i = 0; i < inout.cell_count(); ++i) {
    by_name.emplace(inout.cell(static_cast<CellId>(i)).name,
                    static_cast<CellId>(i));
  }
  std::string line;
  std::size_t matched = 0;
  while (next_line(in, line)) {
    std::istringstream iss(line);
    std::string module, token;
    iss >> module >> token;
    if (module.empty()) continue;
    const auto it = by_name.find(module);
    if (it == by_name.end()) continue;  // space/filler modules are expected
    // The whole token, after an optional leading '+', must be a finite,
    // non-negative number.
    double area = 0.0;
    const char* begin = token.data();
    const char* const end = begin + token.size();
    if (begin != end && *begin == '+') ++begin;
    const auto [ptr, ec] = std::from_chars(begin, end, area);
    if (ec != std::errc() || ptr != end || !std::isfinite(area) ||
        area < 0.0) {
      throw std::runtime_error("ISPD98 parser: bad area: '" + line + "'");
    }
    inout.cell(it->second).area_um2 = area;
    ++matched;
  }
  return matched;
}

Netlist Ispd98Parser::load(const std::string& net_path,
                           const std::string& are_path,
                           Ispd98Stats* stats) const {
  std::ifstream net_in(net_path);
  if (!net_in) throw std::runtime_error("ISPD98 parser: cannot open " + net_path);
  Netlist nl(net_path, 0.0, 0.0);
  const Ispd98Stats parsed = parse_net(net_in, nl);
  if (stats != nullptr) *stats = parsed;
  if (!are_path.empty()) {
    std::ifstream are_in(are_path);
    if (!are_in) throw std::runtime_error("ISPD98 parser: cannot open " + are_path);
    parse_areas(are_in, nl);
  }
  return nl;
}

}  // namespace rlcr::netlist
