// Shared experiment-suite runner with a results cache.
//
// Tables 1-3 of the paper are different projections of the SAME experiment
// (six circuits x two sensitivity rates x three flows). Running the flows
// once and letting each table bench reuse the results keeps the combined
// bench run at one suite sweep instead of three. The cache is a CSV file in
// the working directory keyed by the benchmark scale; delete it (or change
// RLCROUTE_SCALE) to force a re-run.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/stopwatch.h"

namespace rlcr::bench {

inline std::string cache_path(double scale) {
  std::ostringstream oss;
  oss << "rlcroute_suite_cache_" << scale << ".csv";
  return oss.str();
}

inline void save_runs(const std::string& path,
                      const std::vector<gsino::CircuitRun>& runs) {
  std::ofstream out(path);
  auto flow = [&](const gsino::FlowSummary& s) {
    out << ',' << s.violating << ',' << s.unfixable << ','
        << s.avg_wirelength_um << ',' << s.total_wirelength_um << ','
        << s.area_width_um << ',' << s.area_height_um << ','
        << s.total_shields;
  };
  for (const auto& r : runs) {
    out << r.circuit << ',' << r.rate << ',' << r.total_nets << ','
        << r.has_isino << ',' << r.has_gsino;
    flow(r.idno);
    flow(r.isino);
    flow(r.gsino);
    out << '\n';
  }
}

inline bool load_runs(const std::string& path,
                      std::vector<gsino::CircuitRun>& runs) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream iss(line);
    std::string cell;
    auto next = [&]() {
      std::getline(iss, cell, ',');
      return cell;
    };
    gsino::CircuitRun r;
    r.circuit = next();
    if (r.circuit.empty()) continue;
    r.rate = std::stod(next());
    r.total_nets = std::stoul(next());
    r.has_isino = std::stoi(next()) != 0;
    r.has_gsino = std::stoi(next()) != 0;
    auto flow = [&](gsino::FlowSummary& s, const char* name) {
      s.name = name;
      s.total_nets = r.total_nets;
      s.violating = std::stoul(next());
      s.unfixable = std::stoul(next());
      s.avg_wirelength_um = std::stod(next());
      s.total_wirelength_um = std::stod(next());
      s.area_width_um = std::stod(next());
      s.area_height_um = std::stod(next());
      s.total_shields = std::stod(next());
    };
    flow(r.idno, "ID+NO");
    flow(r.isino, "iSINO");
    flow(r.gsino, "GSINO");
    runs.push_back(std::move(r));
  }
  return !runs.empty();
}

/// Run (or load) the full suite at the environment-selected scale.
inline std::vector<gsino::CircuitRun> suite_runs() {
  const double scale = gsino::scale_from_env(0.4);
  const std::string path = cache_path(scale);
  std::vector<gsino::CircuitRun> runs;
  if (load_runs(path, runs)) {
    std::printf("[suite] loaded cached results from %s (delete to re-run)\n\n",
                path.c_str());
    return runs;
  }
  std::printf(
      "[suite] running 6 circuits x 2 rates x 3 flows at scale %.2f\n"
      "[suite] (set RLCROUTE_SCALE=1.0 for the full published sizes; the\n"
      "[suite]  generator shrinks grid and chip together, preserving the\n"
      "[suite]  density regime and hence the paper's shapes)\n\n",
      scale);
  for (const netlist::SyntheticSpec& spec : netlist::ibm_suite(scale)) {
    for (const double rate : {0.30, 0.50}) {
      const util::Stopwatch watch;
      runs.push_back(
          gsino::ExperimentRunner::run_one(spec, rate, gsino::GsinoParams{}));
      std::printf("[suite] %s rate=%.0f%% done in %.1f s\n", spec.name.c_str(),
                  rate * 100.0, watch.seconds());
      std::fflush(stdout);
    }
  }
  save_runs(path, runs);
  return runs;
}

}  // namespace rlcr::bench
