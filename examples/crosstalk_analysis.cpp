// Crosstalk analysis: use the circuit-simulation substrate directly.
//
// Demonstrates the modelling layer underneath the router: build coupled
// RLC buses, measure victim noise with the MNA transient engine, rebuild
// the LSK lookup table from scratch, and read per-net noise off a routed
// design — the workflow Section 2.2 of the paper describes for calibrating
// and using the LSK model.
#include <cstdio>

#include "circuit/bus.h"
#include "core/experiment.h"
#include "core/session.h"
#include "ktable/lsk_builder.h"
#include "util/stats.h"

using namespace rlcr;

int main() {
  const circuit::Technology tech;  // ITRS 0.10 um defaults, 3 GHz
  std::printf("technology: Vdd %.2f V, rise %.0f ps, driver %.0f ohm\n\n",
              tech.vdd, tech.rise_time_s * 1e12, tech.driver_ohms);

  // --- 1. Single aggressor-victim pair at increasing length.
  std::printf("victim noise vs coupled length (adjacent aggressor):\n");
  for (double len : {250.0, 500.0, 1000.0, 2000.0}) {
    circuit::BusSpec bus;
    bus.tracks = {{circuit::TrackKind::kSignal, true},
                  {circuit::TrackKind::kSignal, false}};
    bus.victim = 1;
    bus.length_um = len;
    std::printf("  %5.0f um -> %.4f V\n", len,
                circuit::simulate_victim_noise(bus, tech));
  }

  // --- 2. The three track treatments at fixed distance.
  std::printf("\nseparation treatments (1 mm, aggressor two tracks away):\n");
  for (const auto& [label, kind] :
       {std::pair{"empty track ", circuit::TrackKind::kEmpty},
        std::pair{"quiet signal", circuit::TrackKind::kSignal},
        std::pair{"shield      ", circuit::TrackKind::kShield}}) {
    circuit::BusSpec bus;
    bus.tracks = {{circuit::TrackKind::kSignal, false},
                  {kind, false},
                  {circuit::TrackKind::kSignal, true}};
    bus.victim = 0;
    bus.length_um = 1000.0;
    std::printf("  %s between -> %.4f V\n", label,
                circuit::simulate_victim_noise(bus, tech));
  }

  // --- 3. Rebuild the LSK table the way the paper does (Section 2.2).
  std::printf("\nrebuilding the LSK table from simulation...\n");
  ktable::LskBuilderOptions opt;
  opt.samples_per_length = 10;
  opt.lengths_um = {400.0, 800.0, 1200.0};
  const ktable::KeffModel keff;
  const ktable::LskTableBuilder builder(opt);
  const auto samples = builder.sample(keff, tech);
  const auto fit = builder.fit(samples);
  std::printf("  %zu samples; noise = %.4f * LSK + %.4f\n", samples.size(),
              fit.slope, fit.intercept);
  const ktable::LskTable table = builder.build(keff, tech);
  std::printf("  table: %zu entries, LSK %.2f..%.2f over 0.10..0.20 V\n",
              table.size(), table.entries().front().lsk,
              table.entries().back().lsk);

  // --- 4. Per-net noise report on a routed design.
  std::printf("\nper-net noise on a routed 400-net design (GSINO):\n");
  netlist::SyntheticSpec spec = netlist::tiny_spec(400, 9);
  const netlist::Netlist design = netlist::generate(spec);
  gsino::GsinoParams params;
  params.sensitivity_rate = 0.5;
  const gsino::RoutingProblem problem = gsino::make_problem(design, spec, params);
  const gsino::FlowResult fr =
      gsino::FlowSession(problem).run(gsino::FlowKind::kGsino);
  std::vector<double> noise = fr.net_noise();
  std::printf("  max %.4f V, mean %.4f V, p95 %.4f V (bound %.2f V)\n",
              util::max_of(noise), util::mean(noise),
              util::percentile(noise, 95), fr.bound_v);
  std::printf("  violating nets: %zu\n", fr.violating);
  return 0;
}
