#include "netlist/synthetic.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace rlcr::netlist {

namespace {

/// Net degree (pin count) distribution modeled on the IBM suite: dominated
/// by 2-pin nets with a geometric tail; mean ~3.5 pins.
std::size_t draw_degree(util::Xoshiro256& rng) {
  const double u = rng.uniform();
  if (u < 0.55) return 2;
  if (u < 0.73) return 3;
  if (u < 0.83) return 4;
  if (u < 0.89) return 5;
  // Geometric tail 6..24.
  std::size_t d = 6;
  while (d < 24 && rng.bernoulli(0.62)) ++d;
  return d;
}

}  // namespace

grid::RegionGridSpec SyntheticSpec::grid_spec() const {
  grid::RegionGridSpec g;
  g.cols = grid_cols;
  g.rows = grid_rows;
  g.region_w_um = chip_w_um / grid_cols;
  g.region_h_um = chip_h_um / grid_rows;
  g.h_capacity = h_capacity;
  g.v_capacity = v_capacity;
  return g;
}

Netlist generate(const SyntheticSpec& spec) {
  Netlist nl(spec.name, spec.chip_w_um, spec.chip_h_um);
  util::Xoshiro256 rng(util::SplitMix64::mix2(spec.seed, 0x5EED));

  const double region_w = spec.chip_w_um / spec.grid_cols;
  const double region_h = spec.chip_h_um / spec.grid_rows;
  const auto cols = static_cast<double>(spec.grid_cols);
  const auto rows = static_cast<double>(spec.grid_rows);

  // Fixed hotspot centres (in region units).
  std::vector<geom::PointF> hotspots;
  hotspots.reserve(static_cast<std::size_t>(std::max(0, spec.hotspot_count)));
  for (int h = 0; h < spec.hotspot_count; ++h) {
    hotspots.push_back(geom::PointF{rng.uniform(cols * 0.15, cols * 0.85),
                                    rng.uniform(rows * 0.15, rows * 0.85)});
  }

  auto clamp_region = [&](double v, double limit) {
    return std::clamp(v, 0.0, limit - 1e-9);
  };

  const auto target =
      static_cast<std::size_t>(std::max(1.0, spec.scale * static_cast<double>(spec.num_nets)));

  for (std::size_t n = 0; n < target; ++n) {
    const std::size_t degree = draw_degree(rng);
    const bool global_net = rng.bernoulli(spec.global_net_fraction);

    // Net centre: hotspot-attracted with probability hotspot_fraction.
    geom::PointF centre;
    if (!hotspots.empty() && rng.bernoulli(spec.hotspot_fraction)) {
      const auto& hs = hotspots[rng.below(hotspots.size())];
      centre = {clamp_region(rng.normal(hs.x, spec.hotspot_sigma_regions), cols),
                clamp_region(rng.normal(hs.y, spec.hotspot_sigma_regions), rows)};
    } else {
      centre = {rng.uniform(0.0, cols), rng.uniform(0.0, rows)};
    }

    const double sigma = global_net
                             ? std::max(cols, rows) / 3.0
                             : spec.local_sigma_regions;

    Net net;
    net.name = spec.name + ".n" + std::to_string(n);
    net.pins.reserve(degree);
    for (std::size_t p = 0; p < degree; ++p) {
      const double rx = clamp_region(rng.normal(centre.x, sigma), cols);
      const double ry = clamp_region(rng.normal(centre.y, sigma), rows);
      // Place the pin at a uniformly random offset inside its region so pin
      // coordinates are generic (never exactly on region boundaries).
      const double ux = (std::floor(rx) + rng.uniform(0.1, 0.9)) * region_w;
      const double uy = (std::floor(ry) + rng.uniform(0.1, 0.9)) * region_h;
      net.pins.push_back(Pin{{ux, uy}, kNoCell});
    }
    nl.add_net(std::move(net));
  }
  return nl;
}

std::vector<SyntheticSpec> ibm_suite(double scale) {
  // Net counts are back-derived from the paper's Table 1 (violation counts
  // and percentages); chip outlines are Table 3's ID+NO row/column lengths;
  // grid shapes and capacities follow the ISPD98-derived global-routing
  // conversions of these circuits.
  // Grid resolutions are chosen so mean per-region track demand lands
  // around 60-80% of capacity with the published net counts (measured via
  // the ID+NO flow), matching the regime a routable real design sits in.
  std::vector<SyntheticSpec> suite(6);

  suite[0].name = "ibm01";
  suite[0].num_nets = 13056;
  suite[0].grid_cols = 96;
  suite[0].grid_rows = 96;
  suite[0].chip_w_um = 1533.0;
  suite[0].chip_h_um = 1824.0;
  suite[0].h_capacity = 22;
  suite[0].v_capacity = 20;
  suite[0].local_sigma_regions = 4.6;
  suite[0].seed = 101;

  suite[1].name = "ibm02";
  suite[1].num_nets = 19291;
  suite[1].grid_cols = 128;
  suite[1].grid_rows = 96;
  suite[1].chip_w_um = 3004.0;
  suite[1].chip_h_um = 3995.0;
  suite[1].h_capacity = 22;
  suite[1].v_capacity = 20;
  suite[1].local_sigma_regions = 3.2;
  suite[1].seed = 102;

  suite[2].name = "ibm03";
  suite[2].num_nets = 26104;
  suite[2].grid_cols = 160;
  suite[2].grid_rows = 128;
  suite[2].chip_w_um = 3178.0;
  suite[2].chip_h_um = 3852.0;
  suite[2].h_capacity = 24;
  suite[2].v_capacity = 20;
  suite[2].local_sigma_regions = 3.9;
  suite[2].seed = 103;

  suite[3].name = "ibm04";
  suite[3].num_nets = 31328;
  suite[3].grid_cols = 192;
  suite[3].grid_rows = 128;
  suite[3].chip_w_um = 3861.0;
  suite[3].chip_h_um = 3910.0;
  suite[3].h_capacity = 24;
  suite[3].v_capacity = 20;
  suite[3].local_sigma_regions = 3.9;
  suite[3].seed = 104;

  suite[4].name = "ibm05";
  suite[4].num_nets = 29647;
  suite[4].grid_cols = 256;
  suite[4].grid_rows = 128;
  suite[4].chip_w_um = 9837.0;
  suite[4].chip_h_um = 7286.0;
  suite[4].h_capacity = 14;
  suite[4].v_capacity = 12;
  suite[4].local_sigma_regions = 2.5;
  suite[4].seed = 105;

  suite[5].name = "ibm06";
  suite[5].num_nets = 34398;
  suite[5].grid_cols = 256;
  suite[5].grid_rows = 128;
  suite[5].chip_w_um = 5002.0;
  suite[5].chip_h_um = 3795.0;
  suite[5].h_capacity = 22;
  suite[5].v_capacity = 18;
  suite[5].local_sigma_regions = 3.9;
  suite[5].seed = 106;

  // Density-preserving scaling: the net count scales by `scale` while the
  // grid and chip shrink by sqrt(scale), so per-region track demand, net
  // lengths in um, and hence violation rates and overhead ratios all stay
  // representative of the full-size run. (spec.scale itself is left at 1:
  // the net count is folded in here.)
  if (scale != 1.0) {
    const double shrink = std::sqrt(scale);
    for (auto& s : suite) {
      s.num_nets = static_cast<std::size_t>(
          std::max(1.0, static_cast<double>(s.num_nets) * scale));
      s.grid_cols = std::max(8, static_cast<std::int32_t>(
                                    std::lround(s.grid_cols * shrink)));
      s.grid_rows = std::max(8, static_cast<std::int32_t>(
                                    std::lround(s.grid_rows * shrink)));
      s.chip_w_um *= shrink;
      s.chip_h_um *= shrink;
    }
  }
  return suite;
}

SyntheticSpec tiny_spec(std::size_t nets, std::uint64_t seed) {
  SyntheticSpec s;
  s.name = "tiny";
  s.num_nets = nets;
  s.grid_cols = 8;
  s.grid_rows = 8;
  s.chip_w_um = 400.0;
  s.chip_h_um = 400.0;
  s.h_capacity = 10;
  s.v_capacity = 10;
  s.local_sigma_regions = 1.2;
  s.hotspot_count = 1;
  s.hotspot_sigma_regions = 1.5;
  s.seed = seed;
  return s;
}

}  // namespace rlcr::netlist
