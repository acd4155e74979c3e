#include "core/problem.h"

#include <algorithm>

#include "util/hash.h"

namespace rlcr::gsino {

namespace {

/// See RoutingProblem::fingerprint(): everything routing/budgeting read.
std::uint64_t compute_fingerprint(const grid::RegionGrid& grid,
                                  const ktable::KeffParams& keff,
                                  const ktable::LskTable& table,
                                  const std::vector<router::RouterNet>& rnets,
                                  const std::vector<double>& le_um,
                                  const GsinoParams& params) {
  util::Fnv1a64 h;
  const grid::RegionGridSpec& g = grid.spec();
  h.i32(g.cols).i32(g.rows).f64(g.region_w_um).f64(g.region_h_um);
  h.i32(g.h_capacity).i32(g.v_capacity);
  h.u64(params.seed).f64(params.sensitivity_rate);
  h.f64(keff.decay_exponent).f64(keff.shield_attenuation);
  h.i32(keff.max_separation).f64(keff.scale);
  // The Keff profile is calibrated independently of the technology point
  // (see KeffModel), but fold the technology in anyway: over-keying on a
  // field that stops being inert only costs a cache miss, under-keying
  // would silently share artifacts across technologies.
  const circuit::Technology& t = params.tech;
  h.f64(t.vdd).f64(t.clock_hz).f64(t.rise_time_s);
  h.f64(t.wire_width_um).f64(t.wire_space_um).f64(t.wire_thickness_um);
  h.f64(t.dielectric_h_um).f64(t.eps_r).f64(t.resistivity_ohm_m);
  h.f64(t.driver_ohms).f64(t.load_farads);
  h.u64(table.size());
  for (const ktable::LskEntry& e : table.entries()) {
    h.f64(e.lsk).f64(e.voltage);
  }
  h.u64(rnets.size());
  for (const router::RouterNet& n : rnets) {
    h.i32(n.id).f64(n.si).u64(n.pins.size());
    for (const geom::Point p : n.pins) h.i32(p.x).i32(p.y);
  }
  for (const double le : le_um) h.f64(le);
  return h.value();
}

/// The one per-net derivation both the constructor and with_pin_updates
/// use: region pins deduplicated in encounter order, Le = the largest
/// source-to-sink Manhattan distance floored at one region pitch.
void derive_net_geometry(const grid::RegionGrid& grid, double pitch,
                         const std::vector<geom::PointF>& pins,
                         router::RouterNet& rn, double& le_um) {
  rn.pins.clear();
  double le = 0.0;
  if (!pins.empty()) {
    const geom::PointF src = pins.front();
    for (const geom::PointF& pos : pins) {
      const geom::Point region = grid.region_of(pos);
      if (std::find(rn.pins.begin(), rn.pins.end(), region) == rn.pins.end()) {
        rn.pins.push_back(region);
      }
      le = std::max(le, geom::manhattan(src, pos));
    }
  }
  le_um = std::max(le, pitch);
}

}  // namespace

RoutingProblem::RoutingProblem(const netlist::Netlist& design,
                               const grid::RegionGridSpec& gspec,
                               const GsinoParams& params)
    : params_(params),
      grid_(gspec),
      sens_(design.net_count(), params.sensitivity_rate, params.seed),
      keff_(params.keff, params.tech),
      table_(ktable::LskTable::default_table()),
      nss_() {
  rnets_.reserve(design.net_count());
  le_um_.reserve(design.net_count());
  const double pitch =
      std::min(grid_.region_w_um(), grid_.region_h_um());

  std::vector<geom::PointF> positions;
  for (std::size_t n = 0; n < design.net_count(); ++n) {
    const netlist::Net& net = design.net(static_cast<netlist::NetId>(n));
    router::RouterNet rn;
    rn.id = static_cast<std::int32_t>(n);
    rn.si = sens_.si(static_cast<netlist::NetId>(n));

    positions.clear();
    for (const netlist::Pin& p : net.pins) positions.push_back(p.pos);
    double le = 0.0;
    derive_net_geometry(grid_, pitch, positions, rn, le);
    le_um_.push_back(le);
    rnets_.push_back(std::move(rn));
  }
  fingerprint_ = compute_fingerprint(grid_, params_.keff, table_, rnets_,
                                     le_um_, params_);
}

RoutingProblem RoutingProblem::with_pin_updates(
    const std::vector<PinUpdate>& updates) const {
  RoutingProblem p = *this;
  const double pitch = std::min(p.grid_.region_w_um(), p.grid_.region_h_um());

  // Any slot index at or beyond the current count appends (kAppend is the
  // canonical spelling). Appends are counted up front so the sensitivity
  // model is rebuilt once at the final count; its per-net draws are
  // index-stable, so every existing S_i keeps its value.
  const std::size_t original = p.rnets_.size();
  std::size_t appends = 0;
  for (const PinUpdate& u : updates) {
    if (u.net >= original) ++appends;
  }
  if (appends > 0) {
    const std::size_t final_count = original + appends;
    p.sens_ = netlist::SensitivityModel(final_count, p.params_.sensitivity_rate,
                                        p.params_.seed);
    p.rnets_.reserve(final_count);
    p.le_um_.reserve(final_count);
  }

  for (const PinUpdate& u : updates) {
    std::size_t slot = u.net;
    if (slot >= original) {
      slot = p.rnets_.size();
      router::RouterNet rn;
      rn.id = static_cast<std::int32_t>(slot);
      rn.si = p.sens_.si(static_cast<netlist::NetId>(slot));
      p.rnets_.push_back(std::move(rn));
      p.le_um_.push_back(0.0);
    }
    derive_net_geometry(p.grid_, pitch, u.pins, p.rnets_[slot],
                        p.le_um_[slot]);
  }

  p.fingerprint_ = compute_fingerprint(p.grid_, p.params_.keff, p.table_,
                                       p.rnets_, p.le_um_, p.params_);
  return p;
}

RoutingProblem make_problem(const netlist::Netlist& design,
                            const netlist::SyntheticSpec& spec,
                            const GsinoParams& params) {
  return RoutingProblem(design, spec.grid_spec(), params);
}

}  // namespace rlcr::gsino
