#include "store/serial.h"

#include <bit>
#include <cstring>
#include <span>

#include "util/binio.h"
#include "util/hash.h"

namespace rlcr::store {

namespace {

using util::BinaryReader;
using util::BinaryWriter;

// ------------------------------------------------------------- the frame

constexpr std::uint8_t kMagic[8] = {'R', 'L', 'C', 'R', 'A', 'R', 'T', '\0'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8;
constexpr std::size_t kChecksumBytes = 8;

std::uint64_t payload_checksum(const std::uint8_t* data, std::size_t size) {
  util::Fnv1a64 h;
  for (std::size_t i = 0; i < size; ++i) h.u8(data[i]);
  return h.value();
}

std::vector<std::uint8_t> frame(ArtifactType type,
                                std::vector<std::uint8_t> payload) {
  BinaryWriter w;
  for (const std::uint8_t b : kMagic) w.u8(b);
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(payload.size());
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  BinaryWriter tail;
  tail.u64(payload_checksum(payload.data(), payload.size()));
  const std::vector<std::uint8_t> t = tail.take();
  out.insert(out.end(), t.begin(), t.end());
  return out;
}

/// Validates magic/version/type/size/checksum; returns the payload span
/// (into `bytes`) or {nullptr, 0}.
std::pair<const std::uint8_t*, std::size_t> unframe(
    const std::vector<std::uint8_t>& bytes, ArtifactType expected) {
  if (bytes.size() < kHeaderBytes + kChecksumBytes) return {nullptr, 0};
  BinaryReader h(bytes.data(), kHeaderBytes);
  for (const std::uint8_t b : kMagic) {
    if (h.u8() != b) return {nullptr, 0};
  }
  if (h.u32() != kFormatVersion) return {nullptr, 0};
  if (h.u32() != static_cast<std::uint32_t>(expected)) return {nullptr, 0};
  const std::uint64_t payload_size = h.u64();
  if (payload_size != bytes.size() - kHeaderBytes - kChecksumBytes) {
    return {nullptr, 0};
  }
  const std::uint8_t* payload = bytes.data() + kHeaderBytes;
  BinaryReader tail(bytes.data() + kHeaderBytes + payload_size, kChecksumBytes);
  if (tail.u64() !=
      payload_checksum(payload, static_cast<std::size_t>(payload_size))) {
    return {nullptr, 0};
  }
  return {payload, static_cast<std::size_t>(payload_size)};
}

// Per-type field codecs for IdRouterOptions::profile_tie(): the encoding
// of every profile field follows from its type, and the field list itself
// lives in one place (id_router.h) — extending the profile extends the
// serialization automatically.
void put_field(BinaryWriter& w, double v) { w.f64(v); }
void put_field(BinaryWriter& w, bool v) { w.u8(v ? 1 : 0); }
void put_field(BinaryWriter& w, std::size_t v) { w.u64(v); }
void put_field(BinaryWriter& w, std::int32_t v) { w.i32(v); }

void get_field(BinaryReader& r, double& v) { v = r.f64(); }
void get_field(BinaryReader& r, bool& v) { v = r.flag(); }
void get_field(BinaryReader& r, std::size_t& v) {
  v = static_cast<std::size_t>(r.u64());
}
void get_field(BinaryReader& r, std::int32_t& v) { v = r.i32(); }

void write_options(BinaryWriter& w, const router::IdRouterOptions& o) {
  std::apply([&](const auto&... field) { (put_field(w, field), ...); },
             o.profile_tie());
}

router::IdRouterOptions read_options(BinaryReader& r) {
  router::IdRouterOptions o;
  std::apply([&](auto&... field) { (get_field(r, field), ...); },
             o.profile_tie());
  // `threads` is not part of the routing profile (output-invariant) and is
  // deliberately not serialized; load_routing sets it from the loading
  // problem.
  return o;
}

// ------------------------- shared region-state codec (solve and refine)
//
// The Phase II and Phase III payload tails are the same shape — the
// per-bound state over the routing's region set and the per-net LSK/noise
// vectors — so one codec serves both:
//
//   u64 instances | [u64 owned | u32 own[owned]]  (refine only)
//   | u64 members | f64 kth[members] | f64 ki[members]
//   | u64 slots | u32 slot_count[owned] | i32 slot[slots]
//   | f64 vec net_lsk | f64 vec net_noise
//
// A solve owns every instance; a refine owns the instances it changed and
// reads the rest from its base solve. The region set itself is not
// stored: the loader re-attaches the one the routing artifact derived,
// and the record must match its shape. The congestion map is not stored
// either: it is the routing's segment counts plus each non-empty
// instance's shield count, re-derived on load.

void write_region_state(BinaryWriter& w, const gsino::RegionSolutions& sols,
                        const std::vector<double>& net_lsk,
                        const std::vector<double>& net_noise) {
  const gsino::RegionSolutions::Packed& st = sols.packed();
  w.u64(sols.size());
  if (sols.base()) {
    w.u64(sols.own().size());
    for (const std::uint32_t si : sols.own()) w.u32(si);
  }
  w.u64(st.kth.size());
  for (const double k : st.kth) w.f64(k);
  for (const double k : st.ki) w.f64(k);
  w.u64(st.slots.size());
  for (std::size_t k = 0; k + 1 < st.slot_offset.size(); ++k) {
    w.u32(st.slot_offset[k + 1] - st.slot_offset[k]);
  }
  for (const ktable::Slot s : st.slots) w.i32(s);
  w.f64_vec(net_lsk);
  w.f64_vec(net_noise);
}

/// True when `slots` is an arrangement of an n-member instance: each
/// member index exactly once, every other entry a shield or an empty
/// track. An empty instance has no slots.
bool valid_arrangement(std::span<const ktable::Slot> slots, std::size_t n,
                       std::vector<char>& seen) {
  if (n == 0) return slots.empty();
  seen.assign(n, 0);
  std::size_t placed = 0;
  for (const ktable::Slot s : slots) {
    if (s >= 0) {
      const auto i = static_cast<std::size_t>(s);
      if (i >= n || seen[i]) return false;
      seen[i] = 1;
      ++placed;
    } else if (s != ktable::kShieldSlot && s != ktable::kEmptySlot) {
      return false;
    }
  }
  return placed == n;
}

struct RegionState {
  std::shared_ptr<const gsino::RegionSolutions> solutions;
  std::shared_ptr<std::vector<double>> net_lsk;
  std::shared_ptr<std::vector<double>> net_noise;
  std::shared_ptr<grid::CongestionMap> congestion;
};

/// Decodes the state over `phase1`'s region set; a refine record also
/// names the instances it owns over `base` (null for a solve record).
bool read_region_state(
    BinaryReader& r, const gsino::RoutingProblem& problem,
    const gsino::RoutingArtifact& phase1,
    const std::shared_ptr<const gsino::RegionSolutions>& base,
    RegionState& out) {
  const gsino::RegionSet& set = *phase1.regions;
  if (r.u64() != set.size() || !r.ok()) return false;

  // The owned instances: every one for a solve, a sorted list for a refine.
  std::vector<std::uint32_t> own;
  std::size_t members = set.member_count();
  if (base) {
    const std::uint64_t owned = r.seq_size(/*elem_bytes=*/4);
    if (!r.ok() || owned > set.size()) return false;
    own.resize(static_cast<std::size_t>(owned));
    members = 0;
    for (std::size_t k = 0; k < own.size(); ++k) {
      own[k] = r.u32();
      if (!r.ok() || own[k] >= set.size() || (k > 0 && own[k] <= own[k - 1])) {
        return false;
      }
      members += set.count(own[k]);
    }
  }
  const auto instance_at = [&](std::size_t k) {
    return base ? std::size_t{own[k]} : k;
  };
  const std::size_t owned = base ? own.size() : set.size();

  gsino::RegionSolutions::Packed st;
  if (r.seq_size(/*elem_bytes=*/16) != members || !r.ok()) return false;
  st.kth.resize(members);
  st.ki.resize(members);
  for (double& k : st.kth) k = r.f64();
  for (double& k : st.ki) k = r.f64();

  const std::uint64_t slot_total = r.seq_size(/*elem_bytes=*/4);
  if (!r.ok()) return false;
  st.slot_offset.assign(owned + 1, 0);
  for (std::size_t k = 0; k < owned; ++k) {
    const std::uint64_t next = std::uint64_t{st.slot_offset[k]} + r.u32();
    if (next > slot_total) return false;
    st.slot_offset[k + 1] = static_cast<std::uint32_t>(next);
  }
  if (!r.ok() || st.slot_offset.back() != slot_total) return false;
  st.slots.resize(static_cast<std::size_t>(slot_total));
  for (ktable::Slot& s : st.slots) s = r.i32();
  if (!r.ok()) return false;

  std::vector<char> seen;
  for (std::size_t k = 0; k < owned; ++k) {
    const std::span<const ktable::Slot> mine(
        st.slots.data() + st.slot_offset[k],
        st.slot_offset[k + 1] - st.slot_offset[k]);
    if (!valid_arrangement(mine, set.count(instance_at(k)), seen)) {
      return false;
    }
  }

  out.net_lsk = std::make_shared<std::vector<double>>();
  out.net_noise = std::make_shared<std::vector<double>>();
  if (!r.f64_vec(*out.net_lsk) || !r.f64_vec(*out.net_noise)) return false;
  if (out.net_lsk->size() != problem.net_count() ||
      out.net_noise->size() != problem.net_count()) {
    return false;
  }

  out.solutions =
      base ? std::make_shared<const gsino::RegionSolutions>(base, std::move(own),
                                                            std::move(st))
           : std::make_shared<const gsino::RegionSolutions>(phase1.regions,
                                                            std::move(st));
  out.congestion = std::make_shared<grid::CongestionMap>(
      gsino::solution_congestion(problem.grid(), *out.solutions));
  return true;
}

}  // namespace

// ------------------------------------------------------------------- save

std::vector<std::uint8_t> save(const gsino::RoutingArtifact& art) {
  BinaryWriter w;
  write_options(w, art.options);
  w.u64(art.seed);
  const auto& routing = *art.routing;
  w.u64(routing.routes.size());
  for (const router::NetRoute& r : routing.routes) {
    w.i32(r.net_id);
    w.u64(r.edges.size());
    for (const router::GridEdge& e : r.edges) {
      w.i32(e.a.x);
      w.i32(e.a.y);
      w.i32(e.b.x);
      w.i32(e.b.y);
    }
  }
  w.f64(routing.total_wirelength_um);
  w.u64(routing.stats.edges_initial);
  w.u64(routing.stats.edges_deleted);
  w.u64(routing.stats.edges_locked);
  w.u64(routing.stats.reinserts);
  w.u64(routing.stats.prerouted_nets);
  w.u64(routing.stats.rsmt_fallback_nets);
  w.f64(routing.stats.runtime_s);
  w.f64(art.seconds);
  w.u64(router::route_hash(routing));  // the load-fidelity oracle
  return frame(ArtifactType::kRouting, w.take());
}

std::vector<std::uint8_t> save(const gsino::BudgetArtifact& art) {
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(art.rule));
  w.f64(art.bound_v);
  w.f64(art.margin);
  w.f64_vec(*art.kth);
  w.f64(art.seconds);
  return frame(ArtifactType::kBudget, w.take());
}

std::vector<std::uint8_t> save(const gsino::RegionSolveArtifact& art) {
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(art.kind));
  w.u8(art.annealed ? 1 : 0);
  w.u64(art.violating);
  w.f64(art.seconds);
  write_region_state(w, *art.solutions, *art.net_lsk, *art.net_noise);
  return frame(ArtifactType::kRegionSolve, w.take());
}

std::vector<std::uint8_t> save(const gsino::RefineArtifact& art) {
  BinaryWriter w;
  w.u64(art.violating);
  w.u64(art.unfixable);
  const gsino::RefineStats& s = art.stats;
  w.i32(s.pass1_nets_fixed);
  w.i32(s.pass1_resolves);
  w.i32(s.pass1_gave_up);
  w.i32(s.pass2_shields_removed);
  w.i32(s.pass2_accepted);
  w.i32(s.pass2_rejected);
  w.f64(art.seconds);
  write_region_state(w, *art.solutions, *art.net_lsk, *art.net_noise);
  return frame(ArtifactType::kRefine, w.take());
}

// ------------------------------------------------------------------- load

std::shared_ptr<const gsino::RoutingArtifact> load_routing(
    const std::vector<std::uint8_t>& bytes,
    const gsino::RoutingProblem& problem) {
  const auto [payload, size] = unframe(bytes, ArtifactType::kRouting);
  if (payload == nullptr) return nullptr;
  BinaryReader r(payload, size);

  router::IdRouterOptions options = read_options(r);
  // `threads` is not stored with the profile; the derivation below fans
  // out at the loading session's router thread count.
  options.threads = problem.params().router.threads;
  const std::uint64_t seed = r.u64();
  auto routing = std::make_shared<router::RoutingResult>();
  const std::uint64_t nets = r.seq_size(/*elem_bytes=*/12);
  if (!r.ok() || nets != problem.net_count()) return nullptr;
  const grid::RegionGrid& grid = problem.grid();
  routing->routes.resize(nets);
  for (router::NetRoute& route : routing->routes) {
    route.net_id = r.i32();
    const std::uint64_t edges = r.seq_size(/*elem_bytes=*/16);
    if (!r.ok()) return nullptr;
    route.edges.resize(edges);
    for (router::GridEdge& e : route.edges) {
      e.a.x = r.i32();
      e.a.y = r.i32();
      e.b.x = r.i32();
      e.b.y = r.i32();
      if (r.ok() && (!grid.in_bounds(e.a) || !grid.in_bounds(e.b))) {
        return nullptr;  // routed for a different grid
      }
    }
  }
  routing->total_wirelength_um = r.f64();
  routing->stats.edges_initial = static_cast<std::size_t>(r.u64());
  routing->stats.edges_deleted = static_cast<std::size_t>(r.u64());
  routing->stats.edges_locked = static_cast<std::size_t>(r.u64());
  routing->stats.reinserts = static_cast<std::size_t>(r.u64());
  routing->stats.prerouted_nets = static_cast<std::size_t>(r.u64());
  routing->stats.rsmt_fallback_nets = static_cast<std::size_t>(r.u64());
  routing->stats.runtime_s = r.f64();
  const double seconds = r.f64();
  const std::uint64_t saved_hash = r.u64();
  if (!r.at_end()) return nullptr;

  // The fidelity oracle: the decoded routes must reproduce the exact
  // golden hash computed at save time.
  if (router::route_hash(*routing) != saved_hash) return nullptr;

  auto art = gsino::derive_routing_artifact(problem, options, seed,
                                            std::move(routing));
  art->seconds = seconds;
  return art;
}

std::shared_ptr<const gsino::BudgetArtifact> load_budget(
    const std::vector<std::uint8_t>& bytes,
    const gsino::RoutingProblem& problem,
    std::shared_ptr<const gsino::RoutingArtifact> phase1) {
  const auto [payload, size] = unframe(bytes, ArtifactType::kBudget);
  if (payload == nullptr) return nullptr;
  BinaryReader r(payload, size);

  auto art = std::make_shared<gsino::BudgetArtifact>();
  const std::uint32_t rule = r.u32();
  if (rule > static_cast<std::uint32_t>(gsino::BudgetRule::kManhattanMargin)) {
    return nullptr;
  }
  art->rule = static_cast<gsino::BudgetRule>(rule);
  art->bound_v = r.f64();
  art->margin = r.f64();
  auto kth = std::make_shared<std::vector<double>>();
  if (!r.f64_vec(*kth)) return nullptr;
  art->kth = std::move(kth);
  art->seconds = r.f64();
  if (!r.at_end() || art->kth->size() != problem.net_count()) return nullptr;
  if (art->rule == gsino::BudgetRule::kRoutedLength) art->phase1 = phase1;
  return art;
}

std::shared_ptr<const gsino::RegionSolveArtifact> load_region_solve(
    const std::vector<std::uint8_t>& bytes,
    const gsino::RoutingProblem& problem,
    std::shared_ptr<const gsino::RoutingArtifact> phase1,
    std::shared_ptr<const gsino::BudgetArtifact> budget) {
  const auto [payload, size] = unframe(bytes, ArtifactType::kRegionSolve);
  if (payload == nullptr) return nullptr;
  BinaryReader r(payload, size);

  auto art = std::make_shared<gsino::RegionSolveArtifact>();
  const std::uint32_t kind = r.u32();
  const std::uint8_t annealed = r.u8();
  if (kind > static_cast<std::uint32_t>(gsino::FlowKind::kGsino) ||
      annealed > 1) {
    return nullptr;
  }
  art->kind = static_cast<gsino::FlowKind>(kind);
  art->annealed = annealed != 0;
  art->violating = static_cast<std::size_t>(r.u64());
  art->seconds = r.f64();

  RegionState state;
  if (!read_region_state(r, problem, *phase1, nullptr, state) ||
      !r.at_end()) {
    return nullptr;
  }

  art->phase1 = std::move(phase1);
  art->budget = std::move(budget);
  art->solutions = std::move(state.solutions);
  art->net_lsk = std::move(state.net_lsk);
  art->net_noise = std::move(state.net_noise);
  art->congestion = std::move(state.congestion);
  return art;
}

std::shared_ptr<const gsino::RefineArtifact> load_refine(
    const std::vector<std::uint8_t>& bytes,
    const gsino::RoutingProblem& problem,
    std::shared_ptr<const gsino::RegionSolveArtifact> base) {
  const auto [payload, size] = unframe(bytes, ArtifactType::kRefine);
  if (payload == nullptr) return nullptr;
  BinaryReader r(payload, size);

  auto art = std::make_shared<gsino::RefineArtifact>();
  art->violating = static_cast<std::size_t>(r.u64());
  art->unfixable = static_cast<std::size_t>(r.u64());
  gsino::RefineStats& s = art->stats;
  s.pass1_nets_fixed = r.i32();
  s.pass1_resolves = r.i32();
  s.pass1_gave_up = r.i32();
  s.pass2_shields_removed = r.i32();
  s.pass2_accepted = r.i32();
  s.pass2_rejected = r.i32();
  art->seconds = r.f64();

  RegionState state;
  if (!read_region_state(r, problem, *base->phase1, base->solutions, state) ||
      !r.at_end()) {
    return nullptr;
  }

  art->base = std::move(base);
  art->solutions = std::move(state.solutions);
  art->net_lsk = std::move(state.net_lsk);
  art->net_noise = std::move(state.net_noise);
  art->congestion = std::move(state.congestion);
  return art;
}

}  // namespace rlcr::store
