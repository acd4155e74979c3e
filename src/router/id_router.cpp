#include "router/id_router.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "rsmt/steiner.h"
#include "steiner/tree_cache.h"
#include "util/indexed_heap.h"
#include "util/stopwatch.h"

namespace rlcr::router {

namespace {

constexpr std::uint8_t kActive = 0;
constexpr std::uint8_t kDeleted = 1;
constexpr std::uint8_t kLocked = 2;

// Bits of EdgeHot::meta beyond the 2-bit state.
constexpr std::uint8_t kStateMask = 0x3;
constexpr std::uint8_t kCertifiedBit = 0x4;  ///< never-deletable certificate
constexpr std::uint8_t kOnCertBit = 0x8;     ///< on the positive cert paths

/// How many deletable() BFS runs a net absorbs before its no-BFS
/// certificates (frozen flag, bridge pass, pin paths) are refreshed. Purely
/// a work-scheduling knob: certificates are sound, so the refresh cadence
/// cannot change routing output, only how many BFS calls are skipped.
constexpr int kCertifyInterval = 4;

/// Everything the deletion loop's hot paths need about a candidate edge,
/// packed into one 16-byte record (one cache line covers four edges):
/// endpoint region ids, the static f(WL) term, direction, and the
/// state/certificate bits. The per-net LocalEdge keeps graph topology only.
struct EdgeHot {
  // No default member init: records live in a bulk-allocated arena whose
  // every field is assigned during build, so zeroing it first is waste.
  std::int32_t ru, rv;  // endpoint region indices
  float fwl;            // static wire-length term of Eq. (2)
  std::uint8_t dir;     // grid::Dir as index
  std::uint8_t meta;    // state | certificate bits
};
static_assert(sizeof(EdgeHot) == 16);

struct LocalEdge {
  std::int32_t u, v;  // local vertex ids (arena-allocated, assigned in build)
  std::uint8_t state;
};

/// Per-net working graph over the pin bounding box.
/// Per-net arrays live as slices of three shared arenas (one allocation
/// each for the whole net list instead of a dozen per net); NetWork holds
/// raw pointers into them plus the counts.
struct NetWork {
  geom::Rect bbox;
  std::int32_t w = 0, h = 0;  // bbox dimensions in regions
  LocalEdge* edges = nullptr;
  std::size_t edge_count = 0;
  std::size_t gid_base = 0;  ///< global id of edges[0]
  // CSR adjacency: vertex -> [edge ids].
  std::int32_t* adj_offset = nullptr;  // vcount + 1
  std::int32_t* adj_edges = nullptr;   // 2 * edge_count
  // Active incident-edge count per vertex per direction.
  std::array<std::uint16_t, 2>* incident = nullptr;
  std::vector<std::int32_t> pin_locals;
  std::vector<std::int32_t> pin_limits;  ///< BFS distance cap per pin (guard)
  std::int32_t* pin_index = nullptr;  ///< vertex -> pin ordinal or -1
  std::int32_t max_pin_limit = 0;
  std::int32_t src_local = 0;
  double si = 0.0;
  double rsmt_len = 1.0;  ///< RSMT length estimate (>= 1 region unit)
  bool prerouted = false;
  bool trivial = false;  ///< < 2 pins or single-region bbox: nothing to route
  /// Pre-routed nets: deduplicated (region * 2 + dir) presence keys in
  /// first-touch order, recorded by the parallel build and replayed into the
  /// shared region records by the ordered combiner.
  std::vector<std::uint64_t> present_keys;
  int bfs_since_certify = 0;
  int locks_since_tarjan = 1;  ///< run the first bridge pass unconditionally
  /// Positive certificate: local edge ids forming one certified
  /// source->pin path family, every pin within its detour limit. An edge
  /// off these paths is deletable without BFS — the paths survive its
  /// removal and keep certifying every pin. Edges change state only when
  /// popped, so the certificate stays valid until a pop touches it.
  std::vector<std::int32_t> cert_edges;
  std::vector<GridEdge> fixed_edges;  // for pre-routed nets
  /// Region index per bbox vertex (avoids div/mod on the hot paths).
  std::int32_t* region_idx = nullptr;

  // Expected-usage demand model: the net's final route will cross about
  // `est_regions[d]` regions in direction d; while `active_regions[d]`
  // regions still hold candidate edges, each carries fractional demand
  // weight[d] = min(1, est/active). The weights converge to binary
  // presence as deletion thins the graph, so region densities stay
  // realistic throughout instead of counting whole bounding boxes.
  double est_regions[2] = {0.0, 0.0};
  std::int32_t active_regions[2] = {0, 0};
  double weight_applied[2] = {0.0, 0.0};
  // Maintained per-direction lists of vertices with active incident edges,
  // so a rebalance touches exactly the active set instead of rescanning the
  // whole bounding box. active_pos[d][v] = index in active_vertices[d].
  std::int32_t* active_vertices[2] = {nullptr, nullptr};
  std::int32_t* active_pos[2] = {nullptr, nullptr};
  std::int32_t active_count[2] = {0, 0};

  std::int32_t local(geom::Point p) const {
    return (p.y - bbox.lo.y) * w + (p.x - bbox.lo.x);
  }
  geom::Point global(std::int32_t v) const {
    return geom::Point{bbox.lo.x + v % w, bbox.lo.y + v / w};
  }
  std::size_t vertex_count() const {
    return static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  }
  double target_weight(int d) const {
    if (active_regions[d] <= 0) return 0.0;
    return std::min(1.0, est_regions[d] / active_regions[d]);
  }
  void drop_active_vertex(int d, std::int32_t v) {
    std::int32_t* list = active_vertices[d];
    std::int32_t* pos = active_pos[d];
    const std::int32_t at = pos[static_cast<std::size_t>(v)];
    const std::int32_t last = list[static_cast<std::size_t>(active_count[d] - 1)];
    list[static_cast<std::size_t>(at)] = last;
    pos[static_cast<std::size_t>(last)] = at;
    --active_count[d];
    pos[static_cast<std::size_t>(v)] = -1;
  }
};

/// Reusable BFS / cert-path-walk scratch for deletability checks.
struct BfsScratch {
  std::vector<std::uint32_t> stamp;  ///< per-vertex visit stamp
  std::vector<std::int32_t> dist;    ///< BFS depth per vertex
  std::vector<std::int32_t> parent;  ///< BFS parent edge per vertex
  std::uint32_t epoch = 0;
  std::vector<std::int32_t> queue;
  std::vector<std::uint32_t> edge_mark;  ///< per-edge stamp (cert-path walk)
  std::uint32_t mark_epoch = 0;

  void init(std::size_t vertices, std::size_t edges) {
    stamp.assign(vertices, 0);
    dist.assign(vertices, 0);
    parent.assign(vertices, -1);
    queue.reserve(vertices);
    edge_mark.assign(edges, 0);
  }
};

/// Shared per-(region, direction) deletion state, dense over the grid: the
/// expected-usage presence statistics (fractional Nns, sum Si, sum Si^2),
/// the Eq. (2)/(3) density and overflow derived from them, and the flag
/// saying the derivation lags the statistics. An update touches one record.
/// The flag is a bool, not a byte type: a byte store may alias anything,
/// which would make the compiler reload every operand of the rebalance
/// loop after each flag write.
struct RegionRec {
  double nns = 0.0, sum_si = 0.0, sum_si2 = 0.0;
  bool stale = false;
  double dens = 0.0, over = 0.0;
};

/// Presence weight w of a net with sensitivity si, as a record update.
void add_presence(RegionRec& r, double w, double si) {
  r.nns += w;
  r.sum_si += w * si;
  r.sum_si2 += w * si * si;
}

/// Monotone L-shaped walk between two region points. The leading-leg axis
/// is chosen by a deterministic hash of the endpoints so that pre-routed
/// nets spread over both elbow choices instead of piling onto shared
/// x-first corridors.
void emit_preroute_l(geom::Point p, geom::Point q, std::vector<GridEdge>& out) {
  const std::uint64_t h =
      std::hash<geom::Point>{}(p) * 31 + std::hash<geom::Point>{}(q);
  const bool x_first = (h & 1) == 0;
  geom::Point cur = p;
  auto walk_x_to = [&](std::int32_t tx) {
    const std::int32_t step_x = (tx > cur.x) ? 1 : -1;
    while (cur.x != tx) {
      const geom::Point next{cur.x + step_x, cur.y};
      out.push_back(make_edge(cur, next));
      cur = next;
    }
  };
  auto walk_y_to = [&](std::int32_t ty) {
    const std::int32_t step_y = (ty > cur.y) ? 1 : -1;
    while (cur.y != ty) {
      const geom::Point next{cur.x, cur.y + step_y};
      out.push_back(make_edge(cur, next));
      cur = next;
    }
  };
  if (x_first) {
    walk_x_to(q.x);
    walk_y_to(q.y);
  } else {
    walk_y_to(q.y);
    walk_x_to(q.x);
  }
}

}  // namespace

IdRouter::IdRouter(const grid::RegionGrid& grid, const sino::NssModel& nss,
                   const IdRouterOptions& options)
    : grid_(&grid), nss_(&nss), options_(options) {}

RoutingResult IdRouter::route(const std::vector<RouterNet>& nets) const {
  util::Stopwatch watch;
  RoutingResult result;
  result.routes.resize(nets.size());

  const std::size_t region_count = grid_->region_count();
  // Per-direction slices of one allocation: rec[d][region].
  std::vector<RegionRec> region_recs(region_count * 2);
  RegionRec* const rec[2] = {region_recs.data(),
                             region_recs.data() + region_count};
  const int threads = parallel::resolve_threads(options_.threads);

  // route() is one long function whose phases run back-to-back, so the
  // phase spans share one re-emplaced slot instead of nested scopes
  // (emplace ends the previous phase, then starts the next).
  std::optional<obs::ScopedSpan> phase_span;
  phase_span.emplace("router.build", "router");
  phase_span->arg("nets", static_cast<double>(nets.size()));

  // One tree builder + content-addressed cache per route() call: the
  // huge-net pre-route topologies and the pooled f(WL) normalization
  // lengths both draw from it, so an identical pin configuration builds
  // exactly once no matter how many nets share it, which call site asks,
  // or which worker asks first (the builder is a pure function of pin
  // content, so lookup races cannot change values). Tree construction
  // itself fans out with the chunked build pass below; its shared-stats
  // consequences commit in net order via the ordered reducer.
  steiner::TreeCache tree_cache;
  const steiner::TreeBuilder tree_builder({}, &tree_cache);

  // ---------------------------------------------------------------- build
  //
  // The per-net work — graph construction, CSR adjacency, f(WL) tables,
  // EdgeHot records — is independent across nets and runs as chunked jobs
  // on the shared pool (src/parallel). Everything order-sensitive stays off
  // the workers: pass A classifies and sizes nets serially, the arenas are
  // carved serially, and the shared presence accumulation is replayed by
  // the ordered_reduce combiner in net order — so the per-region
  // floating-point sums (and hence every weight, deletion, and route) are
  // bit-identical at any thread count, including the serial path at 1.
  //
  // Pass A: bounding boxes and pre-route decisions, so the per-net array
  // sizes are known and the arenas can be carved in one allocation each.
  std::vector<NetWork> works(nets.size());
  std::size_t sum_v = 0, sum_e = 0;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const RouterNet& net = nets[n];
    NetWork& wk = works[n];
    wk.si = net.si;
    result.routes[n].net_id = net.id;
    for (const geom::Point& p : net.pins) wk.bbox.expand(p);
    if (net.pins.size() < 2 || wk.bbox.cell_count() <= 1) {
      wk.prerouted = true;
      wk.trivial = true;  // nothing to route
      continue;
    }
    // Topology-degradation visibility: this net's base 1-Steiner
    // construction will silently degrade to plain RMST. Counted here in the
    // serial sizing pass (from the raw pin count, mirroring the
    // rsmt::rsmt fallback predicate) so the value never depends on tree
    // cache hits, thread count, or build order.
    if (net.pins.size() > tree_builder.options().max_pins_exact) {
      ++result.stats.rsmt_fallback_nets;
    }
    if (static_cast<std::size_t>(wk.bbox.cell_count()) >
        options_.huge_net_bbox_threshold) {
      wk.prerouted = true;  // pre-routed on its RSMT below
      continue;
    }
    wk.w = static_cast<std::int32_t>(wk.bbox.width());
    wk.h = static_cast<std::int32_t>(wk.bbox.height());
    sum_v += wk.vertex_count();
    wk.edge_count = static_cast<std::size_t>(
        2 * wk.w * wk.h - wk.w - wk.h);  // grid graph over the bbox
    sum_e += wk.edge_count;
  }

  // Global candidate-edge ids: net-major, so ascending id matches the
  // historical (net, edge) tie-break of the lazy heap.
  std::vector<std::size_t> edge_base(works.size() + 1, 0);
  for (std::size_t n = 0; n < works.size(); ++n) {
    edge_base[n + 1] = edge_base[n] + works[n].edge_count;
  }
  const std::size_t total_edges = edge_base.back();

  // Arenas: int32 slots per net = (V+1) adj_offset + 2E adj_edges +
  // V pin_index + V region_idx + 2V active_pos + 2V active_vertices.
  // new T[] (not vectors): default-init leaves the trivially-typed arenas
  // uninitialized, and every slice is written before it is read. Carving is
  // serial (cursor order = net order); filling is the workers' job, and the
  // slices are disjoint so they share nothing but cache lines.
  const std::unique_ptr<LocalEdge[]> edge_arena(new LocalEdge[sum_e]);
  const std::unique_ptr<std::array<std::uint16_t, 2>[]> incident_arena(
      new std::array<std::uint16_t, 2>[sum_v]);
  const std::unique_ptr<std::int32_t[]> i32_arena(
      new std::int32_t[7 * sum_v + works.size() + 2 * sum_e]);
  const std::unique_ptr<EdgeHot[]> ehot(new EdgeHot[total_edges]);
  const std::unique_ptr<std::int32_t[]> gid_net(new std::int32_t[total_edges]);
  {
    std::size_t edge_cursor = 0, incident_cursor = 0, i32_cursor = 0;
    for (std::size_t n = 0; n < works.size(); ++n) {
      NetWork& wk = works[n];
      wk.gid_base = edge_base[n];
      if (wk.prerouted) continue;
      const std::size_t vcount = wk.vertex_count();
      wk.edges = edge_arena.get() + edge_cursor;
      edge_cursor += wk.edge_count;
      wk.incident = incident_arena.get() + incident_cursor;
      incident_cursor += vcount;
      auto carve = [&](std::size_t count) {
        std::int32_t* p = i32_arena.get() + i32_cursor;
        i32_cursor += count;
        return p;
      };
      wk.adj_offset = carve(vcount + 1);
      wk.adj_edges = carve(2 * wk.edge_count);
      wk.pin_index = carve(vcount);
      wk.region_idx = carve(vcount);
      wk.active_pos[0] = carve(vcount);
      wk.active_pos[1] = carve(vcount);
      wk.active_vertices[0] = carve(vcount);
      wk.active_vertices[1] = carve(vcount);
    }
  }

  // Per-worker build scratch: CSR cursors, f(WL) distance tables, and the
  // pre-route path's epoch-stamped dedup arrays (the stamped-commit pattern
  // of maze.cpp, replacing the historical per-net hash sets). Indexed by
  // the worker id, which is scratch-only: nothing written to shared state
  // may depend on it.
  const std::size_t h_edge_slots =
      static_cast<std::size_t>(grid_->rows()) *
      static_cast<std::size_t>(std::max(0, grid_->cols() - 1));
  const std::size_t edge_slots =
      h_edge_slots + static_cast<std::size_t>(grid_->cols()) *
                         static_cast<std::size_t>(std::max(0, grid_->rows() - 1));
  auto edge_slot = [&](const GridEdge& e) {
    return e.dir() == grid::Dir::kHorizontal
               ? static_cast<std::size_t>(e.a.y) *
                         static_cast<std::size_t>(grid_->cols() - 1) +
                     static_cast<std::size_t>(e.a.x)
               : h_edge_slots +
                     static_cast<std::size_t>(e.a.y) *
                         static_cast<std::size_t>(grid_->cols()) +
                     static_cast<std::size_t>(e.a.x);
  };
  struct BuildScratch {
    std::vector<std::int32_t> csr_cursor;
    std::vector<std::int64_t> dist_src, dist_sink;
    std::vector<GridEdge> l_shape;
    std::vector<std::uint32_t> edge_stamp;     // global-grid edge slots
    std::vector<std::uint32_t> present_stamp;  // region * 2 + dir
    std::uint32_t edge_epoch = 0, present_epoch = 0;
  };
  std::vector<BuildScratch> build_scratch(static_cast<std::size_t>(threads));

  // Pre-route on the RSMT topology with L-shapes; fixed demand. Dedup of
  // both the emitted edges and the (region, dir) presence set uses the
  // worker's epoch-stamped arrays — first-touch order, exactly the
  // insertion order the historical unordered_sets saw.
  auto build_prerouted = [&](const RouterNet& net, NetWork& wk,
                             BuildScratch& sc) {
    if (sc.edge_stamp.empty()) {
      sc.edge_stamp.assign(edge_slots, 0);
      sc.present_stamp.assign(region_count * 2, 0);
    }
    const std::shared_ptr<const rsmt::Tree> tree_ptr =
        tree_builder.build(net.pins);
    const rsmt::Tree& tree = *tree_ptr;
    ++sc.edge_epoch;
    for (const auto& [a, b] : tree.edges) {
      sc.l_shape.clear();
      emit_preroute_l(tree.nodes[static_cast<std::size_t>(a)],
                      tree.nodes[static_cast<std::size_t>(b)], sc.l_shape);
      for (const GridEdge& e : sc.l_shape) {
        const std::size_t slot = edge_slot(e);
        if (sc.edge_stamp[slot] != sc.edge_epoch) {
          sc.edge_stamp[slot] = sc.edge_epoch;
          wk.fixed_edges.push_back(e);
        }
      }
    }
    // Fixed (binary) presence: each endpoint region of each edge, recorded
    // for the ordered stats replay.
    ++sc.present_epoch;
    for (const GridEdge& e : wk.fixed_edges) {
      const int d = static_cast<int>(e.dir());
      for (const geom::Point p : {e.a, e.b}) {
        const std::uint64_t key =
            grid_->index(p) * 2 + static_cast<unsigned>(d);
        if (sc.present_stamp[key] != sc.present_epoch) {
          sc.present_stamp[key] = sc.present_epoch;
          wk.present_keys.push_back(key);
        }
      }
    }
  };

  // Full connection graph over the bounding box, filled into the net's
  // pre-carved arena slices, plus the f(WL) tables and EdgeHot records.
  auto build_pooled = [&](const RouterNet& net, NetWork& wk, std::size_t n,
                          BuildScratch& sc) {
    const auto vcount = wk.vertex_count();
    std::fill_n(wk.incident, vcount, std::array<std::uint16_t, 2>{0, 0});
    {
      // Row-major incremental fill: region ids advance by 1 per column and
      // by the grid stride per row — no div/mod per vertex.
      const std::int32_t stride = grid_->cols();
      std::int32_t row_base = static_cast<std::int32_t>(
          grid_->index(geom::Point{wk.bbox.lo.x, wk.bbox.lo.y}));
      std::size_t v = 0;
      for (std::int32_t y = 0; y < wk.h; ++y, row_base += stride) {
        for (std::int32_t x = 0; x < wk.w; ++x) {
          wk.region_idx[v++] = row_base + x;
        }
      }
    }
    {
      std::size_t ec = 0;
      for (std::int32_t y = 0; y < wk.h; ++y) {
        for (std::int32_t x = 0; x < wk.w; ++x) {
          const std::int32_t v = y * wk.w + x;
          if (x + 1 < wk.w) wk.edges[ec++] = LocalEdge{v, v + 1, kActive};
          if (y + 1 < wk.h) wk.edges[ec++] = LocalEdge{v, v + wk.w, kActive};
        }
      }
    }

    // CSR adjacency.
    std::fill_n(wk.adj_offset, vcount + 1, 0);
    for (std::size_t ei = 0; ei < wk.edge_count; ++ei) {
      const LocalEdge& e = wk.edges[ei];
      ++wk.adj_offset[static_cast<std::size_t>(e.u) + 1];
      ++wk.adj_offset[static_cast<std::size_t>(e.v) + 1];
    }
    for (std::size_t i = 1; i <= vcount; ++i) {
      wk.adj_offset[i] += wk.adj_offset[i - 1];
    }
    {
      sc.csr_cursor.assign(wk.adj_offset, wk.adj_offset + vcount);
      for (std::size_t ei = 0; ei < wk.edge_count; ++ei) {
        const LocalEdge& e = wk.edges[ei];
        wk.adj_edges[static_cast<std::size_t>(
            sc.csr_cursor[static_cast<std::size_t>(e.u)]++)] =
            static_cast<std::int32_t>(ei);
        wk.adj_edges[static_cast<std::size_t>(
            sc.csr_cursor[static_cast<std::size_t>(e.v)]++)] =
            static_cast<std::int32_t>(ei);
      }
    }

    // Pins (deduplicated local ids), their detour-guard limits, and the
    // vertex -> pin ordinal map the bounded BFS certifies against.
    {
      wk.pin_locals.reserve(net.pins.size());
      for (const geom::Point& p : net.pins) wk.pin_locals.push_back(wk.local(p));
      std::sort(wk.pin_locals.begin(), wk.pin_locals.end());
      wk.pin_locals.erase(
          std::unique(wk.pin_locals.begin(), wk.pin_locals.end()),
          wk.pin_locals.end());
      wk.src_local = wk.local(net.pins.front());
      wk.pin_limits.reserve(wk.pin_locals.size());
      std::fill_n(wk.pin_index, vcount, -1);
      for (std::size_t p = 0; p < wk.pin_locals.size(); ++p) {
        const std::int32_t pl = wk.pin_locals[p];
        const auto dist = geom::manhattan(wk.global(pl), net.pins.front());
        wk.pin_limits.push_back(static_cast<std::int32_t>(std::ceil(
                                    options_.max_detour_factor *
                                    static_cast<double>(dist))) +
                                options_.detour_slack);
        wk.pin_index[static_cast<std::size_t>(pl)] =
            static_cast<std::int32_t>(p);
        wk.max_pin_limit = std::max(wk.max_pin_limit, wk.pin_limits.back());
      }
    }

    // Incident counts, expected-usage estimates, and initial presence.
    // A horizontal edge connects u and u+1; with w == 1 no horizontal
    // edges exist and u+1 aliases the vertical stride.
    for (std::size_t ei = 0; ei < wk.edge_count; ++ei) {
      const LocalEdge& e = wk.edges[ei];
      const int d = (e.v == e.u + 1 && wk.w > 1)
                        ? static_cast<int>(grid::Dir::kHorizontal)
                        : static_cast<int>(grid::Dir::kVertical);
      ++wk.incident[static_cast<std::size_t>(e.u)][d];
      ++wk.incident[static_cast<std::size_t>(e.v)][d];
    }
    // The final tree crosses roughly rsmt_len boundaries, split between
    // directions in proportion to the bbox aspect; +1 converts crossings
    // to touched regions.
    wk.rsmt_len = static_cast<double>(std::max<std::int64_t>(
        1, tree_builder.length(net.pins)));
    {
      const double wx = std::max(1, wk.w - 1);
      const double wy = std::max(1, wk.h - 1);
      wk.est_regions[0] = wk.rsmt_len * (wx / (wx + wy)) + 1.0;
      wk.est_regions[1] = wk.rsmt_len * (wy / (wx + wy)) + 1.0;
    }
    for (int d = 0; d < 2; ++d) {
      std::fill_n(wk.active_pos[d], vcount, -1);
      for (std::size_t v = 0; v < vcount; ++v) {
        if (wk.incident[v][static_cast<std::size_t>(d)] > 0) {
          wk.active_pos[d][v] = wk.active_count[d];
          wk.active_vertices[d][static_cast<std::size_t>(wk.active_count[d]++)] =
              static_cast<std::int32_t>(v);
          ++wk.active_regions[d];
        }
      }
      // The presence replay for this weight happens in the ordered
      // combiner, never here on the worker.
      wk.weight_applied[d] = wk.target_weight(d);
    }

    // Static f(WL) per edge: shortest source->sink path forced through it,
    // normalized by the RSMT length estimate (>= 1 region unit). Source and
    // nearest-sink distances are precomputed per vertex, so the edge loop
    // is table lookups instead of O(pins) Manhattan scans. The heap key is
    // NOT computed here — it needs the density caches, which exist only
    // after every net's stats are combined.
    const geom::Point src = net.pins.front();
    sc.dist_src.resize(vcount);
    sc.dist_sink.resize(vcount);
    for (std::size_t v = 0; v < vcount; ++v) {
      const geom::Point p = wk.global(static_cast<std::int32_t>(v));
      sc.dist_src[v] = geom::manhattan(src, p);
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      for (std::size_t i = 1; i < net.pins.size(); ++i) {
        best = std::min(best, geom::manhattan(p, net.pins[i]));
      }
      sc.dist_sink[v] = best;
    }
    for (std::size_t ei = 0; ei < wk.edge_count; ++ei) {
      const LocalEdge& e = wk.edges[ei];
      const std::size_t gid = wk.gid_base + ei;
      EdgeHot& h = ehot[gid];
      const geom::Point pu = wk.global(e.u);
      const geom::Point pv = wk.global(e.v);
      const std::int64_t through_uv =
          sc.dist_src[static_cast<std::size_t>(e.u)] + 1 +
          sc.dist_sink[static_cast<std::size_t>(e.v)];
      const std::int64_t through_vu =
          sc.dist_src[static_cast<std::size_t>(e.v)] + 1 +
          sc.dist_sink[static_cast<std::size_t>(e.u)];
      h.fwl = static_cast<float>(
          static_cast<double>(std::min(through_uv, through_vu)) / wk.rsmt_len);
      h.dir = static_cast<std::uint8_t>(pu.y == pv.y ? grid::Dir::kHorizontal
                                                     : grid::Dir::kVertical);
      h.ru = wk.region_idx[static_cast<std::size_t>(e.u)];
      h.rv = wk.region_idx[static_cast<std::size_t>(e.v)];
      h.meta = kActive;
      gid_net[gid] = static_cast<std::int32_t>(n);
    }
  };

  // Pass B: chunked parallel build; the combiner replays each chunk's
  // shared-stats contributions in net order (ordered deterministic reduce).
  struct BuildPartial {
    std::size_t edges_initial = 0;
    std::size_t prerouted_nets = 0;
  };
  constexpr std::size_t kBuildGrain = 16;  // nets per chunk — a function of
                                           // nothing but this constant, so
                                           // chunking is thread-count-free
  parallel::ordered_reduce<BuildPartial>(
      nets.size(), kBuildGrain, threads,
      [&](std::size_t begin, std::size_t end, int worker) {
        BuildScratch& sc = build_scratch[static_cast<std::size_t>(worker)];
        BuildPartial part;
        for (std::size_t n = begin; n < end; ++n) {
          NetWork& wk = works[n];
          if (wk.trivial) continue;
          if (wk.prerouted) {
            ++part.prerouted_nets;
            build_prerouted(nets[n], wk, sc);
          } else {
            part.edges_initial += wk.edge_count;
            build_pooled(nets[n], wk, n, sc);
          }
        }
        return part;
      },
      [&](std::size_t chunk, BuildPartial&& part) {
        result.stats.prerouted_nets += part.prerouted_nets;
        result.stats.edges_initial += part.edges_initial;
        const std::size_t begin = chunk * kBuildGrain;
        const std::size_t end = std::min(nets.size(), begin + kBuildGrain);
        for (std::size_t n = begin; n < end; ++n) {
          const NetWork& wk = works[n];
          if (wk.trivial) continue;
          if (wk.prerouted) {
            for (const std::uint64_t key : wk.present_keys) {
              add_presence(rec[key & 1][key >> 1], 1.0, wk.si);
            }
            continue;
          }
          for (int d = 0; d < 2; ++d) {
            for (std::int32_t i = 0; i < wk.active_count[d]; ++i) {
              const std::int32_t v =
                  wk.active_vertices[d][static_cast<std::size_t>(i)];
              add_presence(rec[d][wk.region_idx[static_cast<std::size_t>(v)]],
                           wk.weight_applied[d], wk.si);
            }
          }
        }
      });

  // ------------------------------------------------- incremental weights
  //
  // Eq. (2) terms are served from the density/overflow fields of the
  // region records, derived from their statistics (incl. the Eq. (3)
  // shield estimate). A stats change sets the stale flag; the derivation
  // reruns lazily at first read, so each change costs at most one
  // polynomial evaluation per touched region — instead of the historical
  // four full density derivations on every heap pop.
  const IdWeights& wt = options_.weights;

  auto refresh_region = [&](RegionRec& r, int d) {
    double hu = r.nns;
    if (options_.reserve_shields) {
      hu += nss_->estimate(r.nns, r.sum_si, r.sum_si2);
    }
    const double dens = hu / grid_->capacity(static_cast<grid::Dir>(d));
    r.dens = dens;
    r.over = dens > 1.0 ? dens - 1.0 : 0.0;
  };
  auto fresh_region = [&](std::size_t region, int d) {
    RegionRec& r = rec[d][region];
    if (r.stale) {
      r.stale = false;
      refresh_region(r, d);
    }
  };

  // Per-net flags mirror into flat arrays so the pop loop's fast paths
  // never touch the big NetWork records (EdgeHot itself was filled by the
  // parallel build above).
  std::vector<std::uint8_t> net_frozen(works.size(), 0);
  std::vector<std::uint8_t> net_cert_valid(works.size(), 0);

  // The Eq. (2) combine off already-fresh caches: pure and read-only, so
  // the parallel initial-key pass can share it race-free; current_weight
  // adds the lazy refresh the serial deletion loop needs.
  auto weight_from_cache = [&](const EdgeHot& h) {
    const RegionRec& cu = rec[h.dir][h.ru];
    const RegionRec& cv = rec[h.dir][h.rv];
    const double hd = 0.5 * (cu.dens + cv.dens);
    const double ofr = 0.5 * (cu.over + cv.over);
    return wt.alpha * static_cast<double>(h.fwl) + wt.beta * hd + wt.gamma * ofr;
  };
  auto current_weight = [&](const EdgeHot& h) {
    const int d = h.dir;
    fresh_region(static_cast<std::size_t>(h.ru), d);
    fresh_region(static_cast<std::size_t>(h.rv), d);
    return weight_from_cache(h);
  };

  // Derive every (region, dir) once off the final build stats, then
  // compute the initial heap keys in parallel from the (now read-only)
  // records. refresh_region is a pure function of the region's stats, so
  // eager derivation yields exactly the values the historical lazy
  // first-reads produced; the keys match current_weight() double for
  // double. Stale flags only track changes the deletion loop makes.
  for (int d = 0; d < 2; ++d) {
    for (std::size_t r = 0; r < region_count; ++r) refresh_region(rec[d][r], d);
  }

  util::IndexedMaxHeap heap(total_edges);
  {
    std::vector<util::IndexedMaxHeap::Entry> heap_init(total_edges);
    constexpr std::size_t kWeightGrain = 4096;  // edges per chunk (fixed)
    parallel::parallel_for(
        total_edges, kWeightGrain, threads,
        [&](std::size_t begin, std::size_t end, int) {
          for (std::size_t gid = begin; gid < end; ++gid) {
            heap_init[gid] = util::IndexedMaxHeap::Entry{
                weight_from_cache(ehot[gid]), static_cast<std::int32_t>(gid)};
          }
        });
    heap.build(heap_init);
  }

  // --------------------------------------------------- shared BFS scratch
  std::size_t max_vertices = 0, max_edges = 0;
  for (const NetWork& wk : works) {
    if (wk.prerouted) continue;
    max_vertices = std::max(max_vertices, wk.vertex_count());
    max_edges = std::max(max_edges, wk.edge_count);
  }
  BfsScratch scratch;
  scratch.init(max_vertices, max_edges);

  /// Early-exit bounded BFS from the source over active edges, optionally
  /// skipping one edge. Returns the deletability verdict directly: true as
  /// soon as every pin is certified within its detour limit; false the
  /// moment a pin is first reached beyond its limit, or once the BFS depth
  /// exceeds the largest pin limit (no pin can be certified any more), or
  /// when the frontier dries up. Identical verdicts to a full-graph BFS —
  /// it just refuses to flood the rest of the bounding box.
  auto deletable_bfs = [&](const NetWork& wk, std::int32_t skip_edge) {
    BfsScratch& sc = scratch;
    ++sc.epoch;
    sc.queue.clear();
    std::size_t uncertified = wk.pin_locals.size();
    const auto src = static_cast<std::size_t>(wk.src_local);
    sc.stamp[src] = sc.epoch;
    sc.dist[src] = 0;
    if (wk.pin_index[src] >= 0) --uncertified;  // source pin, distance 0
    if (uncertified == 0) return true;
    sc.queue.push_back(wk.src_local);
    for (std::size_t head = 0; head < sc.queue.size(); ++head) {
      const std::int32_t v = sc.queue[head];
      const std::int32_t dnext = sc.dist[static_cast<std::size_t>(v)] + 1;
      if (dnext > wk.max_pin_limit) return false;  // nothing certifiable left
      for (std::int32_t i = wk.adj_offset[static_cast<std::size_t>(v)];
           i < wk.adj_offset[static_cast<std::size_t>(v) + 1]; ++i) {
        const std::int32_t ei = wk.adj_edges[static_cast<std::size_t>(i)];
        if (ei == skip_edge) continue;
        const LocalEdge& e = wk.edges[static_cast<std::size_t>(ei)];
        if (e.state != kActive) continue;
        const std::int32_t other = (e.u == v) ? e.v : e.u;
        if (sc.stamp[static_cast<std::size_t>(other)] == sc.epoch) continue;
        sc.stamp[static_cast<std::size_t>(other)] = sc.epoch;
        sc.dist[static_cast<std::size_t>(other)] = dnext;
        sc.parent[static_cast<std::size_t>(other)] = ei;
        const std::int32_t pi = wk.pin_index[static_cast<std::size_t>(other)];
        if (pi >= 0) {
          if (dnext > wk.pin_limits[static_cast<std::size_t>(pi)]) return false;
          if (--uncertified == 0) return true;
        }
        sc.queue.push_back(other);
      }
    }
    return false;  // some pin is unreachable
  };

  /// Adopt the source->pin parent paths of the BFS that just certified
  /// every pin (still in scratch) as the net's positive certificate: clear
  /// the old family's bits, walk the new family (path joins dedup through
  /// the scratch's stamped edge marks), set its bits.
  auto adopt_cert_paths = [&](NetWork& wk, std::size_t n) {
    for (const std::int32_t ei : wk.cert_edges) {
      ehot[wk.gid_base + static_cast<std::size_t>(ei)].meta &=
          static_cast<std::uint8_t>(~kOnCertBit);
    }
    wk.cert_edges.clear();
    ++scratch.mark_epoch;
    for (const std::int32_t pl : wk.pin_locals) {
      std::int32_t v = pl;
      while (v != wk.src_local) {
        const std::int32_t ei = scratch.parent[static_cast<std::size_t>(v)];
        if (scratch.edge_mark[static_cast<std::size_t>(ei)] ==
            scratch.mark_epoch) {
          break;  // joined a path already collected by this walk
        }
        scratch.edge_mark[static_cast<std::size_t>(ei)] = scratch.mark_epoch;
        wk.cert_edges.push_back(ei);
        const LocalEdge& e = wk.edges[static_cast<std::size_t>(ei)];
        v = (e.u == v) ? e.v : e.u;
      }
    }
    for (const std::int32_t ei : wk.cert_edges) {
      ehot[wk.gid_base + static_cast<std::size_t>(ei)].meta |= kOnCertBit;
    }
    net_cert_valid[n] = 1;
  };

  // Iterative-DFS scratch for the bridge pass.
  std::vector<std::int32_t> dfs_tin(max_vertices, 0), dfs_low(max_vertices, 0),
      dfs_pins(max_vertices, 0), dfs_parent(max_vertices, -1),
      dfs_cursor(max_vertices, 0);
  std::vector<std::int32_t> dfs_stack;
  dfs_stack.reserve(max_vertices);

  /// Certificate refresh: one no-skip BFS to detect a frozen net (some pin
  /// already unreachable or over-limit — then nothing is ever deletable
  /// again) and to adopt fresh positive pin paths, then one DFS (Tarjan
  /// lowlink) marking every bridge with a pin strictly behind it as
  /// never-deletable. All three certificates are monotone under edge
  /// removal, so they stay valid as deletion proceeds.
  auto certify = [&](NetWork& wk, std::size_t n) {
    wk.bfs_since_certify = 0;
    if (!deletable_bfs(wk, -1)) {
      // Frozen: some pin is already unreachable or over-limit with no edge
      // skipped, so every remaining deletability verdict of this net is
      // false regardless of how its graph shrinks further. Lock the whole
      // remainder now — locking has no effect on shared statistics or on
      // other nets — and erase the entries so the pop loop never touches
      // them again.
      net_frozen[n] = 1;
      net_cert_valid[n] = 0;
      for (std::size_t ei = 0; ei < wk.edge_count; ++ei) {
        LocalEdge& e = wk.edges[ei];
        if (e.state != kActive) continue;
        e.state = kLocked;
        std::uint8_t& meta = ehot[wk.gid_base + ei].meta;
        meta = static_cast<std::uint8_t>((meta & ~kStateMask) | kLocked);
        ++result.stats.edges_locked;
        // Remove the heap entry in place: a mid-heap erase sifts only a
        // level or two, where draining it later through the top would pay
        // the full tree depth.
        const auto gid = static_cast<std::int32_t>(wk.gid_base + ei);
        if (heap.contains(gid)) heap.erase(gid);
      }
      return;
    }
    adopt_cert_paths(wk, n);
    // The bridge pass only pays off where locks happen (bridges are what
    // refuses deletion); skip it while the net is still deleting freely.
    if (wk.locks_since_tarjan == 0) return;
    wk.locks_since_tarjan = 0;
    ++scratch.epoch;
    std::int32_t timer = 0;
    dfs_stack.clear();
    const std::int32_t src = wk.src_local;
    scratch.stamp[static_cast<std::size_t>(src)] = scratch.epoch;
    dfs_tin[static_cast<std::size_t>(src)] = timer++;
    dfs_low[static_cast<std::size_t>(src)] = dfs_tin[static_cast<std::size_t>(src)];
    dfs_pins[static_cast<std::size_t>(src)] =
        wk.pin_index[static_cast<std::size_t>(src)] >= 0 ? 1 : 0;
    dfs_parent[static_cast<std::size_t>(src)] = -1;
    dfs_cursor[static_cast<std::size_t>(src)] =
        wk.adj_offset[static_cast<std::size_t>(src)];
    dfs_stack.push_back(src);
    while (!dfs_stack.empty()) {
      const std::int32_t v = dfs_stack.back();
      const auto uv = static_cast<std::size_t>(v);
      if (dfs_cursor[uv] < wk.adj_offset[uv + 1]) {
        const std::int32_t ei =
            wk.adj_edges[static_cast<std::size_t>(dfs_cursor[uv]++)];
        if (ei == dfs_parent[uv]) continue;
        const LocalEdge& e = wk.edges[static_cast<std::size_t>(ei)];
        if (e.state != kActive) continue;
        const std::int32_t other = (e.u == v) ? e.v : e.u;
        const auto uo = static_cast<std::size_t>(other);
        if (scratch.stamp[uo] == scratch.epoch) {
          dfs_low[uv] = std::min(dfs_low[uv], dfs_tin[uo]);
        } else {
          scratch.stamp[uo] = scratch.epoch;
          dfs_tin[uo] = timer++;
          dfs_low[uo] = dfs_tin[uo];
          dfs_pins[uo] = wk.pin_index[uo] >= 0 ? 1 : 0;
          dfs_parent[uo] = ei;
          dfs_cursor[uo] = wk.adj_offset[uo];
          dfs_stack.push_back(other);
        }
      } else {
        dfs_stack.pop_back();
        const std::int32_t pei = dfs_parent[uv];
        if (pei >= 0) {
          const LocalEdge& e = wk.edges[static_cast<std::size_t>(pei)];
          const std::int32_t parent = (e.u == v) ? e.v : e.u;
          const auto up = static_cast<std::size_t>(parent);
          dfs_low[up] = std::min(dfs_low[up], dfs_low[uv]);
          dfs_pins[up] += dfs_pins[uv];
          if (dfs_low[uv] > dfs_tin[up] && dfs_pins[uv] > 0) {
            ehot[wk.gid_base + static_cast<std::size_t>(pei)].meta |=
                kCertifiedBit;
          }
        }
      }
    }
  };

  // Seed every net's certificates once: degenerate (1-wide) bounding boxes
  // are all bridges and never pay a single deletability BFS, and the
  // initial pin paths let off-path edges delete without one either.
  for (std::size_t n = 0; n < works.size(); ++n) {
    if (!works[n].prerouted) certify(works[n], n);
  }

  // ------------------------------------------------------------- deletion
  //
  // Pop semantics replicate the historical lazy-revalidation heap exactly:
  // the heap key is the weight at the edge's last touch, and a popped-to-top
  // entry whose *current* weight dropped by more than 1e-9 is re-keyed in
  // place instead of processed. Because the old scheme kept exactly one
  // live entry per active edge, the processing order here is identical —
  // minus the duplicate-entry churn and the per-pop Eq. (2)/(3)
  // recomputation, and without the old `max_reinserts_per_edge` safety cap
  // (termination is structural: a re-key needs a strict weight drop, which
  // needs an intervening deletion, and deletions are finite).
  phase_span.emplace("router.deletion", "router");
  phase_span->arg("candidates", static_cast<double>(heap.size()));
  while (!heap.empty()) {
    const auto [gid, stored] = heap.top();
    const auto ugid = static_cast<std::size_t>(gid);
    EdgeHot& h = ehot[ugid];

    const double now = current_weight(h);
    if (now < stored - 1e-9) {
      ++result.stats.reinserts;
      heap.update(gid, now);
      continue;
    }
    heap.pop();

    const std::size_t n = static_cast<std::size_t>(gid_net[ugid]);
    // Certificate verdict: 0 = lock (negative certificate, no BFS),
    // 1 = delete (positive certificate: the certified pin paths survive
    // this edge's removal), -1 = no certificate applies.
    auto cert_verdict = [&]() -> int {
      if (net_frozen[n] || (h.meta & kCertifiedBit)) {
        // Locking removes this edge from the active pool; a positive
        // certificate whose paths ran through it is no longer sound.
        if (h.meta & kOnCertBit) net_cert_valid[n] = 0;
        return 0;
      }
      if (net_cert_valid[n] && !(h.meta & kOnCertBit)) return 1;
      return -1;
    };
    int verdict = cert_verdict();
    if (verdict < 0) {
      NetWork& wk = works[n];
      if (wk.bfs_since_certify >= kCertifyInterval) {
        certify(wk, n);
        verdict = cert_verdict();  // the refresh may have decided it
      }
      if (verdict < 0) {
        ++wk.bfs_since_certify;
        const bool bfs_ok =
            deletable_bfs(wk, static_cast<std::int32_t>(ugid - wk.gid_base));
        if (bfs_ok) adopt_cert_paths(wk, n);  // excludes this edge
        if (!bfs_ok && (h.meta & kOnCertBit)) {
          net_cert_valid[n] = 0;  // locking breaks the certified paths
        }
        verdict = bfs_ok ? 1 : 0;
      }
    }
    const bool ok = verdict == 1;

    NetWork& wk = works[n];
    LocalEdge& e = wk.edges[ugid - wk.gid_base];
    if (!ok) {
      if (e.state == kActive) {  // may already be bulk-locked by a freeze
        e.state = kLocked;  // a pin-bridge (or guard-essential edge) stays
        h.meta = static_cast<std::uint8_t>((h.meta & ~kStateMask) | kLocked);
        ++result.stats.edges_locked;
        ++wk.locks_since_tarjan;
      }
      continue;
    }

    // Delete the edge and update presence statistics incrementally.
    e.state = kDeleted;
    h.meta = static_cast<std::uint8_t>((h.meta & ~kStateMask) | kDeleted);
    ++result.stats.edges_deleted;
    const int d = h.dir;
    RegionRec* const recs = rec[d];
    bool lost_region = false;
    for (const std::int32_t v : {e.u, e.v}) {
      auto& cnt = wk.incident[static_cast<std::size_t>(v)][d];
      --cnt;
      if (cnt == 0) {
        RegionRec& r = recs[wk.region_idx[static_cast<std::size_t>(v)]];
        add_presence(r, -wk.weight_applied[d], wk.si);
        r.stale = true;
        wk.drop_active_vertex(d, v);
        --wk.active_regions[d];
        lost_region = true;
      }
    }
    if (lost_region) {
      // Rebalance this net's fractional demand over its maintained
      // active-vertex list (the per-region weight moves toward 1). The
      // hottest loop of the router: every operand is hoisted into a local
      // so the record stores cannot force reloads, and the products are
      // formed once — (delta * si) * si is exactly what add_presence
      // computes per region, so the sums stay bit-identical.
      const double target = wk.target_weight(d);
      const double delta = target - wk.weight_applied[d];
      if (std::abs(delta) >= 1e-12) {
        const double delta_si = delta * wk.si;
        const double delta_si2 = delta_si * wk.si;
        const std::int32_t* const active = wk.active_vertices[d];
        const std::int32_t* const region_of = wk.region_idx;
        const std::int32_t count = wk.active_count[d];
        for (std::int32_t i = 0; i < count; ++i) {
          RegionRec& r = recs[region_of[active[i]]];
          r.nns += delta;
          r.sum_si += delta_si;
          r.sum_si2 += delta_si2;
          r.stale = true;
        }
        wk.weight_applied[d] = target;
      }
    }
  }

  phase_span.emplace("router.collect", "router");

  // ------------------------------------------------------------- collect
  // The surviving graph can still hold cycles or stubs the detour guard
  // refused to delete; extract the BFS shortest-path tree from the source
  // and keep only the edges on some source->pin path. This preserves the
  // guard's path-length certificates while dropping redundant edges.
  std::vector<std::int32_t> parent_edge(max_vertices, -1);
  std::vector<std::uint32_t> edge_seen(max_edges, 0);
  std::uint32_t seen_epoch = 0;
  std::vector<std::int32_t> kept;
  for (std::size_t n = 0; n < works.size(); ++n) {
    NetWork& wk = works[n];
    NetRoute& route = result.routes[n];
    if (wk.prerouted) {
      route.edges = std::move(wk.fixed_edges);
      result.total_wirelength_um += route.wirelength_um(*grid_);
      continue;
    }

    // BFS with parent pointers over non-deleted edges.
    ++scratch.epoch;
    scratch.queue.clear();
    scratch.queue.push_back(wk.src_local);
    scratch.stamp[static_cast<std::size_t>(wk.src_local)] =
        scratch.epoch;
    parent_edge[static_cast<std::size_t>(wk.src_local)] = -1;
    for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
      const std::int32_t v = scratch.queue[head];
      for (std::int32_t i = wk.adj_offset[static_cast<std::size_t>(v)];
           i < wk.adj_offset[static_cast<std::size_t>(v) + 1]; ++i) {
        const std::int32_t ei = wk.adj_edges[static_cast<std::size_t>(i)];
        const LocalEdge& e = wk.edges[static_cast<std::size_t>(ei)];
        if (e.state == kDeleted) continue;
        const std::int32_t other = (e.u == v) ? e.v : e.u;
        if (scratch.stamp[static_cast<std::size_t>(other)] ==
            scratch.epoch) {
          continue;
        }
        scratch.stamp[static_cast<std::size_t>(other)] =
            scratch.epoch;
        parent_edge[static_cast<std::size_t>(other)] = ei;
        scratch.queue.push_back(other);
      }
    }

    // Union of source->pin parent paths (stamped edge set, no hashing).
    ++seen_epoch;
    kept.clear();
    for (const std::int32_t pl : wk.pin_locals) {
      std::int32_t v = pl;
      while (v != wk.src_local &&
             scratch.stamp[static_cast<std::size_t>(v)] ==
                 scratch.epoch) {
        const std::int32_t ei = parent_edge[static_cast<std::size_t>(v)];
        if (ei < 0 || edge_seen[static_cast<std::size_t>(ei)] == seen_epoch) {
          break;  // joined an existing path
        }
        edge_seen[static_cast<std::size_t>(ei)] = seen_epoch;
        kept.push_back(ei);
        const LocalEdge& e = wk.edges[static_cast<std::size_t>(ei)];
        v = (e.u == v) ? e.v : e.u;
      }
    }
    route.edges.reserve(kept.size());
    for (const std::int32_t ei : kept) {
      const LocalEdge& e = wk.edges[static_cast<std::size_t>(ei)];
      route.edges.push_back(make_edge(wk.global(e.u), wk.global(e.v)));
    }
    std::sort(route.edges.begin(), route.edges.end(),
              [](const GridEdge& x, const GridEdge& y) {
                if (x.a != y.a) return x.a < y.a;
                return x.b < y.b;
              });
    result.total_wirelength_um += route.wirelength_um(*grid_);
  }
  phase_span.reset();
  result.stats.runtime_s = watch.seconds();
  return result;
}

}  // namespace rlcr::router
