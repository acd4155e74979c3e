// Iterative-deletion (ID) global router (Cong & Preas [10], as adapted by
// the paper's Phase I).
//
// Every net starts with its full connection graph Gi — all region-adjacency
// edges inside its pin bounding box. The router repeatedly deletes the
// largest-weight edge over all nets (Fig. 1 of the paper) until each net's
// graph is reduced to a Steiner tree over its pins. Because all nets'
// candidate edges compete in one pool, the outcome does not depend on a net
// ordering — the property the paper chooses ID for.
//
// Edge weight (Eq. 2):  w(e) = alpha * f(WL) + beta * HD(R) + gamma * HOFR(R)
//   - f(WL): length of the shortest source->sink path forced through e,
//     normalized by the net's estimated RSMT length (detour edges weigh more
//     and are deleted first);
//   - HD:   track density (Nns + Nss) / capacity, where Nss is the Eq. (3)
//     shield estimate updated incrementally from the region's running
//     (Nns, sum Si, sum Si^2) — this is what reserves and minimizes
//     shielding area during routing and spreads sensitive nets;
//   - HOFR: relative overflow.
//
// The paper's Section 5 observation that ID dominates GSINO's runtime makes
// this file the Phase I hot path, so the deletion loop runs as an
// incremental engine:
//   - one indexed d-ary max-heap entry per candidate edge
//     (util/indexed_heap.h) with in-place update-key. The key is the weight
//     at the edge's last touch and a popped-to-top entry whose current
//     weight dropped is re-keyed instead of processed — the exact
//     processing order of the historical lazy-revalidation
//     std::priority_queue (which held one live entry per edge), without
//     duplicate-entry churn or a reinsert cap;
//   - one dense record per (region, dir) holding the presence statistics,
//     the cached density/overflow derived from them, and a stale flag: a
//     stats change marks the touched regions, the Eq. (2)/(3) derivation
//     reruns once per touched region at its next read, and a pop re-weighs
//     its edge from two cached records instead of four from-scratch
//     density derivations. (An eager region->edge inverted re-weigh index
//     was measured first and lost: rebalances touch O(net) regions each, so
//     propagating every change to every touching edge costs far more than
//     re-weighing the one popped edge on demand.) The demand rebalance that
//     follows a lost region — the bulk of all record updates — is a loop
//     over hoisted raw pointers with the per-net products formed once and
//     a non-byte stale flag, so no store in it can alias its operands;
//     its += sequence is the per-region one, so sums are bit-identical;
//   - deletability checks are early-exit bounded BFS (stop once every pin
//     is certified within its detour limit, or as soon as certification is
//     impossible), and most pops skip BFS entirely via three monotone
//     certificates: an edge off the last certified source->pin path family
//     is deletable (the paths survive its removal); a bridge with a pin
//     behind it is never deletable; and a net whose pins already fail with
//     no edge skipped is frozen — its whole remainder bulk-locks at once.
//     Edge removal can only shrink the graph, so certificates stay valid
//     until a pop touches them;
//   - demand rebalancing walks maintained per-direction active-vertex
//     lists instead of rescanning the whole bounding box, and per-net
//     arrays are carved from shared arenas (three allocations total);
//   - the build phase (per-net graph + CSR + f(WL) + initial heap keys) is
//     chunk-parallel on the shared pool (src/parallel): workers fill
//     disjoint arena slices, the shared RegionStats accumulation is
//     replayed serially in net order by the ordered reducer, and the
//     pre-route dedup uses per-worker epoch-stamped scratch. Results are
//     bit-identical at any `threads` value (see IdRouterOptions::threads).
//     The deletion loop itself runs serially on the calling thread.
//
// Nets whose bounding box exceeds a size threshold would contribute
// enormous connection graphs (the classic ID scalability problem the paper
// acknowledges in Section 5); they are pre-routed on their RSMT topology
// with L-shaped segments and contribute fixed track demand instead.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "grid/congestion.h"
#include "grid/region_grid.h"
#include "router/route_types.h"
#include "sino/nss.h"
// Not used here: kept because perfbench reaches steiner::TreeBuilder only
// through this header (via core/session.h); due in ROADMAP item 9.
#include "steiner/tree_builder.h"

namespace rlcr::router {

struct IdWeights {
  double alpha = 2.0;  ///< wire-length coefficient (paper's value)
  double beta = 1.0;   ///< density coefficient (paper's value)
  double gamma = 50.0; ///< overflow coefficient (paper's value)
};

struct IdRouterOptions {
  IdWeights weights;
  /// Include the Eq. (3) shield estimate in HU. True for GSINO Phase I;
  /// false for the ID+NO / iSINO baselines (the paper's fairness rule).
  bool reserve_shields = true;
  /// Pin bounding boxes with more regions than this are pre-routed on
  /// their RSMT instead of entering the deletion pool.
  std::size_t huge_net_bbox_threshold = 600;
  /// Detour guard: a deletion is refused when it would leave some sink's
  /// shortest path from the source longer than
  ///   max_detour_factor * manhattan(source, sink) + detour_slack.
  /// This enforces the very assumption Phase I budgeting makes (actual path
  /// length ~ Manhattan estimate); without it, pure weight-driven deletion
  /// can leave arbitrarily long snakes through quiet regions.
  double max_detour_factor = 1.3;
  std::int32_t detour_slack = 1;
  /// Workers for the build phase (per-net graphs, f(WL) tables, CSR, heap
  /// keys) on the shared pool (src/parallel). 0 = auto (RLCR_THREADS env
  /// var, else hardware concurrency); 1 = the exact serial path. Output is
  /// bit-identical at every value: chunking is a pure function of the net
  /// count, and shared-stats accumulation is replayed in net order by the
  /// ordered reducer. The deletion loop runs on the calling thread.
  int threads = 0;

 private:
  /// The single enumeration behind both profile_tie() overloads below.
  /// (Lexically first: auto return deduction needs the body before use.)
  template <typename Self>
  static auto profile_tie_of(Self& self) {
    return std::tie(self.weights.alpha, self.weights.beta, self.weights.gamma,
                    self.reserve_shields, self.huge_net_bbox_threshold,
                    self.max_detour_factor, self.detour_slack);
  }

 public:
  /// THE routing-profile field list: every field that can change the
  /// routing output, as one ordered tuple of references; `threads` is
  /// excluded (output is thread-count-invariant). Equality comparison
  /// (session cache identity), the store key hash, and the on-disk
  /// serialization of a profile all iterate this one list (via
  /// profile_tie_of above), so adding an output-affecting option there
  /// extends all three consistently — never enumerate the fields
  /// anywhere else.
  auto profile_tie() { return profile_tie_of(*this); }
  auto profile_tie() const { return profile_tie_of(*this); }

  /// True when `other` routes identically — the cache identity of a
  /// session's RoutingArtifact.
  bool same_routing_profile(const IdRouterOptions& other) const {
    return profile_tie() == other.profile_tie();
  }
};

class IdRouter {
 public:
  IdRouter(const grid::RegionGrid& grid, const sino::NssModel& nss,
           const IdRouterOptions& options = {});

  /// Route all nets. The result's routes are parallel to `nets`.
  RoutingResult route(const std::vector<RouterNet>& nets) const;

 private:
  const grid::RegionGrid* grid_;
  const sino::NssModel* nss_;
  IdRouterOptions options_;
};

}  // namespace rlcr::router
