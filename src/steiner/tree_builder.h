// Phase I Steiner-tree construction behind one TreeBuilder facade.
//
// Every net topology the routers build comes from rsmt::rsmt() (iterated
// 1-Steiner, RMST above the exact-pin cap). The facade adds an optional
// content-addressed TreeCache so identical pin configurations build once.
// rsmt::rsmt is a pure function of (pins, options): no global state, no
// wall-clock, no thread-id — which is what makes the parallel fan-out in
// the router and the cache transparent by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "geom/point.h"
#include "rsmt/steiner.h"
#include "rsmt/tree.h"

namespace rlcr::steiner {

class TreeCache;

/// The one tree-construction path. Kept only because perfbench still names
/// it in its TreeBuilder::length calls; to be dropped with the `length()`
/// argument below once it stops (ROADMAP item 9).
enum class TreeProfile : std::uint8_t { kFast = 0 };

/// Facade bundling Steiner options with an optional shared cache. Copies of
/// the returned trees are immutable and safe to share across threads. The
/// trees keep the rsmt::Tree contract (nodes[0..pins.size()) are the pins
/// in input order, Steiner points follow).
class TreeBuilder {
 public:
  explicit TreeBuilder(rsmt::SteinerOptions options = {},
                       TreeCache* cache = nullptr)
      : options_(options), cache_(cache) {}

  /// Build (or fetch from the cache) the tree for `pins`; bit-identical to
  /// rsmt::rsmt(pins, options()).
  std::shared_ptr<const rsmt::Tree> build(
      std::span<const geom::Point> pins) const;

  /// Tree length (one cached build serves later calls that need the full
  /// topology for the same pin set). The profile argument is kept for
  /// perfbench; see TreeProfile.
  std::int64_t length(std::span<const geom::Point> pins,
                      TreeProfile = TreeProfile::kFast) const;

  const rsmt::SteinerOptions& options() const { return options_; }

 private:
  rsmt::SteinerOptions options_;
  TreeCache* cache_ = nullptr;
};

}  // namespace rlcr::steiner
