#include "steiner/tree_builder.h"

#include "steiner/tree_cache.h"
#include "util/hash.h"
#include "util/rng.h"

namespace rlcr::steiner {

using geom::Point;
using rsmt::Tree;

std::shared_ptr<const Tree> TreeBuilder::build(
    std::span<const Point> pins) const {
  if (cache_ == nullptr) {
    return std::make_shared<const Tree>(rsmt::rsmt(pins, options_));
  }
  const CanonicalPins canon = canonicalize(pins);
  util::Fnv1a64 opts;
  opts.u64(options_.max_pins_exact).u64(options_.max_steiner_points);
  const std::uint64_t key =
      util::SplitMix64::mix2(canon.fingerprint, opts.value());
  std::shared_ptr<const Tree> canonical = cache_->find(key);
  if (canonical == nullptr) {
    canonical = std::make_shared<const Tree>(rsmt::rsmt(canon.pins, options_));
    cache_->insert(key, canonical);
  }
  if (canon.dx == 0 && canon.dy == 0) return canonical;
  auto out = std::make_shared<Tree>(*canonical);
  for (Point& p : out->nodes) {
    p.x += canon.dx;
    p.y += canon.dy;
  }
  return out;
}

std::int64_t TreeBuilder::length(std::span<const Point> pins,
                                 TreeProfile) const {
  return build(pins)->length();
}

}  // namespace rlcr::steiner
