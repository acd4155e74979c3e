// Content-addressed in-memory cache of built trees.
//
// Keying: pin sets are canonicalized by translating the bounding box to the
// origin while preserving input order, then fingerprinted (FNV-1a over the
// translated coordinate sequence). Order is deliberately part of the key —
// the rsmt::Tree contract puts the pins at nodes[0..pin_count) in input
// order, and a cached tree must stay bit-identical to the rsmt::rsmt()
// call it replaces, whose output depends on pin order. Sorting the key
// would alias pin sequences that build different (equally valid) trees.
//
// Values are stored in canonical (translated) coordinates; the builder
// translates them back on a hit. This is sound because rsmt::rsmt is
// translation-equivariant: build(pins + t) == build(pins) + t, a contract
// pinned by steiner_test. Identical small-net configurations — the common
// case in real netlists — therefore collapse to one construction no matter
// where they sit on the grid or which thread asks first.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/point.h"
#include "rsmt/tree.h"

namespace rlcr::steiner {

/// A pin set translated so min x == min y == 0, plus the offset back and a
/// fingerprint of the translated sequence.
struct CanonicalPins {
  std::vector<geom::Point> pins;
  std::int32_t dx = 0;  ///< original = canonical + (dx, dy)
  std::int32_t dy = 0;
  std::uint64_t fingerprint = 0;
};

CanonicalPins canonicalize(std::span<const geom::Point> pins);

/// Thread-safe map from (canonical pin fingerprint, Steiner options hash)
/// to an immutable canonical tree. Lookup order across threads does not
/// affect results: the builder is a pure function of the key's content, so
/// whichever thread populates an entry stores the same value any other
/// thread would have.
class TreeCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
  };

  std::shared_ptr<const rsmt::Tree> find(std::uint64_t key) const;
  void insert(std::uint64_t key, std::shared_ptr<const rsmt::Tree> tree);
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const rsmt::Tree>> map_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

}  // namespace rlcr::steiner
