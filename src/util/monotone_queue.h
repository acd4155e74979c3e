// Monotone max-queue over (key, id) entries.
//
// Users:
//   - the ID router's edge-deletion loop (router/id_router.cpp), keyed on
//     deletion weight, one entry per candidate edge;
//   - refine pass 2 (core/refine.cpp), keyed on (region, dir) density. It
//     stores solution si under id n-1-si, so the largest-id tie-break picks
//     the lowest index, the order of the linear argmax scan it replaced.
//
// Both loops take the largest entry and put an entry back only with a key
// below the one they just took, so the keys they take never rise. That is
// the setting of the radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, "Faster
// algorithms for the shortest path problem", JACM 1990), and it needs no
// general heap with in-place update-key:
//   - the built entries sit in one array, grouped into kBuckets buckets by
//     the top bits of an order-preserving map of the key (bucket_of);
//   - buckets open from the top down, and a bucket is sorted by (key, id)
//     only when it could hold the maximum, after the entries the caller
//     reports dead are dropped from it;
//   - entries pushed after the build go into a small binary heap, whose
//     head competes with the open bucket's head.
// Entries come out in (key, id) lexicographic-max order: equal keys go to
// the larger id. -0.0 and +0.0 are one key, as `==` says. Keys must not be
// NaN.
//
// There is no erase. A caller that retires an item marks it dead on its
// own side and passes settle() a predicate that reports it; a dead entry is
// dropped when its bucket opens or when it reaches the top.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace rlcr::util {

class MonotoneMaxQueue {
 public:
  struct Entry {
    double key;
    std::int32_t id;
    std::int32_t tag;  ///< caller payload, carried but never compared
  };
  static_assert(sizeof(Entry) == 16);

  static constexpr int kBucketBits = 16;  ///< sign, exponent, 4 mantissa bits
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

  /// Bucket of a key: a larger key never gets a smaller bucket. The map
  /// flips the bits of negative doubles and sets the sign bit of the others,
  /// so the unsigned order of the bits follows the order of the keys.
  static std::uint32_t bucket_of(double key) {
    // Adding +0.0 turns -0.0 into +0.0, which compares equal to it and so
    // must share its bucket.
    const auto bits = std::bit_cast<std::uint64_t>(key + 0.0);
    const std::uint64_t ordered =
        (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
    return static_cast<std::uint32_t>(ordered >> (64 - kBucketBits));
  }

  /// The build takes three steps, so chunks of entries can fill the queue
  /// in parallel:
  ///   1. the caller sets counts[c * kBuckets + b] to the number of entries
  ///      chunk c holds in bucket b (counts.size() = chunks * kBuckets);
  ///   2. lay_out(counts) allocates the slots and turns each count into
  ///      the first slot of chunk c in bucket b;
  ///   3. chunk c stores each entry e at slot(counts[c * kBuckets +
  ///      bucket_of(e.key)]++).
  /// The ids must be distinct. lay_out drops whatever the queue held.
  void lay_out(std::vector<std::uint32_t>& counts) {
    const std::size_t chunks = counts.size() / kBuckets;
    runs_.clear();
    std::uint32_t next = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t begin = next;
      for (std::size_t c = 0; c < chunks; ++c) {
        std::uint32_t& count = counts[c * kBuckets + b];
        next += std::exchange(count, next);
      }
      if (next != begin) {
        runs_.push_back({static_cast<std::uint32_t>(b), begin});
      }
    }
    runs_.push_back({static_cast<std::uint32_t>(kBuckets), next});  // end mark
    // new Entry[] leaves the slots uninitialized; step 3 writes each one.
    slots_.reset(new Entry[next]);
    unopened_ = runs_.size() - 1;
    head_ = end_ = 0;
    side_.clear();
  }
  Entry& slot(std::uint32_t i) { return slots_[i]; }

  /// Serial build. `each(visit)` calls visit(const Entry&) once per entry;
  /// build calls it twice, to count and then to store, and both calls must
  /// visit the same entries. No second entry array is ever needed.
  template <typename Each>
  void build(Each&& each) {
    std::vector<std::uint32_t> counts(kBuckets, 0);
    each([&](const Entry& e) { ++counts[bucket_of(e.key)]; });
    lay_out(counts);
    each([&](const Entry& e) { slot(counts[bucket_of(e.key)]++) = e; });
  }

  /// Entries held, dead ones included until they are dropped.
  std::size_t size() const {
    const std::uint32_t unopened = runs_.empty() ? 0 : runs_[unopened_].begin;
    return unopened + (end_ - head_) + side_.size();
  }

  /// Drops dead entries off the front and opens buckets until top() is the
  /// largest live entry. Returns false when no live entry is left. Call it
  /// before every top() and pop(); `dead(const Entry&)` must stay true for
  /// an entry once it is.
  template <typename Dead>
  bool settle(Dead&& dead) {
    for (;;) {
      while (!side_.empty() && dead(side_.front())) pop_side();
      while (head_ != end_ && dead(slots_[head_])) ++head_;
      if (head_ != end_) return true;
      // The open bucket is used up. Open the next one, unless the side
      // heap's head lies in a higher bucket and so beats all of it.
      if (unopened_ == 0) return !side_.empty();
      if (!side_.empty() &&
          bucket_of(side_.front().key) > runs_[unopened_ - 1].bucket) {
        return true;
      }
      open(--unopened_, dead);
    }
  }
  bool settle() {
    return settle([](const Entry&) { return false; });
  }

  /// The largest (key, id) entry. Valid after settle() returned true.
  const Entry& top() const {
    return from_side() ? side_.front() : slots_[head_];
  }
  /// Removes top().
  void pop() {
    if (from_side()) {
      pop_side();
    } else {
      ++head_;
    }
  }

  /// Adds an entry whose (key, id) is below the last top() taken, and whose
  /// id has no other entry in the queue.
  void push(const Entry& e) {
    side_.push_back(e);
    std::push_heap(side_.begin(), side_.end(), less);
  }

 private:
  // (key, id) lexicographic: is a strictly greater than b?
  static bool greater(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.id > b.id;
  }
  static bool less(const Entry& a, const Entry& b) { return greater(b, a); }

  bool from_side() const {
    return !side_.empty() &&
           (head_ == end_ || greater(side_.front(), slots_[head_]));
  }
  void pop_side() {
    std::pop_heap(side_.begin(), side_.end(), less);
    side_.pop_back();
  }

  template <typename Dead>
  void open(std::size_t r, Dead& dead) {
    Entry* const first = slots_.get() + runs_[r].begin;
    Entry* const last =
        std::remove_if(first, slots_.get() + runs_[r + 1].begin,
                       [&](const Entry& e) { return dead(e); });
    std::sort(first, last, greater);
    head_ = runs_[r].begin;
    end_ = head_ + static_cast<std::uint32_t>(last - first);
  }

  /// A non-empty bucket and the first of its slots; it ends where the next
  /// run begins.
  struct Run {
    std::uint32_t bucket;
    std::uint32_t begin;
  };

  std::unique_ptr<Entry[]> slots_;    ///< every built entry, by bucket
  std::vector<Run> runs_;             ///< ascending bucket, then an end mark
  std::size_t unopened_ = 0;          ///< runs [0, unopened_) are unopened
  std::uint32_t head_ = 0, end_ = 0;  ///< the open run's live part, sorted
  std::vector<Entry> side_;           ///< pushed entries, a binary max-heap
};

}  // namespace rlcr::util
