// Indexed d-ary max-heap with in-place update-key.
//
// Items are dense integer ids in [0, capacity); each live id carries one
// double key. Ordering is (key, id) lexicographic-max, which gives callers a
// deterministic tie-break for equal keys (the ID router relies on this to
// reproduce the deletion order of the historical lazy-revalidation heap,
// whose entries compared (weight, net, edge) and popped the largest).
//
// Users:
//   - the ID router's edge-deletion loop (router/id_router.cpp), keyed on
//     deletion weight;
//   - refine pass 2 (core/refine.cpp), keyed on (region, dir) density. It
//     stores solution si under id n-1-si, so the largest-id tie-break picks
//     the lowest index, the order of the linear argmax scan it replaced.
//
// Compared with a std::priority_queue of (key, id) pairs under lazy
// revalidation, the indexed heap holds exactly one entry per live item, so a
// key change is a sift instead of a duplicate push whose stale twin must be
// popped and discarded later. Keys are stored inline in the heap slots —
// sift comparisons stay on contiguous memory instead of chasing a per-id
// side table — and the 4-ary layout trades a few sibling comparisons for
// half the tree depth, which is what matters on the wide, shallow heaps the
// router builds (one entry per candidate edge).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace rlcr::util {

class IndexedMaxHeap {
 public:
  static constexpr std::int32_t kArity = 4;

  struct Entry {
    double key;
    std::int32_t id;
  };

  explicit IndexedMaxHeap(std::size_t capacity) : pos_(capacity, -1) {
    heap_.reserve(capacity);
  }

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  bool contains(std::int32_t id) const {
    return pos_[static_cast<std::size_t>(id)] >= 0;
  }

  /// Insert a new id (must not be contained).
  void push(std::int32_t id, double key) {
    pos_[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(Entry{key, id});
    sift_up(static_cast<std::int32_t>(heap_.size()) - 1);
  }

  /// O(n) bulk construction (Floyd heapify) from unordered (id, key) pairs.
  /// Must be called on an empty heap.
  void build(const std::vector<Entry>& entries) {
    heap_ = entries;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      pos_[static_cast<std::size_t>(heap_[i].id)] = static_cast<std::int32_t>(i);
    }
    const std::int32_t n = static_cast<std::int32_t>(heap_.size());
    if (n < 2) return;  // (n - 2) / kArity truncates toward zero for n == 0
    for (std::int32_t i = (n - 2) / kArity; i >= 0; --i) sift_down(i);
  }

  /// The (id, key) pair with the largest (key, id).
  std::pair<std::int32_t, double> top() const {
    return {heap_[0].id, heap_[0].key};
  }

  /// Remove and return the max element.
  std::pair<std::int32_t, double> pop() {
    const Entry e = heap_[0];
    remove_at(0);
    return {e.id, e.key};
  }

  /// Change the key of a contained id (either direction).
  void update(std::int32_t id, double key) {
    const std::int32_t at = pos_[static_cast<std::size_t>(id)];
    const double old = heap_[static_cast<std::size_t>(at)].key;
    heap_[static_cast<std::size_t>(at)].key = key;
    if (key > old) {
      sift_up(at);
    } else if (key < old) {
      sift_down(at);
    }
  }

  /// Remove a contained id without processing it.
  void erase(std::int32_t id) { remove_at(pos_[static_cast<std::size_t>(id)]); }

 private:
  // (key, id) lexicographic: is entry a strictly greater than entry b?
  static bool greater(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.id > b.id;
  }

  void place(std::int32_t i, const Entry& e) {
    heap_[static_cast<std::size_t>(i)] = e;
    pos_[static_cast<std::size_t>(e.id)] = i;
  }

  void sift_up(std::int32_t i) {
    const Entry e = heap_[static_cast<std::size_t>(i)];
    while (i > 0) {
      const std::int32_t parent = (i - 1) / kArity;
      if (!greater(e, heap_[static_cast<std::size_t>(parent)])) break;
      place(i, heap_[static_cast<std::size_t>(parent)]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::int32_t i) {
    const std::int32_t n = static_cast<std::int32_t>(heap_.size());
    const Entry e = heap_[static_cast<std::size_t>(i)];
    for (;;) {
      const std::int32_t first = i * kArity + 1;
      if (first >= n) break;
      std::int32_t best = first;
      const std::int32_t last = std::min(first + kArity, n);
      for (std::int32_t c = first + 1; c < last; ++c) {
        if (greater(heap_[static_cast<std::size_t>(c)],
                    heap_[static_cast<std::size_t>(best)])) {
          best = c;
        }
      }
      if (!greater(heap_[static_cast<std::size_t>(best)], e)) break;
      place(i, heap_[static_cast<std::size_t>(best)]);
      i = best;
    }
    place(i, e);
  }

  void remove_at(std::int32_t i) {
    pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)].id)] = -1;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (static_cast<std::size_t>(i) < heap_.size()) {
      place(i, last);
      sift_up(i);
      sift_down(pos_[static_cast<std::size_t>(last.id)]);
    }
  }

  std::vector<Entry> heap_;        ///< heap order -> (key, id)
  std::vector<std::int32_t> pos_;  ///< id -> heap index (-1 when absent)
};

}  // namespace rlcr::util
