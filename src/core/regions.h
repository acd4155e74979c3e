// Phase II state split by what it depends on.
//
// The paper's Phase II solves one SINO instance per (region, direction).
// The instance's members, their S_i, wire and critical-path lengths and
// pairwise sensitivities depend only on the Phase I routing; only the Kth
// bounds (and so the solved slots and Ki) change with the crosstalk bound.
// So each routing artifact builds one immutable RegionSet, shared by every
// budget, solve and refine of that routing, and a solve or refine keeps
// only its own per-bound arrays in a RegionSolutions: a solve holds every
// instance's, a refine only those of the instances whose state it changed,
// over its base solve's. Both are flat CSR layouts: instance `si` (index
// region * 2 + dir) owns members [begin(si), begin(si) + count(si)) of
// every per-member array of the set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "ktable/keff.h"
#include "sino/instance.h"

namespace rlcr::gsino {

/// One (region, dir) instance under one solve's state: a view over the
/// routing's RegionSet and the solve's per-bound arrays, valid while both
/// live. Cheap to copy.
struct RegionSolution {
  std::span<const std::uint32_t> net_index;  ///< member -> global net index
  std::span<const double> len_mm;            ///< member's tree wire length here
  /// Member's critical source->sink path length inside this region (mm);
  /// zero when the region only hosts a branch to another sink. LSK (Eq. 1)
  /// sums path_len_mm * Ki: noise at a sink accumulates along its path.
  std::span<const double> path_len_mm;
  std::span<const double> ki;             ///< per member, current Ki
  std::span<const ktable::Slot> slots;    ///< track assignment
  sino::SinoInstance instance;            ///< S_i, current Kth, sensitivities

  bool empty() const { return net_index.empty(); }
};

/// The routing-only structure of every (region, dir) instance of one
/// routing: members in segment order, their S_i, wire and critical-path
/// lengths, and a dense n x n sensitivity matrix per instance.
class RegionSet {
 public:
  /// Writable arrays of one instance, filled once while the set is built.
  struct Slice {
    std::span<std::uint32_t> net_index;
    std::span<double> si, len_mm, path_len_mm;
    std::span<std::uint8_t> sensitive;  ///< n x n, row-major
  };

  /// An unfilled set shaped by each instance's member count, in
  /// solution-index order.
  explicit RegionSet(const std::vector<std::uint32_t>& member_counts);

  std::size_t size() const { return offset_.size() - 1; }
  std::size_t member_count() const { return net_.size(); }
  std::size_t begin(std::size_t si) const { return offset_[si]; }
  std::size_t count(std::size_t si) const {
    return offset_[si + 1] - offset_[si];
  }

  std::span<const std::uint32_t> net_index(std::size_t si) const {
    return {net_.data() + begin(si), count(si)};
  }
  std::span<const double> path_len_mm(std::size_t si) const {
    return {path_len_mm_.data() + begin(si), count(si)};
  }
  /// The instance view of `si` under `kth` (count(si) values).
  sino::SinoInstance instance(std::size_t si, const double* kth) const {
    return {count(si), si_.data() + begin(si), kth,
            sensitive_.data() + sens_offset_[si]};
  }
  /// The full view of `si` under per-bound state; `kth` and `ki` hold
  /// count(si) values.
  RegionSolution solution(std::size_t si, const double* kth, const double* ki,
                          std::span<const ktable::Slot> slots) const;

  Slice slice(std::size_t si);
  /// Copy instance `si` of `from`, which must have the same member count.
  void copy_slice(std::size_t si, const RegionSet& from);

  /// Heap bytes of the arrays.
  std::size_t owned_bytes() const;

 private:
  std::vector<std::uint32_t> offset_;       ///< size() + 1 member offsets
  std::vector<std::uint64_t> sens_offset_;  ///< size() + 1 matrix offsets
  std::vector<std::uint32_t> net_;
  std::vector<double> si_, len_mm_, path_len_mm_;
  std::vector<std::uint8_t> sensitive_;
};

/// The per-bound state of one solve or refine over a shared RegionSet:
/// per-member Kth and Ki and the slots of the instances it owns, packed in
/// instance order. Without a base it owns every instance (a solve); with
/// one it owns the sorted instances in `own` and reads every other
/// instance from its base (a refine over its solve). Indexing or
/// iterating yields RegionSolution views.
class RegionSolutions {
 public:
  /// The packed state of the owned instances: their members' Kth and Ki,
  /// and `slot_offset` (one more entry than instances) into `slots`.
  struct Packed {
    std::vector<double> kth, ki;
    std::vector<std::uint32_t> slot_offset;
    std::vector<ktable::Slot> slots;
  };

  /// Owns every instance of `set`.
  RegionSolutions(std::shared_ptr<const RegionSet> set, Packed state);
  /// Owns the instances `own` (sorted, unique) and reads the rest from
  /// `base`.
  RegionSolutions(std::shared_ptr<const RegionSolutions> base,
                  std::vector<std::uint32_t> own, Packed state);

  /// The per-bound state of every instance of `set`, as one Kth and Ki
  /// array over all members and one slot vector per instance: owns every
  /// instance without a `base`, else only those that differ from it.
  static std::shared_ptr<const RegionSolutions> pack(
      std::shared_ptr<const RegionSet> set,
      std::shared_ptr<const RegionSolutions> base,
      const std::vector<double>& kth, const std::vector<double>& ki,
      const std::vector<ktable::SlotVec>& slots);

  const std::shared_ptr<const RegionSet>& set() const { return set_; }
  const std::shared_ptr<const RegionSolutions>& base() const { return base_; }
  std::size_t size() const { return set_->size(); }
  RegionSolution operator[](std::size_t si) const;
  std::span<const ktable::Slot> slots(std::size_t si) const {
    return (*this)[si].slots;
  }

  /// The owned instances (empty without a base: all of them) and their
  /// packed state.
  const std::vector<std::uint32_t>& own() const { return own_; }
  const Packed& packed() const { return state_; }

  /// Heap bytes of this state's own arrays (the shared set and the base
  /// excluded).
  std::size_t owned_bytes() const;

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = RegionSolution;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RegionSolution;

    iterator(const RegionSolutions* s, std::size_t i) : s_(s), i_(i) {}
    RegionSolution operator*() const { return (*s_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const RegionSolutions* s_;
    std::size_t i_;
  };
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

 private:
  std::shared_ptr<const RegionSet> set_;
  std::shared_ptr<const RegionSolutions> base_;
  std::vector<std::uint32_t> own_;
  std::vector<std::uint32_t> member_offset_;  ///< per owned instance, + 1
  Packed state_;
};

}  // namespace rlcr::gsino
