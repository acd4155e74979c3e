// A single-region SINO problem instance (after He & Lepak [4]).
//
// Given the nets that cross one routing region in one direction, SINO picks
// a track ordering and inserts shields so that
//   (1) no two mutually sensitive nets sit on capacitively adjacent tracks,
//   (2) every net's total inductive coupling Ki stays within its bound Kth,
// while using as few tracks (area) as possible.
//
// SinoInstance is a view: it reads each net's S_i and Kth, and the dense
// pairwise sensitivity matrix, from storage its owner keeps alive. In the
// flow that owner is a routing's RegionSet (core/regions.h), which holds
// the S_i and sensitivities of every (region, dir) once per routing,
// together with a solve's per-member Kth array; only the Kth change with
// the crosstalk bound. Standalone instances (tests, the Eq. (3)
// calibration, benches) own their storage in an OwnedInstance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace rlcr::sino {

/// One net of a standalone instance (OwnedInstance's input).
struct SinoNet {
  double si = 0.0;   ///< sensitivity rate S_i (input to Eq. 3)
  double kth = 1.0;  ///< inductive coupling bound for this segment
};

/// Read-only view of one instance: `n` nets' S_i and Kth, and the dense
/// symmetric n x n sensitivity matrix (one byte per pair, row-major, zero
/// diagonal). Cheap to copy; the storage must outlive the view.
class SinoInstance {
 public:
  SinoInstance() = default;
  SinoInstance(std::size_t n, const double* si, const double* kth,
               const std::uint8_t* sensitive)
      : n_(n), si_(si), kth_(kth), sensitive_(sensitive) {}

  std::size_t net_count() const { return n_; }
  double si(std::size_t i) const { return si_[i]; }
  double kth(std::size_t i) const { return kth_[i]; }

  bool sensitive(std::size_t i, std::size_t j) const {
    if (i == j) return false;
    return sensitive_[i * n_ + j] != 0;
  }

  /// Sum of S_i over all nets (Eq. 3 input).
  double sum_si() const {
    double acc = 0.0;
    for (std::size_t i = 0; i < n_; ++i) acc += si_[i];
    return acc;
  }
  /// Sum of S_i^2 over all nets (Eq. 3 input).
  double sum_si2() const {
    double acc = 0.0;
    for (std::size_t i = 0; i < n_; ++i) acc += si_[i] * si_[i];
    return acc;
  }

 private:
  std::size_t n_ = 0;
  const double* si_ = nullptr;
  const double* kth_ = nullptr;
  const std::uint8_t* sensitive_ = nullptr;
};

/// A standalone instance that owns its storage. Converts to the
/// SinoInstance view every solver takes; the view is valid while this
/// object lives and is not modified.
class OwnedInstance {
 public:
  OwnedInstance() = default;
  explicit OwnedInstance(const std::vector<SinoNet>& nets)
      : sensitive_(nets.size() * nets.size(), 0) {
    si_.reserve(nets.size());
    kth_.reserve(nets.size());
    for (const SinoNet& n : nets) {
      si_.push_back(n.si);
      kth_.push_back(n.kth);
    }
  }

  std::size_t net_count() const { return si_.size(); }
  double si(std::size_t i) const { return si_[i]; }
  double kth(std::size_t i) const { return kth_[i]; }
  void set_kth(std::size_t i, double kth) { kth_.at(i) = kth; }
  bool sensitive(std::size_t i, std::size_t j) const {
    return view().sensitive(i, j);
  }
  double sum_si() const { return view().sum_si(); }
  double sum_si2() const { return view().sum_si2(); }

  /// Mark nets i and j (indices into the net list) as mutually sensitive.
  void set_sensitive(std::size_t i, std::size_t j, bool v = true) {
    const std::size_t n = si_.size();
    if (i >= n || j >= n) {
      throw std::out_of_range("OwnedInstance::set_sensitive");
    }
    sensitive_[i * n + j] = v ? 1 : 0;
    sensitive_[j * n + i] = v ? 1 : 0;
  }

  SinoInstance view() const {
    return {si_.size(), si_.data(), kth_.data(), sensitive_.data()};
  }
  operator SinoInstance() const { return view(); }

 private:
  std::vector<double> si_, kth_;
  std::vector<std::uint8_t> sensitive_;
};

}  // namespace rlcr::sino
