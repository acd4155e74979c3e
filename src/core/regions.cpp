#include "core/regions.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace rlcr::gsino {

namespace {

template <typename T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

RegionSet::RegionSet(const std::vector<std::uint32_t>& member_counts)
    : offset_(member_counts.size() + 1, 0),
      sens_offset_(member_counts.size() + 1, 0) {
  for (std::size_t si = 0; si < member_counts.size(); ++si) {
    const std::uint64_t n = member_counts[si];
    offset_[si + 1] = offset_[si] + member_counts[si];
    sens_offset_[si + 1] = sens_offset_[si] + n * n;
  }
  const std::size_t members = offset_.back();
  net_.resize(members);
  si_.resize(members);
  len_mm_.resize(members);
  path_len_mm_.resize(members);
  sensitive_.resize(static_cast<std::size_t>(sens_offset_.back()));
}

RegionSolution RegionSet::solution(std::size_t si, const double* kth,
                                   const double* ki,
                                   std::span<const ktable::Slot> slots) const {
  const std::size_t b = begin(si), n = count(si);
  RegionSolution sol;
  sol.net_index = {net_.data() + b, n};
  sol.len_mm = {len_mm_.data() + b, n};
  sol.path_len_mm = {path_len_mm_.data() + b, n};
  sol.ki = {ki, n};
  sol.slots = slots;
  sol.instance = instance(si, kth);
  return sol;
}

RegionSet::Slice RegionSet::slice(std::size_t si) {
  const std::size_t b = begin(si), n = count(si);
  return Slice{{net_.data() + b, n},
               {si_.data() + b, n},
               {len_mm_.data() + b, n},
               {path_len_mm_.data() + b, n},
               {sensitive_.data() + sens_offset_[si], n * n}};
}

void RegionSet::copy_slice(std::size_t si, const RegionSet& from) {
  if (from.count(si) != count(si)) {
    throw std::logic_error("RegionSet::copy_slice: member counts differ");
  }
  const std::size_t to = begin(si), at = from.begin(si), n = count(si);
  std::copy_n(from.net_.begin() + at, n, net_.begin() + to);
  std::copy_n(from.si_.begin() + at, n, si_.begin() + to);
  std::copy_n(from.len_mm_.begin() + at, n, len_mm_.begin() + to);
  std::copy_n(from.path_len_mm_.begin() + at, n, path_len_mm_.begin() + to);
  std::copy_n(from.sensitive_.begin() + from.sens_offset_[si], n * n,
              sensitive_.begin() + sens_offset_[si]);
}

std::size_t RegionSet::owned_bytes() const {
  return heap_bytes(offset_) + heap_bytes(sens_offset_) + heap_bytes(net_) +
         heap_bytes(si_) + heap_bytes(len_mm_) + heap_bytes(path_len_mm_) +
         heap_bytes(sensitive_);
}

namespace {

bool fits(const RegionSolutions::Packed& st, std::size_t instances,
          std::size_t members) {
  return st.kth.size() == members && st.ki.size() == members &&
         st.slot_offset.size() == instances + 1 &&
         st.slot_offset.back() == st.slots.size();
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

}  // namespace

RegionSolutions::RegionSolutions(std::shared_ptr<const RegionSet> set,
                                 Packed state)
    : set_(std::move(set)), state_(std::move(state)) {
  if (!fits(state_, set_->size(), set_->member_count())) {
    throw std::logic_error("RegionSolutions: state does not fit its set");
  }
}

RegionSolutions::RegionSolutions(std::shared_ptr<const RegionSolutions> base,
                                 std::vector<std::uint32_t> own, Packed state)
    : set_(base->set()),
      base_(std::move(base)),
      own_(std::move(own)),
      member_offset_(own_.size() + 1, 0),
      state_(std::move(state)) {
  for (std::size_t k = 0; k < own_.size(); ++k) {
    if (own_[k] >= set_->size() || (k > 0 && own_[k] <= own_[k - 1])) {
      throw std::logic_error("RegionSolutions: owned instances not sorted");
    }
    member_offset_[k + 1] =
        member_offset_[k] + static_cast<std::uint32_t>(set_->count(own_[k]));
  }
  if (!fits(state_, own_.size(), member_offset_.back())) {
    throw std::logic_error("RegionSolutions: state does not fit its set");
  }
}

RegionSolution RegionSolutions::operator[](std::size_t si) const {
  std::size_t pos = si, first = set_->begin(si);
  if (base_) {
    const auto it = std::lower_bound(own_.begin(), own_.end(), si);
    if (it == own_.end() || *it != si) return (*base_)[si];
    pos = static_cast<std::size_t>(it - own_.begin());
    first = member_offset_[pos];
  }
  const std::span<const ktable::Slot> slots(
      state_.slots.data() + state_.slot_offset[pos],
      state_.slot_offset[pos + 1] - state_.slot_offset[pos]);
  return set_->solution(si, state_.kth.data() + first,
                        state_.ki.data() + first, slots);
}

std::shared_ptr<const RegionSolutions> RegionSolutions::pack(
    std::shared_ptr<const RegionSet> set,
    std::shared_ptr<const RegionSolutions> base,
    const std::vector<double>& kth, const std::vector<double>& ki,
    const std::vector<ktable::SlotVec>& slots) {
  std::vector<std::uint32_t> own;
  Packed st;
  if (!base) {
    std::size_t total = 0;
    for (const ktable::SlotVec& s : slots) total += s.size();
    st.kth.reserve(set->member_count());
    st.ki.reserve(set->member_count());
    st.slot_offset.reserve(set->size() + 1);
    st.slots.reserve(total);
  }
  st.slot_offset.push_back(0);
  for (std::size_t si = 0; si < set->size(); ++si) {
    const std::size_t first = set->begin(si), n = set->count(si);
    const std::span<const double> my_kth(kth.data() + first, n);
    const std::span<const double> my_ki(ki.data() + first, n);
    if (base) {
      const RegionSolution was = (*base)[si];
      bool same = std::ranges::equal(was.slots, slots[si]) &&
                  same_bits(my_ki, was.ki);
      for (std::size_t i = 0; same && i < n; ++i) {
        same = std::bit_cast<std::uint64_t>(my_kth[i]) ==
               std::bit_cast<std::uint64_t>(was.instance.kth(i));
      }
      if (same) continue;
      own.push_back(static_cast<std::uint32_t>(si));
    }
    st.kth.insert(st.kth.end(), my_kth.begin(), my_kth.end());
    st.ki.insert(st.ki.end(), my_ki.begin(), my_ki.end());
    st.slots.insert(st.slots.end(), slots[si].begin(), slots[si].end());
    st.slot_offset.push_back(static_cast<std::uint32_t>(st.slots.size()));
  }
  if (base) {
    own.shrink_to_fit();
    st.kth.shrink_to_fit();
    st.ki.shrink_to_fit();
    st.slot_offset.shrink_to_fit();
    st.slots.shrink_to_fit();
    return std::make_shared<const RegionSolutions>(std::move(base),
                                                   std::move(own),
                                                   std::move(st));
  }
  return std::make_shared<const RegionSolutions>(std::move(set),
                                                 std::move(st));
}

std::size_t RegionSolutions::owned_bytes() const {
  return heap_bytes(own_) + heap_bytes(member_offset_) +
         heap_bytes(state_.kth) + heap_bytes(state_.ki) +
         heap_bytes(state_.slot_offset) + heap_bytes(state_.slots);
}

}  // namespace rlcr::gsino
