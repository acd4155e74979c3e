// Seeded, deterministic byte-level mutator for the fuzz tests of the
// repo's binary codecs. No fuzzing engine is needed: a fixed seed and a
// bounded iteration count make every run replay the same mutants, so a
// failure reproduces from the test name alone.
#pragma once

#include <cstdint>
#include <iterator>
#include <vector>

#include "util/rng.h"

namespace rlcr::fuzz {

class Mutator {
 public:
  enum class Op { kBitFlip, kTruncate, kInflateLength, kSplice };

  explicit Mutator(std::uint64_t seed)
      : rng_(util::SplitMix64::mix2(seed, 0xF022)) {}

  /// One mutant of `a`: flip 1-4 bits, truncate, inflate a plausible
  /// length field, or splice a prefix of `a` onto a suffix of `b`.
  std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& a,
                                   const std::vector<std::uint8_t>& b,
                                   Op* op_out = nullptr) {
    const auto op = static_cast<Op>(rng_.below(4));
    if (op_out != nullptr) *op_out = op;
    std::vector<std::uint8_t> out = a;
    if (out.empty()) return out;
    switch (op) {
      case Op::kBitFlip: {
        const std::uint64_t flips = 1 + rng_.below(4);
        for (std::uint64_t k = 0; k < flips; ++k) {
          const auto at = static_cast<std::size_t>(rng_.below(out.size()));
          out[at] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
        }
        break;
      }
      case Op::kTruncate:
        out.resize(static_cast<std::size_t>(rng_.below(out.size())));
        break;
      case Op::kInflateLength: {
        // A u64 whose value could be a count or size of this record.
        std::vector<std::size_t> lengths;
        for (std::size_t at = 0; at + 8 <= out.size(); ++at) {
          const std::uint64_t v = load_u64(out, at);
          if (v != 0 && v <= out.size()) lengths.push_back(at);
        }
        if (lengths.empty()) break;
        const std::size_t at = lengths[rng_.below(lengths.size())];
        const std::uint64_t v = load_u64(out, at);
        const std::uint64_t inflated[] = {v + 1, v * 2, v << 20,
                                          std::uint64_t{1} << 32,
                                          std::uint64_t{1} << 62,
                                          ~std::uint64_t{0}};
        store_u64(out, at, inflated[rng_.below(std::size(inflated))]);
        break;
      }
      case Op::kSplice: {
        const auto cut_a = static_cast<std::size_t>(rng_.below(a.size() + 1));
        const auto cut_b = static_cast<std::size_t>(rng_.below(b.size() + 1));
        out.assign(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(cut_a));
        out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(cut_b),
                   b.end());
        break;
      }
    }
    return out;
  }

  bool coin() { return rng_.below(2) == 0; }

  static std::uint64_t load_u64(const std::vector<std::uint8_t>& bytes,
                                std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
    }
    return v;
  }
  static void store_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
                        std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

 private:
  util::Xoshiro256 rng_;
};

}  // namespace rlcr::fuzz
