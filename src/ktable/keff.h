// Keff model: formula-based inductive-coupling estimation between signal
// nets sharing a routing region (after [4]'s Keff model, Section 2.2).
//
// A routing region's tracks are a slot vector: each slot holds a signal net,
// a shield, or nothing. The model assigns a coupling coefficient K(i, j) to
// every victim/aggressor slot pair and defines the total coupling of net i,
//   Ki = sum over slots j holding nets sensitive to i of K(i, j).
// Ki is the quantity SINO bounds with Kth and the per-region factor of the
// LSK sum (Eq. 1).
//
// The paper takes the K formula from [4]/[8] without reprinting it; this
// implementation calibrates K(i, j) against the library's own MNA bus
// simulator: sweeping one aggressor across track distances (with quiet
// signal wires in between, the common case inside a routed region) shows
// the victim's peak noise decays as a power law ~ d^-0.52 — much faster
// than the bare-pair partial-mutual-inductance formula, because intervening
// quiet wires carry induced return currents that screen the coupling.
// A shield does the same but better (it is tied to the P/G network at both
// ends): measured attenuation is ~0.38x per shield relative to the quiet
// signal it replaces. The bench `bench_lsk_fidelity` re-derives both
// numbers and verifies the fidelity property the paper relies on: higher Ki
// means higher simulated noise at fixed length.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "circuit/extract.h"

namespace rlcr::ktable {

/// Slot occupancy for one routing region's track set. Values >= 0 identify
/// a signal net (indices are caller-defined); negative values are special.
using Slot = std::int32_t;
inline constexpr Slot kShieldSlot = -1;
inline constexpr Slot kEmptySlot = -2;
using SlotVec = std::vector<Slot>;

struct KeffParams {
  /// Power-law decay of coupling with track distance, K ~ d^-decay;
  /// calibrated against the MNA simulator (quiet wires in between).
  double decay_exponent = 0.52;
  /// Multiplicative attenuation per shield strictly between the pair
  /// (simulator-calibrated).
  double shield_attenuation = 0.38;
  /// Largest track separation the profile is tabulated for; pairs farther
  /// apart are clamped to the profile tail.
  int max_separation = 128;
  /// Overall scale of K (1.0 = adjacent pair -> K = 1).
  double scale = 1.0;
};

class KeffModel {
 public:
  /// Throws std::invalid_argument unless every field is finite,
  /// max_separation >= 1, shield_attenuation is in (0, 1], and
  /// decay_exponent and scale are >= 0. These ranges make coupling
  /// non-negative and non-increasing in both distance and shield count,
  /// which the SINO kernel relies on (src/core/README.md, "The SINO
  /// kernel"). The built tables are checked too, since rounding could
  /// break that order: profile(d) must not increase over [1,
  /// max_separation], nor attenuation(s) over the table and the first
  /// std::pow value past it.
  ///
  /// `tech` is accepted for interface stability (the profile used to be
  /// derived from the extractor's bare-pair formula; it is now calibrated
  /// directly against simulation and depends only on `params`).
  explicit KeffModel(const KeffParams& params = {},
                     const circuit::Technology& tech = {});

  const KeffParams& params() const { return params_; }

  /// Distance profile: coupling of a bare pair at `separation` tracks,
  /// normalized so separation 1 gives params.scale.
  double profile(int separation) const;

  /// Coupling of a signal pair `separation` >= 1 tracks apart with
  /// `shields` shields strictly between them:
  ///   profile(separation) * shield_attenuation^shields.
  /// The one place the formula lives; every other coupling goes through it.
  double coupling(std::size_t separation, int shields) const {
    const std::size_t d =
        std::min(separation, static_cast<std::size_t>(params_.max_separation));
    return profile_[d] * attenuation(shields);
  }

  /// shield_attenuation^shields, tabulated with the same std::pow call the
  /// fallback past the table makes, so both give the same bits.
  double attenuation(int shields) const {
    return static_cast<std::size_t>(shields) < attenuation_.size()
               ? attenuation_[static_cast<std::size_t>(shields)]
               : std::pow(params_.shield_attenuation, shields);
  }

  /// Coupling coefficient between slots i and j of `slots`, accounting for
  /// shields strictly between them. Zero for i == j or non-signal slots.
  double pair_coupling(const SlotVec& slots, std::size_t i, std::size_t j) const;

  /// Total inductive coupling Ki of the signal in slot `victim`:
  /// sum of pair_coupling over all slots holding aggressors, where
  /// `is_aggressor(net_value)` says whether a slot's net attacks the victim.
  /// Summed in ascending slot order; the shield count between the victim
  /// and each slot is carried along the sweep, so Ki is O(slots).
  ///
  /// Returns early, with the partial sum, once that sum exceeds
  /// `stop_above`. Every term is >= 0, so partial sums never fall: the
  /// early result is > stop_above exactly when the full sum is.
  template <typename AggressorPred>
  double total_coupling(const SlotVec& slots, std::size_t victim,
                        AggressorPred&& is_aggressor,
                        double stop_above =
                            std::numeric_limits<double>::infinity()) const {
    if (victim >= slots.size() || slots[victim] < 0) return 0.0;
    // Shields strictly between slot j and the victim: left of the victim
    // it starts at every shield there and drops as j passes each one;
    // right of the victim it counts up from zero.
    int between = 0;
    for (std::size_t j = 0; j < victim; ++j) {
      if (slots[j] == kShieldSlot) ++between;
    }
    double acc = 0.0;
    for (std::size_t j = 0; j < victim; ++j) {
      const Slot s = slots[j];
      if (s < 0) {
        if (s == kShieldSlot) --between;
        continue;
      }
      if (!is_aggressor(s)) continue;
      acc += coupling(victim - j, between);
      if (acc > stop_above) return acc;
    }
    for (std::size_t j = victim + 1; j < slots.size(); ++j) {
      const Slot s = slots[j];
      if (s < 0) {
        if (s == kShieldSlot) ++between;
        continue;
      }
      if (!is_aggressor(s)) continue;
      acc += coupling(j - victim, between);
      if (acc > stop_above) return acc;
    }
    return acc;
  }

 private:
  KeffParams params_;
  std::vector<double> profile_;      // [separation] -> normalized coupling
  std::vector<double> attenuation_;  // [shields] -> shield_attenuation^shields
};

}  // namespace rlcr::ktable
