#include "ktable/keff.h"

#include <stdexcept>
#include <string>

namespace rlcr::ktable {

namespace {

/// Shield counts tabulated by KeffModel::attenuation(); larger counts fall
/// back to std::pow. Real regions rarely hold more than a handful.
constexpr std::size_t kAttenuationTable = 64;

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("KeffParams: ") + what);
}

}  // namespace

KeffModel::KeffModel(const KeffParams& params, const circuit::Technology& tech)
    : params_(params) {
  (void)tech;  // see header: the profile is simulation-calibrated
  require(std::isfinite(params_.decay_exponent) && params_.decay_exponent >= 0.0,
          "decay_exponent must be finite and >= 0");
  require(std::isfinite(params_.shield_attenuation) &&
              params_.shield_attenuation > 0.0 &&
              params_.shield_attenuation <= 1.0,
          "shield_attenuation must be in (0, 1]");
  require(params_.max_separation >= 1, "max_separation must be >= 1");
  require(std::isfinite(params_.scale) && params_.scale >= 0.0,
          "scale must be finite and >= 0");

  const int maxsep = params_.max_separation;
  profile_.assign(static_cast<std::size_t>(maxsep) + 1, 0.0);
  for (int d = 1; d <= maxsep; ++d) {
    profile_[static_cast<std::size_t>(d)] =
        params_.scale * std::pow(static_cast<double>(d), -params_.decay_exponent);
  }
  attenuation_.resize(kAttenuationTable);
  for (std::size_t s = 0; s < kAttenuationTable; ++s) {
    attenuation_[s] =
        std::pow(params_.shield_attenuation, static_cast<int>(s));
  }

  // The SINO kernel's exactness arguments need coupling non-increasing in
  // distance and in shield count as computed, rounding included, not only
  // in exact arithmetic: the profile over [1, max_separation], and the
  // attenuation table plus the first std::pow value past it.
  for (std::size_t d = 1; d + 1 < profile_.size(); ++d) {
    require(profile_[d + 1] <= profile_[d],
            "profile must not increase with separation");
  }
  for (std::size_t s = 0; s + 1 < kAttenuationTable; ++s) {
    require(attenuation_[s + 1] <= attenuation_[s],
            "attenuation must not increase with shield count");
  }
  require(attenuation(static_cast<int>(kAttenuationTable)) <=
              attenuation_.back(),
          "attenuation must not increase with shield count");
}

double KeffModel::profile(int separation) const {
  if (separation <= 0) return 0.0;
  return profile_[static_cast<std::size_t>(
      std::min(separation, params_.max_separation))];
}

double KeffModel::pair_coupling(const SlotVec& slots, std::size_t i,
                                std::size_t j) const {
  if (i == j || i >= slots.size() || j >= slots.size()) return 0.0;
  if (slots[i] < 0 || slots[j] < 0) return 0.0;
  const std::size_t lo = std::min(i, j);
  const std::size_t hi = std::max(i, j);
  int shields_between = 0;
  for (std::size_t k = lo + 1; k < hi; ++k) {
    if (slots[k] == kShieldSlot) ++shields_between;
  }
  return coupling(hi - lo, shields_between);
}

}  // namespace rlcr::ktable
