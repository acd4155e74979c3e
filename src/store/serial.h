// Versioned binary serialization for the session's stage artifacts.
//
// Every record is a self-describing frame:
//
//   offset  size  field
//        0     8  magic "RLCRART\0"
//        8     4  format version (u32, little-endian; kFormatVersion)
//       12     4  artifact type tag (u32; ArtifactType)
//       16     8  payload size in bytes (u64)
//       24     N  payload (type-specific, primitives little-endian)
//     24+N     8  FNV-1a checksum of the payload (u64)
//
// All multi-byte integers are little-endian regardless of host order, and
// doubles travel as their IEEE-754 bit patterns — a record written on one
// machine loads on any other. load_*() returns null on ANY validation
// failure: wrong magic or type, version mismatch, truncation, checksum
// mismatch, payload that does not parse, or contents inconsistent with the
// problem it is being loaded into (net/region counts, out-of-grid edges).
//
// Fidelity contract: a loaded artifact is bit-identical to the artifact
// that was saved. For RoutingArtifact this is enforced, not assumed — the
// payload embeds the golden route hash (router/route_types.h, the same
// function the golden-seed regression tests pin) and load_routing()
// recomputes and compares it, then rebuilds every derived view (occupancy,
// segment congestion, critical paths) through the session's own
// derive_routing_artifact(), the exact code path a fresh compute takes.
// Budget payloads carry their full numeric state verbatim (bit patterns),
// so equality is structural. Region-solve and refine payloads carry only
// their per-bound state (Kth, Ki, slots, LSK, noise) verbatim; the loader
// re-attaches the routing's region set, rejects a record that does not
// fit its shape or whose slots are not a valid arrangement of each
// instance, and re-derives the congestion map from the routing's segment
// counts and the slots' shields.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/session.h"

namespace rlcr::store {

/// v2: RoutingStats gained the deletion-loop speculation counters
/// (spec_attempted/committed/replayed). A version bump — not an optional
/// tail — keeps the "any validation failure loads as null" rule simple:
/// v1 records are treated as misses and recompute.
/// v3: the routing profile gained tree_profile + tree_profile_overrides
/// (steiner quality tiers) and RoutingStats gained rsmt_fallback_nets;
/// same rule — v2 records load as misses and recompute.
/// v4: speculative execution was removed, so the routing record drops the
/// deletion-loop speculation counters and the refine record drops the
/// pass-1 ones; v3 records load as misses and recompute.
/// v5: batched refine pass 2 was removed, so the refine record drops its
/// pass-2 mode byte and the two batch counters; v4 records load as misses
/// and recompute.
/// v6: the Steiner quality tiers and the Z pre-route shape were removed,
/// so the routing profile drops preroute_shape (u32), tree_profile (u8)
/// and the tree_profile_overrides vector; v5 records load as misses and
/// recompute.
/// v7: region-solve and refine records hold only per-bound state over the
/// routing's shared region set (flat Kth, Ki and slots, plus LSK and
/// noise); members, S_i, lengths and sensitivities come from the routing,
/// and the congestion map is re-derived. v6 records load as misses and
/// recompute.
inline constexpr std::uint32_t kFormatVersion = 7;

enum class ArtifactType : std::uint32_t {
  kRouting = 1,
  kBudget = 2,
  kRegionSolve = 3,
  /// Added alongside refine auto-publish. No version bump: the other
  /// payloads are unchanged, and pre-refine stores simply miss on the new
  /// tag.
  kRefine = 4,
};

// ------------------------------------------------------------------- save

std::vector<std::uint8_t> save(const gsino::RoutingArtifact& art);
std::vector<std::uint8_t> save(const gsino::BudgetArtifact& art);
std::vector<std::uint8_t> save(const gsino::RegionSolveArtifact& art);
std::vector<std::uint8_t> save(const gsino::RefineArtifact& art);

// ------------------------------------------------------------------- load

/// Decode a routing artifact and re-derive its views against `problem`.
/// Null on any validation failure (see file header).
std::shared_ptr<const gsino::RoutingArtifact> load_routing(
    const std::vector<std::uint8_t>& bytes, const gsino::RoutingProblem& problem);

/// Like a solve's inputs, a kRoutedLength budget's `phase1` is identity:
/// the loader re-attaches the caller's (other rules leave it null).
std::shared_ptr<const gsino::BudgetArtifact> load_budget(
    const std::vector<std::uint8_t>& bytes, const gsino::RoutingProblem& problem,
    std::shared_ptr<const gsino::RoutingArtifact> phase1);

/// The solve artifact's phase1/budget inputs are identity, not payload:
/// the caller supplies the (already loaded or computed) artifacts it was
/// derived from, and the loader re-attaches them.
std::shared_ptr<const gsino::RegionSolveArtifact> load_region_solve(
    const std::vector<std::uint8_t>& bytes, const gsino::RoutingProblem& problem,
    std::shared_ptr<const gsino::RoutingArtifact> phase1,
    std::shared_ptr<const gsino::BudgetArtifact> budget);

/// Like load_region_solve, the refine artifact's base (solve) input is
/// identity: the caller re-attaches it.
std::shared_ptr<const gsino::RefineArtifact> load_refine(
    const std::vector<std::uint8_t>& bytes, const gsino::RoutingProblem& problem,
    std::shared_ptr<const gsino::RegionSolveArtifact> base);

}  // namespace rlcr::store
