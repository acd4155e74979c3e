// Incremental netlist deltas: mutate a handful of nets and re-route only
// what can change, instead of recomputing Phase I.
//
// A NetlistDelta is a batch of slot-preserving net mutations — add,
// remove, re-pin — applied two ways that must agree bit for bit:
//
//   - apply_delta(Netlist&, delta) mutates a design in place; building a
//     fresh RoutingProblem from it is the from-scratch arm of the
//     differential contract.
//   - apply_delta(const RoutingProblem&, delta) produces the mutated
//     problem directly (RoutingProblem::with_pin_updates); it shares the
//     constructor's per-net derivation, so the two arms yield equal
//     fingerprints.
//
// FlowSession::apply_delta(delta) (declared in core/session.h, defined in
// delta.cpp through the DeltaEngine friend) is the incremental arm: it
// swaps the session onto the mutated problem and patches every cached
// artifact — re-routing only the delta's nets plus the bbox-connected
// closure of pool nets around them, rebuilding only dirty Phase II
// regions — so that each patched artifact is bit-identical to what a
// from-scratch session computes. Slot preservation is what makes that
// possible: removal empties a slot instead of shifting indices, so
// per-net sensitivities, pairwise-sensitivity draws, and the annealing
// stream seeds of every untouched net keep their values.
//
// tests/delta_differential_test.cpp pins the contract: over seeded random
// delta chains, at threads {1, 8}, with and without the persistent store,
// every incremental state matches the from-scratch run's route hash and
// state fingerprint exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/problem.h"
#include "geom/point.h"
#include "netlist/netlist.h"

namespace rlcr::scenario {

/// One net mutation. Slots are design net indices; `kAdd` ignores `net`
/// and appends (in change order, so the netlist and problem arms number
/// new slots identically).
struct NetChange {
  enum class Kind { kAdd, kRemove, kRepin };
  Kind kind = Kind::kRepin;
  std::size_t net = 0;             ///< target slot (kRemove / kRepin)
  std::vector<geom::PointF> pins;  ///< new physical pins, [0] = source
  std::string name;                ///< netlist name for kAdd
};

struct NetlistDelta {
  std::vector<NetChange> changes;
  bool empty() const { return changes.empty(); }
};

/// Mutate a design in place: kRemove clears the slot's pins (the slot
/// stays — see the file comment), kRepin replaces them, kAdd appends.
void apply_delta(netlist::Netlist& design, const NetlistDelta& delta);

/// The slot-preserving problem mutation both the incremental engine and
/// the from-scratch differential arm share.
gsino::RoutingProblem apply_delta(const gsino::RoutingProblem& problem,
                                  const NetlistDelta& delta);

/// What one FlowSession::apply_delta() call did. The reuse counts are the
/// compute avoided by incrementality; results are bit-identical either
/// way.
struct DeltaReport {
  /// The mutated problem the session now serves (owned by the session).
  std::shared_ptr<const gsino::RoutingProblem> problem;
  std::size_t changed_nets = 0;    ///< slots the delta touched
  std::size_t routes_patched = 0;  ///< cached routing artifacts patched
  std::size_t nets_rerouted = 0;   ///< pool nets the delta sub-runs re-routed
  std::size_t nets_reused = 0;     ///< pool nets spliced from old artifacts
  std::size_t regions_solved = 0;  ///< dirty (region, dir) solves recomputed
  std::size_t regions_reused = 0;  ///< clean (region, dir) solves carried over
  double seconds = 0.0;
};

/// Seeded random delta over a problem's current net set: `changes`
/// mutations drawn among re-pin / remove / add. Pin sets are ECO-like —
/// 2-5 pins clustered in a random window of the chip outline, so a
/// delta's affected closure stays local instead of percolating across
/// the pool. Pure in (problem net count, outline, seed), so a test or
/// bench regenerates the identical corpus from the seed.
NetlistDelta random_delta(const gsino::RoutingProblem& problem,
                          std::uint64_t seed, std::size_t changes);

}  // namespace rlcr::scenario
