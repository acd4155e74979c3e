// Content-addressed, size-budgeted on-disk artifact cache.
//
// An ArtifactStore maps (artifact type, 64-bit identity key) to a
// serialized artifact record (store/serial.h) in one flat directory. Keys
// are the session's profile identity, not hashes of the output: a routing
// key digests the problem fingerprint (circuit/netlist + grid + seed —
// RoutingProblem::fingerprint()) plus the router options profile with
// `threads` excluded, so any process that assembles the same problem
// derives the same key and warm-starts from artifacts another process
// published. Determinism makes this sound: equal inputs produce
// bit-identical artifacts, so a stored record is interchangeable with a
// fresh compute.
//
// Durability/concurrency contract:
//   - writes are atomic: records land in a temp file in the store
//     directory and are renamed into place (POSIX rename atomicity), so
//     readers never observe a partial record;
//   - any number of threads may share one ArtifactStore (all methods are
//     internally locked) and any number of processes may share one
//     directory — cross-process races resolve to one winner per key, and
//     a vanished or half-evicted file is just a miss;
//   - a record that fails validation on load (truncation, checksum,
//     version or problem mismatch) counts as `rejected`, is deleted, and
//     reads as a miss — the caller recomputes and republishes.
//
// Eviction: when the directory's record bytes exceed StoreOptions::
// max_bytes after a put, least-recently-used records are deleted until the
// budget holds (the record just written is exempt). Recency is the file
// mtime; loads touch it, so warm entries survive. The delete-side sweep is
// additionally serialized across processes by an advisory flock on
// `<dir>/.lock` (util/file_lock.h) so a daemon and external CLI runs
// sharing one directory never run concurrent sweeps over the same scan —
// contended acquisitions are counted in StoreStats::lock_waits.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "store/serial.h"

namespace rlcr::util {
class FileLock;
}

namespace rlcr::store {

struct StoreOptions {
  /// LRU size budget for the store directory's records; 0 = unbounded.
  std::uintmax_t max_bytes = std::uintmax_t{256} << 20;
};

/// Counter surface (snapshot via ArtifactStore::stats()).
struct StoreStats {
  std::size_t hits = 0;        ///< get() found a valid record
  std::size_t misses = 0;      ///< get() found nothing usable
  std::size_t stores = 0;      ///< put() wrote a new record
  std::size_t evictions = 0;   ///< records deleted by the LRU budget
  std::size_t rejected = 0;    ///< records that failed load validation
  std::size_t put_failures = 0;  ///< publishes that could not be written
  std::size_t lock_waits = 0;  ///< eviction sweeps that waited on the flock
  std::uintmax_t bytes_written = 0;
  std::uintmax_t bytes_read = 0;
};

class ArtifactStore {
 public:
  /// Creates `dir` (and parents) if missing. Throws std::runtime_error
  /// when the directory cannot be created or is not a directory — a
  /// misconfigured store path should fail loudly at construction, not
  /// degrade every run into a silent cold start. Later per-record I/O
  /// failures are non-fatal: the put is dropped and counted
  /// (StoreStats::put_failures), the session just recomputes.
  explicit ArtifactStore(std::filesystem::path dir, StoreOptions options = {});
  ~ArtifactStore();

  const std::filesystem::path& dir() const { return dir_; }
  StoreStats stats() const;
  /// Total size of the records currently on disk.
  std::uintmax_t bytes_on_disk() const;

  // ---- raw record layer -----------------------------------------------
  bool put(ArtifactType type, std::uint64_t key,
           const std::vector<std::uint8_t>& bytes);
  std::optional<std::vector<std::uint8_t>> get(ArtifactType type,
                                               std::uint64_t key);

  // ---- typed layer (serial.h encode/decode + validation stats) --------
  void put_routing(std::uint64_t key, const gsino::RoutingArtifact& art);
  std::shared_ptr<const gsino::RoutingArtifact> get_routing(
      std::uint64_t key, const gsino::RoutingProblem& problem);

  /// The caller re-attaches a routed-length budget's `phase1`.
  void put_budget(std::uint64_t key, const gsino::BudgetArtifact& art);
  std::shared_ptr<const gsino::BudgetArtifact> get_budget(
      std::uint64_t key, const gsino::RoutingProblem& problem,
      std::shared_ptr<const gsino::RoutingArtifact> phase1);

  void put_region_solve(std::uint64_t key,
                        const gsino::RegionSolveArtifact& art);
  std::shared_ptr<const gsino::RegionSolveArtifact> get_region_solve(
      std::uint64_t key, const gsino::RoutingProblem& problem,
      std::shared_ptr<const gsino::RoutingArtifact> phase1,
      std::shared_ptr<const gsino::BudgetArtifact> budget);

  /// The caller re-attaches `base` like get_region_solve re-attaches its
  /// inputs.
  void put_refine(std::uint64_t key, const gsino::RefineArtifact& art);
  std::shared_ptr<const gsino::RefineArtifact> get_refine(
      std::uint64_t key, const gsino::RoutingProblem& problem,
      std::shared_ptr<const gsino::RegionSolveArtifact> base);

 private:
  std::filesystem::path path_of(ArtifactType type, std::uint64_t key) const;
  /// put(save(art)) unless the record exists (then only refresh it).
  template <typename Artifact>
  void put_typed(ArtifactType type, std::uint64_t key, const Artifact& art);
  /// get() + `load(bytes)`; a record the loader rejects is deleted.
  template <typename Load>
  auto get_typed(ArtifactType type, std::uint64_t key, const Load& load)
      -> decltype(load(std::vector<std::uint8_t>{}));
  std::uintmax_t scan_bytes_locked() const;
  void evict_over_budget_locked(const std::filesystem::path& keep);
  void reject_locked(const std::filesystem::path& path,
                     const std::vector<std::uint8_t>& bad_bytes);

  std::filesystem::path dir_;
  StoreOptions options_;
  /// Advisory cross-process lock serializing the eviction sweep (see the
  /// file comment); created after the directory exists, null only when the
  /// lock file cannot be opened (sweeps then run unlocked, as before).
  std::unique_ptr<util::FileLock> dir_lock_;
  mutable std::mutex mu_;
  StoreStats stats_;
  /// Running estimate of the directory's record bytes (guarded by mu_):
  /// seeded by one scan at construction, advanced on every put, re-synced
  /// to the exact total whenever an eviction pass scans. Keeps put() from
  /// stat-ing the whole directory under the lock while below budget; it
  /// may lag other processes' writes, but each writer enforces the budget
  /// on its own puts, so the directory still converges under it.
  mutable std::uintmax_t bytes_estimate_ = 0;
  /// Uniquifies temp names across this store's concurrent writers (record
  /// writes run outside mu_; pid alone only separates processes).
  std::atomic<std::uint64_t> tmp_serial_{0};
};

using StorePtr = std::shared_ptr<ArtifactStore>;

// ------------------------------------------------------------ identities

/// Key of the routing artifact a session computes for `options` over
/// `problem`: problem fingerprint + routing profile, `threads` excluded
/// (it never changes output). FlowSession files its in-memory caches
/// under these same four keys.
std::uint64_t routing_key(const gsino::RoutingProblem& problem,
                          const router::IdRouterOptions& options);

/// Key of a budget artifact. The routed-length (iSINO) rule keys on the
/// routing_key() of `phase1`, the artifact it budgets from; the Manhattan
/// rules are routing-independent and ignore it (it may be null).
std::uint64_t budget_key(const gsino::RoutingProblem& problem,
                         gsino::BudgetRule rule, double bound_v, double margin,
                         const gsino::RoutingArtifact* phase1);

/// Key of a Phase II region-solve artifact over the keys of the routing
/// and budget artifacts it solves; a routed-length budget is keyed by its
/// own `phase1`, not by the solve's routing.
std::uint64_t solve_key(const gsino::RoutingProblem& problem,
                        gsino::FlowKind kind, bool annealed,
                        const gsino::RoutingArtifact& phase1,
                        const gsino::BudgetArtifact& budget);

/// Key of a Phase III refine artifact over the solve_key() it refines (no
/// Phase III option changes output).
std::uint64_t refine_key(const gsino::RoutingProblem& problem,
                         std::uint64_t solve);

}  // namespace rlcr::store
