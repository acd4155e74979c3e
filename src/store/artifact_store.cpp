#include "store/artifact_store.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "util/file_lock.h"
#include "util/hash.h"

namespace rlcr::store {

namespace fs = std::filesystem;

namespace {

constexpr const char* kRecordPrefix = "art-";
constexpr const char* kRecordSuffix = ".bin";

const char* type_tag(ArtifactType type) {
  switch (type) {
    case ArtifactType::kRouting:
      return "r";
    case ArtifactType::kBudget:
      return "b";
    case ArtifactType::kRegionSolve:
      return "s";
    case ArtifactType::kRefine:
      return "f";
  }
  return "x";
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

bool is_record(const fs::directory_entry& entry) {
  if (!entry.is_regular_file()) return false;
  const std::string name = entry.path().filename().string();
  return name.starts_with(kRecordPrefix) && name.ends_with(kRecordSuffix);
}

}  // namespace

ArtifactStore::ArtifactStore(fs::path dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (!fs::is_directory(dir_, ec)) {
    throw std::runtime_error("ArtifactStore: cannot create store directory " +
                             dir_.string());
  }
  // Sweep temp files orphaned by crashed writers (killed between write and
  // rename). They are invisible to is_record() and so to the LRU budget;
  // without this they accumulate forever. The age guard keeps us off a
  // live writer's in-flight temp file.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::error_code fec;
    if (!entry.is_regular_file(fec)) continue;
    if (entry.path().filename().string().find(".tmp.") == std::string::npos) {
      continue;
    }
    const auto age = fs::file_time_type::clock::now() - entry.last_write_time(fec);
    if (!fec && age > std::chrono::minutes(10)) fs::remove(entry.path(), fec);
  }
  dir_lock_ = std::make_unique<util::FileLock>(dir_ / ".lock");
  if (!dir_lock_->valid()) dir_lock_.reset();
  bytes_estimate_ = scan_bytes_locked();
}

ArtifactStore::~ArtifactStore() = default;

std::uintmax_t ArtifactStore::scan_bytes_locked() const {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!is_record(entry)) continue;
    std::error_code sec;
    const std::uintmax_t size = entry.file_size(sec);
    if (!sec) total += size;
  }
  return total;
}

fs::path ArtifactStore::path_of(ArtifactType type, std::uint64_t key) const {
  return dir_ / (std::string(kRecordPrefix) + type_tag(type) + "-" +
                 hex16(key) + kRecordSuffix);
}

StoreStats ArtifactStore::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uintmax_t ArtifactStore::bytes_on_disk() const {
  const std::lock_guard<std::mutex> lock(mu_);
  bytes_estimate_ = scan_bytes_locked();
  return bytes_estimate_;
}

bool ArtifactStore::put(ArtifactType type, std::uint64_t key,
                        const std::vector<std::uint8_t>& bytes) {
  RLCR_TRACE_SPAN(span, "store.put", "store");
  span.arg("bytes", static_cast<double>(bytes.size()));
  const fs::path final_path = path_of(type, key);
  std::error_code ec;
  if (fs::exists(final_path, ec)) {
    // Content-addressed: an existing record for this key holds identical
    // bytes (or a concurrent writer's identical bytes). Refresh recency
    // instead of rewriting — unless the record vanished under a
    // concurrent evictor between the check and the touch, in which case
    // fall through and publish fresh bytes.
    std::error_code touch_ec;
    fs::last_write_time(final_path, fs::file_time_type::clock::now(),
                        touch_ec);
    if (!touch_ec) return true;
  }

  // The multi-megabyte record write runs OUTSIDE the lock — only the
  // publish (rename) and the bookkeeping need it, so concurrent sessions'
  // gets never stall behind a writer. The temp name is unique per
  // (process, call), so concurrent writers never share a temp file, and
  // concurrent publishes of one key resolve to one winner with identical
  // content either way.
  const fs::path tmp_path =
      dir_ / (final_path.filename().string() + ".tmp." +
              std::to_string(static_cast<long>(::getpid())) + "." +
              std::to_string(tmp_serial_.fetch_add(1, std::memory_order_relaxed)));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.put_failures;
      return false;
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      out.close();
      fs::remove(tmp_path, ec);
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.put_failures;
      return false;
    }
  }

  const std::lock_guard<std::mutex> lock(mu_);
  if (fs::exists(final_path, ec)) {
    // Lost the publish race to a concurrent writer of the same key.
    fs::remove(tmp_path, ec);
    fs::last_write_time(final_path, fs::file_time_type::clock::now(), ec);
    return true;
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    ++stats_.put_failures;
    return false;
  }
  ++stats_.stores;
  stats_.bytes_written += bytes.size();
  bytes_estimate_ += bytes.size();
  // The estimate makes the common under-budget put O(1); only a put that
  // crosses the budget pays for a directory scan (which re-syncs it).
  if (options_.max_bytes != 0 && bytes_estimate_ > options_.max_bytes) {
    evict_over_budget_locked(final_path);
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> ArtifactStore::get(
    ArtifactType type, std::uint64_t key) {
  RLCR_TRACE_SPAN(span, "store.get", "store");
  // Like put(), the multi-megabyte record read runs OUTSIDE the lock —
  // concurrent readers never queue on one another. A record vanishing
  // mid-read (a concurrent evictor) just reads short and counts a miss;
  // the open fd keeps partially read bytes consistent on POSIX, and frame
  // validation in the typed loaders rejects anything torn.
  const fs::path path = path_of(type, key);
  bool read_ok = false;
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      in.seekg(0, std::ios::end);
      const std::streamoff size = in.tellg();
      if (size >= 0) {
        bytes.resize(static_cast<std::size_t>(size));
        in.seekg(0, std::ios::beg);
        in.read(reinterpret_cast<char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        read_ok = static_cast<bool>(in);
      }
    }
  }

  const std::lock_guard<std::mutex> lock(mu_);
  if (!read_ok) {
    ++stats_.misses;
    return std::nullopt;
  }
  // Touch for LRU recency; frame validation happens in the typed loaders.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  ++stats_.hits;
  stats_.bytes_read += bytes.size();
  span.arg("bytes", static_cast<double>(bytes.size()));
  return bytes;
}

void ArtifactStore::reject_locked(const fs::path& path,
                                  const std::vector<std::uint8_t>& bad_bytes) {
  // A record that failed validation will never load; drop it so the slot
  // is republished with fresh bytes. The earlier raw hit is compensated.
  // Validation ran outside the lock, so the file may have been replaced
  // since we read it (another thread rejected first and already
  // republished a valid record at this path) — delete only if the bytes
  // on disk are still the bytes that failed.
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::vector<std::uint8_t> current(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (current == bad_bytes) {
      std::error_code ec;
      if (fs::remove(path, ec)) {
        bytes_estimate_ -= std::min<std::uintmax_t>(bytes_estimate_,
                                                    bad_bytes.size());
      }
    }
  }
  ++stats_.rejected;
  ++stats_.misses;
  --stats_.hits;
}

void ArtifactStore::evict_over_budget_locked(const fs::path& keep) {
  if (options_.max_bytes == 0) return;
  RLCR_TRACE_SPAN(span, "store.evict", "store");
  // One evictor per directory at a time: another process (or another
  // ArtifactStore on the same directory) mid-sweep would race this scan
  // into double-counted deletions and a drifted estimate. In-process
  // callers are already serialized by mu_, so the flock only ever waits
  // on a *different* store instance.
  const bool locked = dir_lock_ != nullptr;
  if (locked && !dir_lock_->try_lock()) {
    ++stats_.lock_waits;
    dir_lock_->lock();
  }
  struct Record {
    fs::path path;
    fs::file_time_type mtime;
    std::uintmax_t size;
  };
  std::vector<Record> records;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!is_record(entry)) continue;
    std::error_code sec, tec;
    const std::uintmax_t size = entry.file_size(sec);
    const fs::file_time_type mtime = entry.last_write_time(tec);
    if (sec || tec) continue;  // vanished under a concurrent evictor
    records.push_back(Record{entry.path(), mtime, size});
    total += size;
  }
  if (total <= options_.max_bytes) {
    bytes_estimate_ = total;  // re-sync: the estimate had drifted high
    if (locked) dir_lock_->unlock();
    return;
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.mtime < b.mtime; });
  for (const Record& rec : records) {
    if (total <= options_.max_bytes) break;
    if (rec.path == keep) continue;  // never evict the record just written
    std::error_code rec_ec;
    if (fs::remove(rec.path, rec_ec)) {
      total -= rec.size;
      ++stats_.evictions;
    }
  }
  bytes_estimate_ = total;
  if (locked) dir_lock_->unlock();
}

// --------------------------------------------------------------- typed IO

bool ArtifactStore::touch_existing(ArtifactType type, std::uint64_t key) {
  // Content-addressed fast path for the typed puts: when the record is
  // already on disk (a concurrent session won the publish race), skip the
  // multi-megabyte serialization entirely and just refresh recency. A
  // record vanishing between the check and the touch falls back to a full
  // publish.
  const fs::path path = path_of(type, key);
  std::error_code ec;
  if (!fs::exists(path, ec)) return false;
  std::error_code touch_ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), touch_ec);
  return !touch_ec;
}

void ArtifactStore::put_routing(std::uint64_t key,
                                const gsino::RoutingArtifact& art) {
  if (touch_existing(ArtifactType::kRouting, key)) return;
  put(ArtifactType::kRouting, key, save(art));
}

std::shared_ptr<const gsino::RoutingArtifact> ArtifactStore::get_routing(
    std::uint64_t key, const gsino::RoutingProblem& problem) {
  auto bytes = get(ArtifactType::kRouting, key);
  if (!bytes) return nullptr;
  auto art = load_routing(*bytes, problem);
  if (art == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    reject_locked(path_of(ArtifactType::kRouting, key), *bytes);
  }
  return art;
}

void ArtifactStore::put_budget(std::uint64_t key,
                               const gsino::BudgetArtifact& art) {
  if (touch_existing(ArtifactType::kBudget, key)) return;
  put(ArtifactType::kBudget, key, save(art));
}

std::shared_ptr<const gsino::BudgetArtifact> ArtifactStore::get_budget(
    std::uint64_t key, const gsino::RoutingProblem& problem) {
  auto bytes = get(ArtifactType::kBudget, key);
  if (!bytes) return nullptr;
  auto art = load_budget(*bytes, problem);
  if (art == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    reject_locked(path_of(ArtifactType::kBudget, key), *bytes);
  }
  return art;
}

void ArtifactStore::put_region_solve(std::uint64_t key,
                                     const gsino::RegionSolveArtifact& art) {
  if (touch_existing(ArtifactType::kRegionSolve, key)) return;
  put(ArtifactType::kRegionSolve, key, save(art));
}

std::shared_ptr<const gsino::RegionSolveArtifact>
ArtifactStore::get_region_solve(
    std::uint64_t key, const gsino::RoutingProblem& problem,
    std::shared_ptr<const gsino::RoutingArtifact> phase1,
    std::shared_ptr<const gsino::BudgetArtifact> budget) {
  auto bytes = get(ArtifactType::kRegionSolve, key);
  if (!bytes) return nullptr;
  auto art = load_region_solve(*bytes, problem, std::move(phase1),
                               std::move(budget));
  if (art == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    reject_locked(path_of(ArtifactType::kRegionSolve, key), *bytes);
  }
  return art;
}

void ArtifactStore::put_refine(std::uint64_t key,
                               const gsino::RefineArtifact& art) {
  if (touch_existing(ArtifactType::kRefine, key)) return;
  put(ArtifactType::kRefine, key, save(art));
}

std::shared_ptr<const gsino::RefineArtifact> ArtifactStore::get_refine(
    std::uint64_t key, const gsino::RoutingProblem& problem,
    std::shared_ptr<const gsino::RegionSolveArtifact> base) {
  auto bytes = get(ArtifactType::kRefine, key);
  if (!bytes) return nullptr;
  auto art = load_refine(*bytes, problem, std::move(base));
  if (art == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    reject_locked(path_of(ArtifactType::kRefine, key), *bytes);
  }
  return art;
}

// ------------------------------------------------------------ identities

namespace {

// Per-type key mixers for IdRouterOptions::profile_tie() — like the
// serial.cpp codecs, the field list lives in id_router.h only.
void hash_field(util::Fnv1a64& h, double v) { h.f64(v); }
void hash_field(util::Fnv1a64& h, bool v) { h.boolean(v); }
void hash_field(util::Fnv1a64& h, std::size_t v) { h.u64(v); }
void hash_field(util::Fnv1a64& h, std::int32_t v) { h.i32(v); }

}  // namespace

std::uint64_t routing_key(const gsino::RoutingProblem& problem,
                          const router::IdRouterOptions& options) {
  util::Fnv1a64 h;
  h.str("routing/v1");
  h.u64(problem.fingerprint());
  // The profile identity is profile_tie() — the same field list the
  // session's in-memory cache compares; `threads` is excluded there.
  std::apply([&](const auto&... field) { (hash_field(h, field), ...); },
             options.profile_tie());
  return h.value();
}

std::uint64_t budget_key(const gsino::RoutingProblem& problem,
                         gsino::BudgetRule rule, double bound_v, double margin,
                         std::uint64_t routing) {
  util::Fnv1a64 h;
  h.str("budget/v1");
  h.u64(problem.fingerprint());
  h.u8(static_cast<std::uint8_t>(rule));
  h.f64(bound_v).f64(margin);
  h.u64(routing);
  return h.value();
}

std::uint64_t solve_key(const gsino::RoutingProblem& problem,
                        gsino::FlowKind kind, bool annealed,
                        std::uint64_t routing, std::uint64_t budget) {
  util::Fnv1a64 h;
  h.str("solve/v1");
  h.u64(problem.fingerprint());
  h.u8(static_cast<std::uint8_t>(kind));
  h.boolean(annealed);
  h.i32(problem.params().anneal_iterations);  // anneal stream length
  h.u64(routing);
  h.u64(budget);
  return h.value();
}

std::uint64_t refine_key(const gsino::RoutingProblem& problem,
                         std::uint64_t solve) {
  util::Fnv1a64 h;
  h.str("refine/v1");
  h.u64(problem.fingerprint());
  h.u64(solve);
  return h.value();
}

}  // namespace rlcr::store
