// Content-addressed cache of model solves.
//
// A scenario grid routinely solves the same configuration many times: the
// ideal system of a tolerance index (p_remote = 0) is shared by every
// grid point that only varies p_remote, and overlapping axes or repeated
// runs hit identical points outright. The cache keys each solve by a
// canonical serialization of (MmsConfig, AmvaOptions) — collision-free by
// construction, no hash trust required — and memoizes the resulting
// MmsPerformance, including its solver provenance (solver, converged,
// degraded, residual), so a cached answer is indistinguishable from a
// fresh one.
//
// Concurrency: the store is split into N independently locked shards
// (keys routed by FNV-1a hash), so misses on distinct keys from many
// workers never serialize on one mutex. Within a shard the first caller
// of a key computes inline while later callers block on a shared future,
// so every duplicate is coalesced into one solve even mid-flight. Solvers
// are deterministic, which keeps results bitwise identical regardless of
// worker count or arrival order.
//
// Persistence: load()/save() round-trip the cache through a JSON index
// file plus one JSON file per shard, all keyed by a build version string;
// files written by a different build are ignored wholesale (model changes
// must invalidate old numbers). Doubles are serialized in shortest
// round-trip form, so a warmed run reproduces the cold run byte-for-byte.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mms_model.hpp"
#include "qn/mva_approx.hpp"

namespace latol::exp {

/// Content-addressed store of solved points, keyed by the full
/// MmsConfig + solver options (DESIGN.md §8). In-memory with optional
/// JSON persistence so repeated `latol run` invocations skip unchanged
/// grid points.
class SolveCache {
 public:
  /// A cache with `shards` independently locked segments (0 is treated
  /// as 1). The default single shard preserves the classic behavior
  /// exactly: one mutex, one global FIFO eviction order. More shards cut
  /// lock contention when many workers look up concurrently (`latol run
  /// --jobs N`); keys are routed by FNV-1a hash so segments fill about
  /// evenly, and eviction is then FIFO per shard rather than global.
  explicit SolveCache(std::size_t shards = 1);
  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Memoized core::analyze with the given solve method. Exceptions are
  /// cached too: every duplicate of a failing configuration rethrows the
  /// original error. When `was_hit` is non-null it is set to whether this
  /// call was served from an existing entry (including coalescing onto an
  /// in-flight solve) — the per-point cache provenance the metrics stream
  /// reports.
  [[nodiscard]] core::MmsPerformance analyze(
      const core::MmsConfig& config, const qn::AmvaOptions& options,
      bool* was_hit = nullptr,
      core::SolveMethod method = core::SolveMethod::kAmva);

  /// Canonical, collision-free cache key for (config, options, method):
  /// one `name=value;` per config_fields() row in table order, values
  /// spelled as scenario JSON spells them (so every MmsConfig field is
  /// in it), then the solve method and the AmvaOptions. Includes
  /// AmvaOptions::record_trace, so traced and untraced solves of the same
  /// configuration never share an entry, and the method, so
  /// AMVA/Linearizer/FESC answers never alias.
  [[nodiscard]] static std::string config_key(
      const core::MmsConfig& config, const qn::AmvaOptions& options,
      core::SolveMethod method = core::SolveMethod::kAmva);

  /// Merge entries from the index file at `path` (written by save()) and
  /// the per-shard files it lists. Silently does nothing when the index
  /// is missing; ignores files whose format generation or version string
  /// differs from `version`. Returns the number of entries loaded.
  ///
  /// A corrupt or truncated file (malformed JSON, malformed entries) is
  /// quarantined instead of aborting the run: that file is renamed to
  /// `<file> + ".corrupt"`, none of its entries are ingested, and when
  /// `warning` is non-null it receives a one-line description — a cache
  /// is an optimization, so losing it degrades to a cold run, never a
  /// crash. Quarantine is per file: one damaged shard file costs 1/N of
  /// the cache, the other shards still load. Ingestion of each file is
  /// all-or-nothing: entries are staged before any becomes visible, so a
  /// bad entry can never leave a half-loaded file.
  ///
  /// Entries are routed to in-memory shards by key hash, not by which
  /// file they came from, so a cache saved with a different shard count
  /// (or loaded into a cache with one) still lands every key on the
  /// shard that analyze() will probe.
  std::size_t load(const std::string& path, const std::string& version,
                   std::string* warning = nullptr);

  /// Write every successful entry to disk for a future load(): one file
  /// per shard at `path + ".shard<i>"` (keys sorted within each file, so
  /// bytes are deterministic for a given content) and an index at `path`
  /// listing them. Failed (exception) entries are not persisted. Each
  /// write is atomic (temp file + rename, see io::write_json_file), so a
  /// crash mid-save leaves the previous files intact; shard files are
  /// written before the index, and unlisted stale shard files from an
  /// earlier save with more shards are simply never read back.
  void save(const std::string& path, const std::string& version) const;

  /// Lookups served from an already-present entry.
  [[nodiscard]] std::size_t hits() const { return hits_.load(); }
  /// Lookups that had to solve.
  [[nodiscard]] std::size_t misses() const { return misses_.load(); }
  /// Entries dropped by the capacity bound since construction.
  [[nodiscard]] std::size_t evictions() const { return evictions_.load(); }
  /// Entries currently in the cache (summed over shards).
  [[nodiscard]] std::size_t size() const;

  /// Number of independently locked segments (>= 1).
  [[nodiscard]] std::size_t shards() const { return shards_.size(); }

  /// Bound the entry count (0 = unlimited, the default). When an insert
  /// pushes a shard past its share of the bound — ceil(capacity/shards),
  /// exactly `capacity` for the default single shard — the oldest
  /// *completed* entries of that shard are dropped FIFO (in-flight solves
  /// are never evicted — later duplicates must still coalesce onto them).
  void set_capacity(std::size_t capacity);

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string,
                       std::shared_future<core::MmsPerformance>>
        entries;
    std::deque<std::string> insertion_order;
  };

  [[nodiscard]] Shard& shard_for(const std::string& key);
  [[nodiscard]] std::size_t per_shard_capacity() const;
  void evict_over_capacity_locked(Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> capacity_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> evictions_{0};
};

}  // namespace latol::exp
