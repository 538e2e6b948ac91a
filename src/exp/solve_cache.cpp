#include "exp/solve_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "exp/parameter.hpp"
#include "io/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "qn/robust.hpp"
#include "util/error.hpp"

namespace latol::exp {

namespace {

// Bumped to -2 when MmsPerformance grew invariant errors and the residual
// history; to -3 when open/mixed workloads added open_latency/open_util to
// the payload and lam0/method to the key; to -4 when persistence split
// into an index plus one file per cache shard. The entry schema is
// unchanged since -3, so a single-shard cache keeps writing the -3
// inline-entries layout (one self-contained file — what `latol serve`
// flushes) and load() accepts either layout at `path`.
// Keys moved to the field table's names (`topology=` for `topo=`) with no
// bump: files of another build are ignored by version anyway, and no old
// key equals a new one. Both layouts moved on (inline -5, sharded -6, so
// neither string names an older file of the other layout) when symmetric
// and p_remote = 0 points began solving class 0 alone: their numbers
// moved in the last bits, and the version gate cannot see that:
// build_version() is `unknown` outside git, and a configure-time `-dirty`
// string survives rebuilds. They moved again (inline -7, sharded -8) when
// meshes and tori with a hotspot began solving one class per symmetry
// orbit, for the same reason.
constexpr const char* kCacheFormat = "latol-solve-cache-8";
constexpr const char* kInlineCacheFormat = "latol-solve-cache-7";

// Routing hash for shard selection. Only load balance depends on it —
// correctness never does (keys are compared as full strings within a
// shard), so FNV-1a's speed/quality trade-off is exactly right here.
std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

qn::SolverKind solver_kind_from_name(const std::string& name) {
  for (const qn::SolverKind kind :
       {qn::SolverKind::kAmva, qn::SolverKind::kLinearizer,
        qn::SolverKind::kExactMva, qn::SolverKind::kBounds,
        qn::SolverKind::kFesc}) {
    if (name == qn::solver_kind_name(kind)) return kind;
  }
  throw InvalidArgument("unknown solver kind `" + name + "` in cache");
}

io::Json perf_to_json(const core::MmsPerformance& p) {
  io::Json o = io::Json::object();
  for (const Measure& m : measures()) o.set(m.name, p.*m.member);
  o.set("iterations", static_cast<double>(p.solver_iterations));
  o.set("converged", p.converged);
  o.set("solver", qn::solver_kind_name(p.solver));
  o.set("degraded", p.degraded);
  io::Json history = io::Json::array();
  for (const double d : p.residual_history) history.push_back(d);
  o.set("residual_history", std::move(history));
  return o;
}

core::MmsPerformance perf_from_json(const io::Json& o) {
  const auto member = [&](const char* key) -> const io::Json& {
    const io::Json* v = o.find(key);
    if (v == nullptr) {
      throw InvalidArgument(std::string("cache entry missing `") + key + "`");
    }
    return *v;
  };
  core::MmsPerformance p;
  for (const Measure& m : measures()) p.*m.member = member(m.name).as_number();
  p.solver_iterations = static_cast<long>(member("iterations").as_number());
  p.converged = member("converged").as_bool();
  p.solver = solver_kind_from_name(member("solver").as_string());
  p.degraded = member("degraded").as_bool();
  for (const io::Json& d : member("residual_history").as_array())
    p.residual_history.push_back(d.as_number());
  return p;
}

std::shared_future<core::MmsPerformance> ready_future(
    core::MmsPerformance perf) {
  std::promise<core::MmsPerformance> promise;
  promise.set_value(std::move(perf));
  return promise.get_future().share();
}

// True when `doc` carries the current format generation and the caller's
// build version; anything else is silently skipped (a stale cache is
// expected, not corrupt).
bool format_and_version_match(const io::Json& doc,
                              const std::string& version) {
  const io::Json* format = doc.find("format");
  const io::Json* file_version = doc.find("version");
  return format != nullptr && format->is_string() &&
         format->as_string() == kCacheFormat && file_version != nullptr &&
         file_version->is_string() && file_version->as_string() == version;
}

}  // namespace

SolveCache::SolveCache(std::size_t shards) {
  const std::size_t count = shards == 0 ? 1 : shards;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

SolveCache::Shard& SolveCache::shard_for(const std::string& key) {
  return *shards_[fnv1a64(key) % shards_.size()];
}

std::size_t SolveCache::per_shard_capacity() const {
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  if (capacity == 0) return 0;
  return (capacity + shards_.size() - 1) / shards_.size();
}

std::string SolveCache::config_key(const core::MmsConfig& config,
                                   const qn::AmvaOptions& options,
                                   core::SolveMethod method) {
  const auto num = io::json_number;  // shortest round trip = injective
  std::string key;
  key.reserve(512);
  for (const ConfigField& field : config_fields()) {
    key += field.name;
    key += '=';
    append_value(key, field, config);
    key += ';';
  }
  key += "|method=";
  key += core::solve_method_name(method);
  key += ";tol=" + num(options.tolerance);
  key += ";iters=" + std::to_string(options.max_iterations);
  key += ";damp=" + num(options.damping);
  key += ";divf=" + num(options.divergence_factor);
  key += ";divw=" + std::to_string(options.divergence_window);
  key += ";trace=" + std::to_string(options.record_trace ? 1 : 0);
  return key;
}

core::MmsPerformance SolveCache::analyze(const core::MmsConfig& config,
                                         const qn::AmvaOptions& options,
                                         bool* was_hit,
                                         core::SolveMethod method) {
  const std::string key = config_key(config, options, method);
  Shard& shard = shard_for(key);
  std::shared_future<core::MmsPerformance> future;
  std::promise<core::MmsPerformance> promise;
  bool compute = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      compute = true;
      future = promise.get_future().share();
      shard.entries.emplace(key, future);
      shard.insertion_order.push_back(key);
      evict_over_capacity_locked(shard);
    } else {
      future = it->second;
    }
  }
  if (was_hit != nullptr) *was_hit = !compute;
  if (compute) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::count("cache.misses");
    obs::instant("cache.miss", "exp");
    bool transient_failure = false;
    try {
      core::AnalysisOptions opts;
      opts.amva = options;
      opts.method = method;
      promise.set_value(core::analyze(config, opts));
    } catch (const qn::SolverError& e) {
      // A deadline is a property of THIS caller's patience, not of the
      // configuration — caching it would poison every future lookup of a
      // perfectly solvable point. Waiters coalesced onto this solve still
      // see the exception; the entry is then dropped so the next caller
      // recomputes.
      transient_failure = e.code() == qn::SolverErrorCode::kDeadlineExceeded;
      promise.set_exception(std::current_exception());
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
    if (transient_failure) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.entries.erase(key);
    }
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    obs::count("cache.hits");
    obs::instant("cache.hit", "exp");
  }
  return future.get();
}

std::size_t SolveCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

void SolveCache::set_capacity(std::size_t capacity) {
  capacity_.store(capacity, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    evict_over_capacity_locked(*shard);
  }
}

void SolveCache::evict_over_capacity_locked(Shard& shard) {
  const std::size_t capacity = per_shard_capacity();
  if (capacity == 0 || shard.entries.size() <= capacity) return;
  // Oldest-first scan; in-flight entries are kept (later duplicates must
  // coalesce onto them) and re-queued in their original order.
  std::deque<std::string> in_flight;
  while (!shard.insertion_order.empty() &&
         shard.entries.size() > capacity) {
    std::string key = std::move(shard.insertion_order.front());
    shard.insertion_order.pop_front();
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) continue;  // stale order entry
    if (it->second.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      in_flight.push_back(std::move(key));
      continue;
    }
    shard.entries.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::count("cache.evictions");
    obs::instant("cache.evict", "exp");
  }
  while (!in_flight.empty()) {
    shard.insertion_order.push_front(std::move(in_flight.back()));
    in_flight.pop_back();
  }
}

std::size_t SolveCache::load(const std::string& path,
                             const std::string& version,
                             std::string* warning) {
  {
    const std::ifstream probe(path);
    if (!probe.good()) return 0;  // no cache yet — a cold run
  }
  // Quarantine rather than abort: a cache is an optimization, so any kind
  // of corruption (truncated write from a killed process, disk damage,
  // hand editing) must degrade to a cold run. The bad file is moved aside
  // so the next save() does not have to overwrite evidence. Quarantine is
  // per file: one damaged shard file loses 1/N of the cache, not all of
  // it.
  const auto quarantine = [&](const std::string& file,
                              const std::string& why) {
    const std::string moved = file + ".corrupt";
    std::error_code ec;
    std::filesystem::rename(file, moved, ec);
    if (warning != nullptr) {
      if (!warning->empty()) *warning += "; ";
      *warning += "ignoring corrupt solve cache `" + file + "` (" + why +
                  (ec ? ")" : "); moved to `" + moved + "`");
    }
  };
  // Convert a parsed cache document's `entries` into a staging area;
  // nothing becomes visible unless the whole document proves well-formed
  // (all-or-nothing per file). Throws InvalidArgument on malformation.
  const auto stage_entries = [](const io::Json& doc) {
    std::vector<std::pair<std::string, core::MmsPerformance>> staged;
    const io::Json* entries = doc.find("entries");
    if (entries == nullptr || !entries->is_array()) {
      throw InvalidArgument("cache file missing `entries`");
    }
    staged.reserve(entries->as_array().size());
    for (const io::Json& entry : entries->as_array()) {
      const io::Json* key = entry.find("key");
      const io::Json* perf = entry.find("perf");
      if (key == nullptr || !key->is_string() || perf == nullptr) {
        throw InvalidArgument("malformed cache entry");
      }
      staged.emplace_back(key->as_string(), perf_from_json(*perf));
    }
    return staged;
  };
  // Route by key hash, not by source file: a cache saved with a different
  // shard count still lands every key on the shard that analyze() will
  // probe.
  std::size_t loaded = 0;
  const auto ingest =
      [&](std::vector<std::pair<std::string, core::MmsPerformance>>&&
              staged) {
        for (auto& [key, perf] : staged) {
          Shard& shard = shard_for(key);
          const std::lock_guard<std::mutex> lock(shard.mutex);
          if (shard.entries.emplace(key, ready_future(std::move(perf)))
                  .second) {
            shard.insertion_order.push_back(key);
            ++loaded;
          }
        }
      };
  // `path` is either a sharded index naming per-shard files (format -6)
  // or a self-contained inline-entries file (format -5, what a
  // single-shard cache writes); anything else is left alone.
  std::vector<std::string> shard_files;
  try {
    const io::Json doc = io::parse_json_file(path);
    const io::Json* format = doc.find("format");
    if (format == nullptr || !format->is_string()) {
      return 0;  // unrecognized file — leave it alone
    }
    if (format->as_string() == kInlineCacheFormat) {
      const io::Json* file_version = doc.find("version");
      if (file_version == nullptr || !file_version->is_string() ||
          file_version->as_string() != version) {
        return 0;  // stale build: cached numbers may no longer reproduce
      }
      ingest(stage_entries(doc));
      for (const auto& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        evict_over_capacity_locked(*shard);
      }
      return loaded;
    }
    if (format->as_string() != kCacheFormat) {
      return 0;  // unrecognized file — leave it alone
    }
    if (!format_and_version_match(doc, version)) {
      return 0;  // stale build: cached numbers may no longer reproduce
    }
    const io::Json* files = doc.find("files");
    if (files == nullptr || !files->is_array()) {
      throw InvalidArgument("cache index missing `files`");
    }
    const std::filesystem::path dir =
        std::filesystem::path(path).parent_path();
    shard_files.reserve(files->as_array().size());
    for (const io::Json& file : files->as_array()) {
      if (!file.is_string()) {
        throw InvalidArgument("malformed cache index `files` entry");
      }
      shard_files.push_back((dir / file.as_string()).string());
    }
  } catch (const InvalidArgument& e) {  // includes JsonParseError
    quarantine(path, e.what());
    return 0;
  }
  for (const std::string& file : shard_files) {
    {
      const std::ifstream probe(file);
      if (!probe.good()) continue;  // deleted shard file: that slice is cold
    }
    std::vector<std::pair<std::string, core::MmsPerformance>> staged;
    try {
      const io::Json doc = io::parse_json_file(file);
      if (!format_and_version_match(doc, version)) continue;
      staged = stage_entries(doc);
    } catch (const InvalidArgument& e) {
      quarantine(file, e.what());
      continue;
    }
    ingest(std::move(staged));
  }
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    evict_over_capacity_locked(*shard);
  }
  return loaded;
}

void SolveCache::save(const std::string& path,
                      const std::string& version) const {
  // A single-shard cache stays one self-contained file (the pre-shard
  // inline layout): `latol serve` flushes exactly one artifact, and the
  // file round-trips with caches written before sharding existed. The
  // index-plus-files layout only pays off with N > 1 writers' worth of
  // entries.
  io::Json files = io::Json::array();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const bool inline_layout = shards_.size() == 1;
    const std::string file =
        inline_layout ? path : path + ".shard" + std::to_string(i);
    io::Json entries = io::Json::array();
    {
      const Shard& shard = *shards_[i];
      const std::lock_guard<std::mutex> lock(shard.mutex);
      // Sort keys so each file is deterministic for a given content.
      std::vector<const std::string*> keys;
      keys.reserve(shard.entries.size());
      for (const auto& [key, future] : shard.entries) keys.push_back(&key);
      std::sort(keys.begin(), keys.end(),
                [](const std::string* a, const std::string* b) {
                  return *a < *b;
                });
      for (const std::string* key : keys) {
        const auto& future = shard.entries.at(*key);
        if (future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          continue;  // still computing (save during a run): skip
        }
        core::MmsPerformance perf;
        try {
          perf = future.get();
        } catch (...) {
          continue;  // failures are recomputed, not persisted
        }
        io::Json entry = io::Json::object();
        entry.set("key", *key);
        entry.set("perf", perf_to_json(perf));
        entries.push_back(std::move(entry));
      }
    }
    io::Json doc = io::Json::object();
    doc.set("format", inline_layout ? kInlineCacheFormat : kCacheFormat);
    doc.set("version", version);
    if (!inline_layout) doc.set("shard", static_cast<double>(i));
    doc.set("entries", std::move(entries));
    io::write_json_file(file, doc, 1);
    files.push_back(std::filesystem::path(file).filename().string());
  }
  if (shards_.size() == 1) return;  // inline layout: no index
  // The index goes last: a crash before this point leaves the previous
  // index in place, still naming a consistent (if stale) set of files.
  io::Json index = io::Json::object();
  index.set("format", kCacheFormat);
  index.set("version", version);
  index.set("shards", static_cast<double>(shards_.size()));
  index.set("files", std::move(files));
  io::write_json_file(path, index, 1);
}

}  // namespace latol::exp
