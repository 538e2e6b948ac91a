// Sharded SolveCache: concurrent hit/miss/evict behavior across
// independently locked segments, per-shard persistence (index + shard
// files), per-file quarantine, and shard-count portability — a cache
// saved with N shards must load correctly into a cache with M.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mms_config.hpp"
#include "exp/solve_cache.hpp"
#include "io/json.hpp"

namespace latol::exp {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void remove_cache_files(const std::string& path, std::size_t max_shards = 16) {
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".corrupt");
  for (std::size_t i = 0; i < max_shards; ++i) {
    const std::string shard = path + ".shard" + std::to_string(i);
    std::filesystem::remove(shard);
    std::filesystem::remove(shard + ".corrupt");
  }
}

// Distinct configurations by thread count, so keys spread over shards.
core::MmsConfig config_n(int threads) {
  core::MmsConfig cfg = core::MmsConfig::paper_defaults();
  cfg.k = 2;
  cfg.threads_per_processor = threads;
  return cfg;
}

TEST(ShardedCache, DefaultIsOneShardZeroClampsToOne) {
  EXPECT_EQ(SolveCache().shards(), 1u);
  EXPECT_EQ(SolveCache(0).shards(), 1u);
  EXPECT_EQ(SolveCache(8).shards(), 8u);
}

TEST(ShardedCache, ConcurrentMixedWorkloadCoalescesDuplicates) {
  SolveCache cache(4);
  constexpr int kDistinct = 6;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      // Every worker touches every key, in a different order per worker.
      for (int i = 0; i < kDistinct; ++i) {
        const int n = 1 + (i + t) % kDistinct;
        (void)cache.analyze(config_n(n), {});
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // Duplicates coalesce: exactly one miss (one solve) per distinct key,
  // everything else a hit, however the threads interleaved.
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kDistinct));
  EXPECT_EQ(cache.misses(), static_cast<std::size_t>(kDistinct));
  EXPECT_EQ(cache.hits(),
            static_cast<std::size_t>(kDistinct * (kThreads - 1)));
}

TEST(ShardedCache, CapacityBoundsEachShardAndCountsEvictions) {
  SolveCache cache(2);
  cache.set_capacity(2);  // ceil(2/2) = 1 entry per shard
  for (int n = 1; n <= 6; ++n) (void)cache.analyze(config_n(n), {});
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GE(cache.evictions(), 4u);
}

TEST(ShardedCache, SaveWritesIndexPlusShardFilesLoadRestoresAll) {
  const std::string path = temp_path("latol_cache_sharded.json");
  remove_cache_files(path);
  {
    SolveCache cache(4);
    for (int n = 1; n <= 8; ++n) (void)cache.analyze(config_n(n), {});
    cache.save(path, "v-test");
  }
  // The index lists the shard files that were written next to it.
  const io::Json index = io::parse_json_file(path);
  ASSERT_TRUE(index.contains("files"));
  EXPECT_EQ(index.find("shards")->as_number(), 4.0);
  for (const io::Json& file : index.find("files")->as_array()) {
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(path).parent_path() / file.as_string()));
  }
  SolveCache warmed(4);
  std::string warning;
  EXPECT_EQ(warmed.load(path, "v-test", &warning), 8u);
  EXPECT_TRUE(warning.empty());
  bool hit = false;
  (void)warmed.analyze(config_n(5), {}, &hit);
  EXPECT_TRUE(hit);
  remove_cache_files(path);
}

TEST(ShardedCache, ShardCountMismatchBetweenSaveAndLoadIsHarmless) {
  const std::string path = temp_path("latol_cache_resharded.json");
  remove_cache_files(path);
  {
    SolveCache cache(8);
    for (int n = 1; n <= 8; ++n) (void)cache.analyze(config_n(n), {});
    cache.save(path, "v-test");
  }
  // Entries are routed by key hash on load, not by source file, so a
  // differently sharded (even unsharded) cache still serves every key.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SolveCache warmed(shards);
    EXPECT_EQ(warmed.load(path, "v-test"), 8u);
    for (int n = 1; n <= 8; ++n) {
      bool hit = false;
      (void)warmed.analyze(config_n(n), {}, &hit);
      EXPECT_TRUE(hit) << "shards=" << shards << " n=" << n;
    }
  }
  remove_cache_files(path);
}

TEST(ShardedCache, CorruptShardFileIsQuarantinedOthersStillLoad) {
  const std::string path = temp_path("latol_cache_shardrot.json");
  remove_cache_files(path);
  std::size_t total = 0;
  {
    SolveCache cache(4);
    for (int n = 1; n <= 8; ++n) (void)cache.analyze(config_n(n), {});
    total = cache.size();
    cache.save(path, "v-test");
  }
  // Find a shard file that actually holds entries and truncate it.
  std::string victim;
  std::size_t victim_entries = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string shard = path + ".shard" + std::to_string(i);
    if (!std::filesystem::exists(shard)) continue;
    const io::Json doc = io::parse_json_file(shard);
    const std::size_t n = doc.find("entries")->as_array().size();
    if (n > 0 && victim.empty()) {
      victim = shard;
      victim_entries = n;
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    std::ofstream rot(victim, std::ios::trunc);
    rot << "{\"format\": \"latol-solve-cache-8\", truncated";
  }
  SolveCache warmed(4);
  std::string warning;
  const std::size_t loaded = warmed.load(path, "v-test", &warning);
  // Quarantine is per file: the damaged shard's entries are lost, the
  // rest load; the bad file moved aside so the next load is clean.
  EXPECT_EQ(loaded, total - victim_entries);
  EXPECT_FALSE(warning.empty());
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_TRUE(std::filesystem::exists(victim + ".corrupt"));
  remove_cache_files(path);
}

TEST(ShardedCache, MissingShardFileSkipsSilently) {
  const std::string path = temp_path("latol_cache_shardgone.json");
  remove_cache_files(path);
  {
    SolveCache cache(4);
    for (int n = 1; n <= 8; ++n) (void)cache.analyze(config_n(n), {});
    cache.save(path, "v-test");
  }
  std::string victim;
  for (std::size_t i = 0; i < 4 && victim.empty(); ++i) {
    const std::string shard = path + ".shard" + std::to_string(i);
    if (std::filesystem::exists(shard)) victim = shard;
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::remove(victim);
  SolveCache warmed(4);
  std::string warning;
  const std::size_t loaded = warmed.load(path, "v-test", &warning);
  EXPECT_LT(loaded, 8u);
  EXPECT_TRUE(warning.empty());  // missing = a cold segment, not damage
  remove_cache_files(path);
}

}  // namespace
}  // namespace latol::exp
