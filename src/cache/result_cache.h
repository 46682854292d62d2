#ifndef OPINEDB_CACHE_RESULT_CACHE_H_
#define OPINEDB_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.h"

namespace opinedb::cache {

/// The cached portion of a QueryResult: the fields that are a pure
/// function of (query, database state at one epoch). The trace and
/// plan_text are per-execution and are rebuilt fresh on a hit; `plan`
/// records the shape that produced the entry at fill time.
struct CachedResult {
  std::vector<core::RankedResult> results;
  std::vector<core::PredicateInterpretation> interpretations;
  core::PlanKind plan = core::PlanKind::kDenseScan;
  size_t watermark = 0;
};

/// Sharded, byte-budgeted LRU over full query results, keyed by the
/// planner's canonical query key (see core::CanonicalQueryKey) plus the
/// engine's cache epoch. The engine clears the cache wholesale on every
/// epoch bump; the per-entry epoch tag makes a stale entry a miss even
/// if a clear raced a reader.
///
/// Sharding: a key lives in shard Fingerprint(key) % kNumShards, each
/// shard owns budget/kNumShards bytes and its own mutex + LRU list, so
/// eviction pressure in one shard never touches entries in another.
/// Entries larger than one shard's budget are never cached. Lookups are
/// exclusive per shard (a hit touches the LRU list) but copy the value
/// out, so no references escape the lock.
class ResultCache {
 public:
  explicit ResultCache(size_t byte_budget);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Copies the cached result for `key` into `*out` and returns true on
  /// an epoch-matching hit (which also moves the entry to the front of
  /// its shard's LRU list).
  bool Lookup(const std::string& key, uint64_t epoch, CachedResult* out);

  /// Inserts (or replaces) the entry for `key`, then evicts from the
  /// shard's LRU tail until the shard is back under budget. Returns the
  /// number of entries evicted (0 when the value was too large to cache
  /// at all).
  size_t Insert(const std::string& key, uint64_t epoch, CachedResult value);

  /// Drops every entry (the wholesale epoch-bump invalidation).
  void Clear();

  size_t size() const;
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t byte_budget() const { return byte_budget_; }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// FNV-1a 64-bit fingerprint of a canonical key — the shard selector,
  /// also exported as the root query span's `query_fingerprint`
  /// attribute so traces of the same logical query correlate.
  static uint64_t Fingerprint(std::string_view key);

  /// The byte charge of one entry (key + results + interpretations +
  /// bookkeeping overhead) used for budget accounting.
  static size_t ApproxBytes(const std::string& key,
                            const CachedResult& value);

 private:
  struct Entry {
    CachedResult value;
    uint64_t epoch = 0;
    size_t bytes = 0;
    /// Position in the shard's LRU list (front = most recent).
    std::list<std::string>::iterator lru_it;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<std::string> lru;
    std::unordered_map<std::string, Entry> map;
    size_t bytes = 0;
  };

  /// Erases `it` from `shard` and updates byte accounting. Requires
  /// shard.mu held.
  void EraseLocked(Shard* shard,
                   std::unordered_map<std::string, Entry>::iterator it);

  static constexpr size_t kNumShards = 8;

  const size_t byte_budget_;
  const size_t shard_budget_;
  /// Sized once at construction; never resized (shards own mutexes).
  std::vector<Shard> shards_;
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace opinedb::cache

#endif  // OPINEDB_CACHE_RESULT_CACHE_H_
