#ifndef OPINEDB_CORE_DEGREE_CACHE_H_
#define OPINEDB_CORE_DEGREE_CACHE_H_

#include <atomic>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "core/engine.h"

namespace opinedb::core {

/// Degree-of-truth cache (Section 3.3): "the degrees of truth for
/// variations in the linguistic domain of each subjective attribute can
/// be pre-computed so that they can simply be looked up at query time.
/// [Degrees for other phrases], once computed, can also be indexed."
///
/// A DegreeCache materializes, per predicate, the dense list of degrees
/// of truth over all entities; an attached cache serves those lists to
/// every query plan in place of per-query scoring.
///
/// Thread safety: every method except Clear() may be called from any
/// number of threads concurrently. The cache is sharded by predicate
/// hash; lookups take a shard's shared lock, insertions its exclusive
/// lock, and degrees are computed outside all locks (losing an insert
/// race is harmless — the computation is deterministic, so both values
/// are bit-identical). References returned by Degrees() stay valid until
/// Clear() or RefreshAfterIngest(): the shard maps are node-based and
/// entries are never erased by the read path. Clear() and
/// RefreshAfterIngest() require external synchronization (no concurrent
/// readers and no outstanding references) — the engine provides it with
/// its exclusive reconfiguration lock.
class DegreeCache {
 public:
  /// Cumulative cache traffic, for observability.
  struct CacheStats {
    size_t hits = 0;
    size_t misses = 0;
  };

  explicit DegreeCache(const OpineDb* db);

  /// Per-entity degrees for `predicate`; computed once (in parallel over
  /// entities when the engine has a pool), then served from the cache.
  const std::vector<double>& Degrees(const std::string& predicate);

  /// Deadline-aware variant: returns the resident list, or computes it
  /// if the deadline has not expired. Returns nullptr when the deadline
  /// expired before or during the computation — a partially computed
  /// list is discarded, never cached, so the cache only ever holds
  /// complete bit-exact lists.
  const std::vector<double>* TryDegrees(const std::string& predicate,
                                        const QueryDeadline* deadline);

  /// Pre-computes the degrees for every marker phrase of every
  /// subjective attribute (the "variations in the linguistic domain"
  /// precomputation); returns the number of lists materialized. Markers
  /// fan out across the engine's worker pool.
  size_t PrecomputeMarkers();

  /// Ingest-path maintenance (instead of Clear()): brings every
  /// resident list up to date with the engine's post-ingest tables
  /// while keeping untouched entities' slots — and therefore the warm
  /// working set — intact. Per entry: the predicate is re-interpreted;
  /// if the interpretation is unchanged only `touched` entities are
  /// rescored (ingest is additive, so untouched slots are already
  /// bit-exact); if it changed (the variation table or idf grew) the
  /// whole list is recomputed; if it degraded the entry is dropped.
  /// Requires the same external exclusion as Clear().
  /// Returns the number of entries refreshed in place.
  size_t RefreshAfterIngest(const std::vector<text::EntityId>& touched);

  bool Contains(const std::string& predicate) const;
  size_t size() const;
  /// Drops every cached list. NOT safe concurrently with other methods;
  /// invalidates all references previously returned by Degrees().
  /// OpineDb::Reaggregate calls this under the engine's reconfiguration
  /// lock, which provides exactly that exclusion, and bumps
  /// OpineDb::cache_epoch() alongside.
  void Clear();
  /// Hit/miss counters (monotone; Clear() does not reset them).
  CacheStats stats() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

 private:
  /// A resident degree list plus the interpretation it was computed
  /// from — RefreshAfterIngest compares against a fresh interpretation
  /// to decide between touched-slot patching and full recomputation.
  struct CachedList {
    std::vector<double> degrees;
    PredicateInterpretation interpretation;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, CachedList> map;
  };

  const Shard& ShardFor(const std::string& predicate) const;
  Shard& ShardFor(const std::string& predicate) {
    return const_cast<Shard&>(
        static_cast<const DegreeCache*>(this)->ShardFor(predicate));
  }

  /// Computes the dense degree list for one predicate (no locks held).
  /// Returns nullopt when `deadline` expired before every entity was
  /// scored (the incomplete list must not be cached).
  std::optional<CachedList> ComputeDegrees(
      const std::string& predicate, const QueryDeadline* deadline) const;

  /// Lock-striping width for concurrent serving.
  static constexpr size_t kNumShards = 16;

  const OpineDb* db_;
  /// Sized once at construction; never resized (references into shard
  /// maps must stay valid until Clear()).
  std::vector<Shard> shards_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_DEGREE_CACHE_H_
