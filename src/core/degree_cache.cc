#include "core/degree_cache.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "common/fault.h"
#include "core/columnar.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace opinedb::core {

DegreeCache::DegreeCache(const OpineDb* db, size_t num_shards)
    : db_(db),
      shards_(num_shards > 0
                  ? num_shards
                  : std::max<size_t>(1, db->options().degree_cache_shards)) {}

const DegreeCache::Shard& DegreeCache::ShardFor(
    const std::string& predicate) const {
  return shards_[std::hash<std::string>{}(predicate) % shards_.size()];
}

std::optional<DegreeCache::CachedList> DegreeCache::ComputeDegrees(
    const std::string& predicate, const QueryDeadline* deadline) const {
  OPINEDB_FAULT("cache.compute");
  const size_t n = db_->corpus().num_entities();
  obs::TraceSpan span("degree_cache.compute");
  span.AddAttribute("predicate", predicate);
  span.AddAttribute("entities", static_cast<uint64_t>(n));
  std::vector<double> degrees(n);
  // One interpretation for the predicate, shared across entities (the
  // same work ExecuteQuery does per query, amortized here forever).
  auto interpretation = db_->interpreter().Interpret(predicate, deadline);
  if (interpretation.degraded) {
    // An interpreter stage failed underneath us. A list computed from a
    // degraded interpretation must never become resident — it would
    // outlive the failure and keep serving degraded degrees forever.
    // Throwing routes the caller to its local-compute fallback path.
    throw std::runtime_error("degree_cache: degraded interpretation for '" +
                             predicate + "' is not cacheable");
  }
  const embedding::Vec rep = db_->phrase_embedder().Represent(predicate);
  const double senti = db_->analyzer().ScorePhrase(predicate);
  // Completion is counted only on the deadline path, so the fault-free
  // loop below is exactly the pre-deadline hot path.
  const bool deadline_active = deadline != nullptr && deadline->active();
  std::atomic<size_t> scored{0};
  // The same scorer SubjectiveScoreOp builds, so a cached list holds
  // exactly the doubles a query would compute (same fault/metric sites).
  const ConditionScorer scorer(*db_, predicate, interpretation, rep, senti);
  auto score_range = [&](size_t begin, size_t end) {
    size_t e = begin;
    for (; e < end; ++e) {
      if (deadline_active && (e & 31) == 0 && e != begin &&
          deadline->Expired()) {
        break;
      }
      degrees[e] = scorer.Score(e);
    }
    if (deadline_active) {
      scored.fetch_add(e - begin, std::memory_order_relaxed);
    }
  };
  // Each entity writes only its own slot, so the parallel loop is
  // bit-identical to serial.
  std::function<bool()> stop = [deadline] { return deadline->Expired(); };
  const std::function<bool()>* should_stop =
      deadline_active ? &stop : nullptr;
  if (ThreadPool* pool = db_->pool()) {
    pool->ParallelFor(0, n, score_range, /*min_grain=*/8, should_stop);
  } else if (should_stop == nullptr || !(*should_stop)()) {
    score_range(0, n);
  }
  if (deadline_active && scored.load(std::memory_order_relaxed) != n) {
    span.AddAttribute("aborted", true);
    return std::nullopt;  // Incomplete: must not be cached.
  }
  return CachedList{std::move(degrees), std::move(interpretation)};
}

const std::vector<double>& DegreeCache::Degrees(
    const std::string& predicate) {
  // Without a deadline the computation always completes (or throws), so
  // the pointer is never null.
  return *TryDegrees(predicate, nullptr);
}

const std::vector<double>* DegreeCache::TryDegrees(
    const std::string& predicate, const QueryDeadline* deadline) {
  OPINEDB_FAULT("cache.lookup");
  Shard& shard = ShardFor(predicate);
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(predicate);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      OPINEDB_METRIC_COUNT("degree_cache.hits", 1);
      return &it->second.degrees;
    }
  }
  if (deadline != nullptr && deadline->Expired()) return nullptr;
  // Expensive; no locks held.
  auto computed = ComputeDegrees(predicate, deadline);
  if (!computed.has_value()) return nullptr;  // Deadline hit mid-compute.
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.emplace(predicate, std::move(*computed));
  if (inserted) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    OPINEDB_METRIC_COUNT("degree_cache.misses", 1);
  } else {
    // Lost an insert race; the resident value is bit-identical.
    hits_.fetch_add(1, std::memory_order_relaxed);
    OPINEDB_METRIC_COUNT("degree_cache.hits", 1);
  }
  return &it->second.degrees;
}

size_t DegreeCache::PrecomputeMarkers() {
  obs::TraceSpan span("degree_cache.precompute_markers");
  // Collect the unique markers not yet cached, in schema order, then fan
  // the (expensive) per-marker computations out across the pool. Degrees
  // is thread-safe, and a nested per-entity ParallelFor inside a worker
  // degrades to inline execution, so this parallelizes across markers.
  std::vector<const std::string*> pending;
  std::unordered_set<std::string_view> seen;
  for (const auto& attribute : db_->schema().attributes) {
    for (const auto& marker : attribute.summary_type.markers) {
      if (Contains(marker) || !seen.insert(marker).second) continue;
      pending.push_back(&marker);
    }
  }
  auto materialize = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) Degrees(*pending[i]);
  };
  if (ThreadPool* pool = db_->pool()) {
    pool->ParallelFor(0, pending.size(), materialize);
  } else {
    materialize(0, pending.size());
  }
  span.AddAttribute("markers", static_cast<uint64_t>(pending.size()));
  OPINEDB_METRIC_COUNT("degree_cache.markers_precomputed", pending.size());
  return pending.size();
}

bool DegreeCache::Contains(const std::string& predicate) const {
  const Shard& shard = ShardFor(predicate);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  return shard.map.count(predicate) > 0;
}

size_t DegreeCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

void DegreeCache::Clear() {
  for (auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.map.clear();
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

size_t DegreeCache::RefreshAfterIngest(
    const std::vector<text::EntityId>& touched) {
  obs::TraceSpan span("degree_cache.refresh_after_ingest");
  size_t refreshed = 0, recomputed = 0, dropped = 0;
  for (auto& shard : shards_) {
    // Callers hold the engine's exclusive lock, so no reader can be
    // inside a shard; the lock is still taken to keep the invariant
    // local (it is uncontended and cheap here).
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      const std::string& predicate = it->first;
      CachedList& entry = it->second;
      PredicateInterpretation interpretation;
      bool drop = false;
      try {
        interpretation = db_->interpreter().Interpret(predicate);
        drop = interpretation.degraded;
      } catch (...) {
        drop = true;
      }
      if (drop) {
        // Same rule as ComputeDegrees: a degraded interpretation must
        // not back a resident list.
        it = shard.map.erase(it);
        ++dropped;
        continue;
      }
      const embedding::Vec rep = db_->phrase_embedder().Represent(predicate);
      const double senti = db_->analyzer().ScorePhrase(predicate);
      // The scorer ComputeDegrees uses: a patched slot holds exactly the
      // double a fresh materialization would.
      const ConditionScorer scorer(*db_, predicate, interpretation, rep,
                                   senti);
      if (interpretation == entry.interpretation) {
        // Additive ingest with an unchanged interpretation leaves every
        // untouched entity's degree bit-exact — patch only the touched
        // slots.
        for (const text::EntityId id : touched) {
          if (id < 0) continue;
          const size_t e = static_cast<size_t>(id);
          if (e >= entry.degrees.size()) continue;
          entry.degrees[e] = scorer.Score(e);
        }
      } else {
        // The ingest grew the variation table or shifted the idf enough
        // to change this predicate's interpretation: every slot is
        // suspect, recompute the full list under the new one.
        for (size_t e = 0; e < entry.degrees.size(); ++e) {
          entry.degrees[e] = scorer.Score(e);
        }
        entry.interpretation = std::move(interpretation);
        ++recomputed;
      }
      ++refreshed;
      ++it;
    }
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  span.AddAttribute("refreshed", static_cast<uint64_t>(refreshed));
  span.AddAttribute("recomputed", static_cast<uint64_t>(recomputed));
  span.AddAttribute("dropped", static_cast<uint64_t>(dropped));
  OPINEDB_METRIC_COUNT("degree_cache.ingest_refreshes", refreshed);
  OPINEDB_METRIC_COUNT("degree_cache.ingest_recomputes", recomputed);
  OPINEDB_METRIC_COUNT("degree_cache.ingest_drops", dropped);
  return refreshed;
}

}  // namespace opinedb::core
