#include "core/exec_ops.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <utility>

#include "common/fault.h"
#include "core/columnar.h"
#include "core/degree_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

/// Largest prefix of [0, n) covered by the completed (begin, reached)
/// ranges a deadline-interrupted loop logged. Chunks the pool skipped
/// after expiry log nothing, so the prefix stops at the first gap.
size_t CoveredPrefix(std::vector<std::pair<size_t, size_t>>* ranges) {
  std::sort(ranges->begin(), ranges->end());
  size_t prefix = 0;
  for (const auto& [begin, reached] : *ranges) {
    if (begin > prefix) break;
    prefix = std::max(prefix, reached);
  }
  return prefix;
}

}  // namespace

namespace opinedb::core {

Status ObjectiveFilterOp::Run(ExecContext* ctx) const {
  obs::TraceSpan span("objective_filter");
  const SubjectiveQuery& query = *ctx->query;
  // Each hard predicate is bound once, lowered onto the table's column
  // mirror and run as a dense AND sweep; survivors are gathered in
  // ascending entity order. Eval is bit-identical to Matches.
  const ColumnarTable& columns = ctx->db->objective_columns(*ctx->table);
  std::vector<uint8_t> match(ctx->num_entities, 1);
  for (const size_t c : ctx->logical->hard_objective) {
    auto bound = query.conditions[c].objective.Bind(*ctx->table);
    if (!bound.ok()) return bound.status();
    columns.FilterInto(columns.Compile(*bound), &match);
  }
  ctx->candidates.clear();
  for (size_t e = 0; e < ctx->num_entities; ++e) {
    if (match[e] != 0) ctx->candidates.push_back(e);
  }
  ctx->candidates_are_all = false;
  span.AddAttribute("predicates",
                    static_cast<uint64_t>(ctx->logical->hard_objective.size()));
  span.AddAttribute("entities", static_cast<uint64_t>(ctx->num_entities));
  span.AddAttribute("survivors",
                    static_cast<uint64_t>(ctx->candidates.size()));
  return Status::OK();
}

Status SubjectiveScoreOp::Run(ExecContext* ctx) const {
  const OpineDb& db = *ctx->db;
  const SubjectiveQuery& query = *ctx->query;
  const size_t num_conditions = query.conditions.size();
  const size_t num_entities = ctx->num_entities;
  const QueryDeadline* deadline = ctx->deadline;
  const bool deadline_active = deadline != nullptr && deadline->active();
  std::function<bool()> stop = [deadline] { return deadline->Expired(); };
  const std::function<bool()>* should_stop =
      deadline_active ? &stop : nullptr;
  // Candidate positions [0, watermark) end up with exact degrees in
  // every condition list; only an expiring deadline lowers it.
  size_t watermark = ctx->num_candidates();
  ctx->computed.resize(num_conditions);
  ctx->degrees.assign(num_conditions, nullptr);
  auto entity_at = [ctx](size_t i) {
    return ctx->candidates_are_all ? i : ctx->candidates[i];
  };
  obs::TraceSpan score_span("score");
  for (size_t c = 0; c < num_conditions; ++c) {
    const Condition& condition = query.conditions[c];
    obs::TraceSpan condition_span("score.condition");
    condition_span.AddAttribute("index", static_cast<uint64_t>(c));
    if (condition.kind == Condition::Kind::kObjective) {
      condition_span.AddAttribute("source", "objective");
      // Objective predicates are table lookups: bound and lowered onto
      // the column mirror once, then a 0/1 per candidate (Eval is
      // bit-identical to Matches).
      auto bound = condition.objective.Bind(*ctx->table);
      if (!bound.ok()) return bound.status();
      const ColumnarTable::CompiledPredicate compiled =
          db.objective_columns(*ctx->table).Compile(*bound);
      auto& list = ctx->computed[c];
      list.assign(num_entities, 0.0);
      for (size_t i = 0; i < ctx->num_candidates(); ++i) {
        const size_t e = entity_at(i);
        list[e] = ColumnarTable::Eval(compiled, e) ? 1.0 : 0.0;
      }
      ctx->degrees[c] = &list;
      continue;
    }
    condition_span.AddAttribute("predicate", condition.subjective);
    if (deadline_active && deadline->Expired()) {
      // Budget exhausted before this condition started: no exact degree
      // exists for any candidate, so the consistent prefix collapses.
      auto& list = ctx->computed[c];
      list.assign(num_entities, 0.0);
      ctx->degrees[c] = &list;
      watermark = 0;
      condition_span.AddAttribute("source", "deadline_skipped");
      continue;
    }
    bool use_cache = ctx->cache != nullptr;
    if (use_cache) {
      // The cache computes misses through the same per-entity code path,
      // so cached and freshly-computed lists are bit-identical.
      try {
        if (ctx->cache->Contains(condition.subjective)) {
          ++ctx->output->stats.cache_hits;
          condition_span.AddAttribute("source", "cache_hit");
        } else {
          ++ctx->output->stats.cache_misses;
          condition_span.AddAttribute("source", "cache_miss");
        }
        const std::vector<double>* cached =
            ctx->cache->TryDegrees(condition.subjective, deadline);
        if (cached == nullptr) {
          // Deadline fired before the miss finished computing; the
          // incomplete list was discarded, so nothing here is exact.
          auto& list = ctx->computed[c];
          list.assign(num_entities, 0.0);
          ctx->degrees[c] = &list;
          watermark = 0;
          condition_span.AddAttribute("deadline_abandoned", true);
          continue;
        }
        ctx->degrees[c] = cached;
        continue;
      } catch (const std::exception&) {
        // Cache path unusable (injected fault, broken compute): fall
        // back to computing this condition's list locally — the query
        // keeps serving, just without the shared cache.
        use_cache = false;
        ctx->degraded.store(true, std::memory_order_relaxed);
        OPINEDB_METRIC_COUNT("engine.fallback.cache", 1);
        condition_span.AddAttribute("source", "cache_fallback");
      }
    } else {
      ++ctx->output->stats.cache_misses;
      condition_span.AddAttribute("source", "computed");
    }
    auto& list = ctx->computed[c];
    try {
      OPINEDB_FAULT("score.alloc");
      list.assign(num_entities, 0.0);
    } catch (const std::exception&) {
      // Could not even materialize the list: serve zeros (absorbing for
      // the fuzzy conjunction) rather than abandon the query.
      list.assign(num_entities, 0.0);
      ctx->degrees[c] = &list;
      ctx->degraded.store(true, std::memory_order_relaxed);
      OPINEDB_METRIC_COUNT("engine.fallback.alloc", 1);
      condition_span.AddAttribute("source", "alloc_fallback");
      continue;
    }
    const ConditionScorer scorer(db, condition.subjective,
                                 ctx->output->interpretations[c],
                                 (*ctx->reps)[c], (*ctx->sentis)[c]);
    auto score_entity = [&](size_t e) {
      try {
        list[e] = scorer.Score(e);
      } catch (const std::exception&) {
        // Per-entity failure: degrade this entity one cascade stage, to
        // the text-retrieval score, rather than losing the whole list.
        ctx->degraded.store(true, std::memory_order_relaxed);
        OPINEDB_METRIC_COUNT("engine.fallback.entity", 1);
        try {
          list[e] = db.TextFallbackDegree(condition.subjective,
                                          static_cast<text::EntityId>(e));
        } catch (const std::exception&) {
          list[e] = 0.0;
        }
      }
    };
    // Entities fan out across the pool; each entity writes only its own
    // slot, so the result is bit-identical to serial — and to the dense
    // scan, because per-entity degrees are independent of the candidate
    // set. All deadline bookkeeping is gated on deadline_active, so the
    // unbounded path runs the exact pre-deadline loop.
    std::mutex ranges_mu;
    std::vector<std::pair<size_t, size_t>> done_ranges;
    auto score_range = [&](size_t begin, size_t end) {
      size_t i = begin;
      for (; i < end; ++i) {
        if (deadline_active && (i & 31) == 0 && i != begin &&
            deadline->Expired()) {
          break;
        }
        score_entity(entity_at(i));
      }
      if (deadline_active) {
        std::lock_guard<std::mutex> guard(ranges_mu);
        done_ranges.emplace_back(begin, i);
      }
    };
    const size_t positions = ctx->num_candidates();
    if (ThreadPool* pool = db.pool()) {
      pool->ParallelFor(0, positions, score_range, /*min_grain=*/8,
                        should_stop);
    } else if (should_stop == nullptr || !(*should_stop)()) {
      score_range(0, positions);
    }
    if (deadline_active) {
      watermark = std::min(watermark, CoveredPrefix(&done_ranges));
    }
    ctx->degrees[c] = &list;
  }
  if (deadline_active && deadline->Expired()) {
    ctx->partial = true;
    ctx->watermark = watermark;
    score_span.AddAttribute("partial", true);
    score_span.AddAttribute("watermark", static_cast<uint64_t>(watermark));
  }
  score_span.End();
  ctx->output->stats.entities_scored =
      ctx->partial ? ctx->watermark : ctx->num_candidates();
  return Status::OK();
}

Status RankOp::Run(ExecContext* ctx) const {
  const OpineDb& db = *ctx->db;
  const SubjectiveQuery& query = *ctx->query;
  const size_t num_entities = ctx->num_entities;
  obs::TraceSpan rank_span("combine_rank");
  // Combine the WHERE tree per candidate (parallel, slot-per-entity).
  // Non-candidates keep score 0.0 — exactly the value the dense combine
  // would give them, since they failed a hard conjunct and 0 is
  // absorbing for ⊗.
  ctx->scores.assign(num_entities, ctx->candidates_are_all ? 1.0 : 0.0);
  auto& scores = ctx->scores;
  // When the deadline cut scoring short, only the watermark prefix of
  // candidate positions has exact degrees in every list; combining or
  // ranking beyond it would emit fabricated scores.
  const size_t positions =
      ctx->partial ? std::min(ctx->watermark, ctx->num_candidates())
                   : ctx->num_candidates();
  auto entity_at = [&](size_t i) {
    return ctx->candidates_are_all ? i : ctx->candidates[i];
  };
  if (query.where != nullptr) {
    auto combine_entity = [&](size_t e) {
      scores[e] = query.where->Evaluate(
          db.options().variant,
          [&](size_t c) { return (*ctx->degrees[c])[e]; });
    };
    auto combine_range = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) combine_entity(entity_at(i));
    };
    if (ThreadPool* pool = db.pool()) {
      pool->ParallelFor(0, positions, combine_range, /*min_grain=*/64);
    } else {
      combine_range(0, positions);
    }
  }
  // Filter, rank and truncate serially. Candidates are ascending, so
  // the pre-sort order matches the dense scan's entity-order walk.
  std::vector<RankedResult> ranked;
  ranked.reserve(positions);
  auto push_entity = [&](size_t e) {
    if (scores[e] <= 0.0) return;  // Failed hard objective predicates.
    const auto entity = static_cast<text::EntityId>(e);
    RankedResult result;
    result.entity = entity;
    result.entity_name = db.corpus().entity_name(entity);
    result.score = scores[e];
    ranked.push_back(std::move(result));
  };
  for (size_t i = 0; i < positions; ++i) push_entity(entity_at(i));
  // The comparator is a total order (ties broken by entity id), so the
  // partial_sort prefix is bit-identical to a full sort + truncate.
  const size_t k = std::min(query.limit, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    [](const RankedResult& a, const RankedResult& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.entity < b.entity;
                    });
  ranked.resize(k);
  rank_span.AddAttribute("results", static_cast<uint64_t>(ranked.size()));
  if (ctx->partial) {
    rank_span.AddAttribute("partial", true);
    rank_span.AddAttribute("watermark",
                           static_cast<uint64_t>(ctx->watermark));
  }
  rank_span.End();
  ctx->output->results = std::move(ranked);
  return Status::OK();
}

}  // namespace opinedb::core
