#ifndef OPINEDB_CORE_EXEC_OPS_H_
#define OPINEDB_CORE_EXEC_OPS_H_

#include <atomic>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/planner.h"

namespace opinedb::core {

class DegreeCache;

/// Shared state threaded through the physical operator chain. The
/// engine fills the borrowed pointers (query, plan, interpretation
/// prologue), then each operator reads its inputs and writes its
/// outputs here:
///
///   ObjectiveFilterOp : entities            -> candidates
///   SubjectiveScoreOp : candidates          -> degrees (per condition)
///   RankOp            : degrees, candidates -> output->results
struct ExecContext {
  const OpineDb* db = nullptr;
  const SubjectiveQuery* query = nullptr;
  const LogicalPlan* logical = nullptr;
  const storage::Table* table = nullptr;
  /// Attached degree cache; nullptr when none.
  DegreeCache* cache = nullptr;
  /// Destination: interpretations (already filled), stats, results.
  QueryResult* output = nullptr;
  /// Per-condition query representations from the interpret prologue
  /// (indexed by condition; objective slots are defaulted).
  const std::vector<embedding::Vec>* reps = nullptr;
  const std::vector<double>* sentis = nullptr;

  size_t num_entities = 0;
  /// Selection vector of surviving entity ids, ascending. While
  /// candidates_are_all is true the implicit set is every entity and
  /// the vector stays empty (the dense fast path keeps the exact loop
  /// shapes of the pre-planner engine, preserving bit-identity).
  std::vector<size_t> candidates;
  bool candidates_are_all = true;

  size_t num_candidates() const {
    return candidates_are_all ? num_entities : candidates.size();
  }

  /// Degree lists: computed[c] owns lists built this query; degrees[c]
  /// points either there or into the cache.
  std::vector<std::vector<double>> computed;
  std::vector<const std::vector<double>*> degrees;
  /// Combined WHERE score per entity (RankOp scratch).
  std::vector<double> scores;

  /// Deadline / cancellation for this query; nullptr (or an inactive
  /// deadline) means unbounded. Operators poll it at chunk boundaries.
  const QueryDeadline* deadline = nullptr;
  /// Set by operators when the deadline stopped work early; the output
  /// then holds a prefix-consistent partial ranking (see watermark).
  bool partial = false;
  /// Candidate positions [0, watermark) have exact degrees in every
  /// condition list; RankOp only ranks that prefix when partial. Only
  /// meaningful while partial is true.
  size_t watermark = 0;
  /// Set (possibly from pool workers, hence atomic) when any stage fell
  /// back to a cheaper path after a failure — the answer is complete
  /// but was not produced on the preferred path.
  std::atomic<bool> degraded{false};
};

/// A physical operator: reads/writes the shared ExecContext. Operators
/// only use OpineDb's public API, so they stay testable in isolation.
class ExecOp {
 public:
  virtual ~ExecOp() = default;
  virtual const char* name() const = 0;
  virtual Status Run(ExecContext* ctx) const = 0;
};

/// Evaluates the hard objective predicates (AND-reachable from the
/// root) first, with each column resolved once per predicate, shrinking
/// the candidate set before any subjective scoring. A failing hard
/// predicate forces the WHERE to exactly 0.0 (0 is absorbing for ⊗ in
/// both variants), so dropped entities can never appear in the output.
class ObjectiveFilterOp : public ExecOp {
 public:
  const char* name() const override { return "objective_filter"; }
  Status Run(ExecContext* ctx) const override;
};

/// Materializes the per-condition degree lists restricted to the
/// candidate set: objective conditions as 0/1 vectors (column bound
/// once), subjective conditions through the degree cache when attached
/// or a parallel slot-per-entity computation otherwise.
class SubjectiveScoreOp : public ExecOp {
 public:
  const char* name() const override { return "score"; }
  Status Run(ExecContext* ctx) const override;
};

/// Combines the WHERE tree per candidate (parallel, slot-per-entity),
/// filters zero scores, and ranks with a partial_sort top-k (the
/// comparator's score-desc/entity-asc total order makes the prefix
/// bit-identical to a full sort).
class RankOp : public ExecOp {
 public:
  const char* name() const override { return "combine_rank"; }
  Status Run(ExecContext* ctx) const override;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_EXEC_OPS_H_
