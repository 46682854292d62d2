#ifndef OPINEDB_CORE_COLUMNAR_H_
#define OPINEDB_CORE_COLUMNAR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/thread_pool.h"
#include "core/aggregator.h"
#include "core/interpreter.h"
#include "core/membership.h"
#include "embedding/vector_ops.h"
#include "fuzzy/logic.h"
#include "storage/table.h"

namespace opinedb::core {

class OpineDb;

/// One attribute's marker summaries in structure-of-arrays layout.
///
/// The row-oriented engine reaches a marker cell through
/// tables_.summaries[a][e].cell(k) — a MarkerSummary object per entity
/// whose cells each own a heap-allocated centroid vector. A dense scan
/// therefore chases two pointers per cell and strides across unrelated
/// allocations, which defeats both the cache and the auto-vectorizer.
/// Here every quantity the membership features read lives in its own
/// contiguous 64-byte-aligned array, entity-major so one entity's cells
/// are adjacent:
///
///   count[e*K + k], mean_sentiment[e*K + k], centroid_norm[e*K + k]
///   centroid[(e*K + k) * dim .. +dim)          (float, flattened)
///   provenance_count[e*K + k]
///   total[e], unmatched[e]                     (per entity)
///
/// centroid_norm is embedding::Norm of the cell centroid, precomputed at
/// build time — Norm is deterministic, so the cached double is
/// bit-identical to what the row path computes inside every Cosine call.
struct AttributeColumns {
  size_t num_entities = 0;
  size_t num_markers = 0;
  size_t dim = 0;
  common::AlignedArray<double> count;
  common::AlignedArray<double> mean_sentiment;
  common::AlignedArray<double> centroid_norm;
  common::AlignedArray<float> centroid;
  common::AlignedArray<uint32_t> provenance_count;
  common::AlignedArray<double> total;
  common::AlignedArray<double> unmatched;

  /// Total allocation footprint of this attribute's columns.
  size_t bytes() const;
  /// Bytes one atom evaluation streams per entity (all cell columns for
  /// K markers plus the two per-entity scalars) — the numerator of the
  /// bench's achieved-GB/s figure.
  size_t scan_bytes_per_entity() const;
};

/// Columnar mirror of the engine's marker summaries: one AttributeColumns
/// per subjective attribute, rebuilt from the row tables whenever they
/// change wholesale (Build / Reaggregate / OpenDatabase /
/// InstallSummaries) and patched in place per touched entity by the
/// incremental ingest path (UpdateEntities) — always under the exclusive
/// reconfiguration lock; see docs/SCALING.md for the sync rules. Between
/// mutations it is read-only, so queries holding the shared lock may
/// scan it from any number of threads.
class ColumnarSummaryStore {
 public:
  /// Copies `tables` into columnar layout; entities fan out across
  /// `pool` when provided (each entity writes only its own slots).
  ColumnarSummaryStore(const SubjectiveTables& tables, size_t num_entities,
                       ThreadPool* pool);

  /// In-place delta update for ingest: refills the column slots of
  /// `touched` entities from the row tables, running exactly the
  /// per-entity fill the constructor runs — so the patched store is
  /// bit-identical to a full rebuild over the same tables. Requires the
  /// exclusive reconfiguration lock (this writes the arrays queries
  /// read). Ingest never adds entities, so out-of-range ids are
  /// ignored.
  void UpdateEntities(const SubjectiveTables& tables,
                      const std::vector<text::EntityId>& touched);

  size_t num_attributes() const { return columns_.size(); }
  size_t num_entities() const { return num_entities_; }
  const AttributeColumns& attribute(size_t a) const { return columns_[a]; }

  /// Total allocation footprint across all attributes.
  size_t bytes() const;

 private:
  std::vector<AttributeColumns> columns_;
  size_t num_entities_ = 0;
};

/// The one way a subjective condition is scored (SubjectiveScoreOp, which
/// also fills the interpretation cache's degree lists, and
/// PredicateDegreeOfTruth): built once per (interpretation,
/// query rep, sentiment, predicate), then Score(e) yields the condition's
/// degree of truth for any entity.
///
///   - Text fallback (kTextFallback, or no atoms): the BM25 retrieval
///     degree, OpineDb::TextFallbackDegree.
///   - Otherwise the per-atom membership degrees folded in atom order
///     with the interpretation's connective. An atom bound to the
///     columnar store is a contiguous sweep over the entity's cells that
///     replicates the row arithmetic operation for operation; the
///     use_markers = false ablation, and any atom the store cannot bind,
///     take OpineDb::AtomDegreeOfTruth. For a marker atom both arms fire
///     score.features, then count membership.marker_featurizations, and
///     produce bit-identical doubles.
///
/// Nothing is caught here: a failure propagates to the caller, which
/// owns the fallback policy.
class ConditionScorer {
 public:
  /// `predicate` and `query_rep` must outlive the scorer, and `db`'s
  /// derived state must not be rebuilt while it lives.
  ConditionScorer(const OpineDb& db, const std::string& predicate,
                  const PredicateInterpretation& interpretation,
                  const embedding::Vec& query_rep, double query_sentiment);

  /// Degree of truth of the whole condition for one entity.
  double Score(size_t entity) const;

 private:
  struct BoundAtom {
    AtomInterpretation atom;
    /// nullptr: the atom is scored through OpineDb::AtomDegreeOfTruth.
    const AttributeColumns* columns = nullptr;
    size_t marker = 0;
  };

  /// Membership degree of one atom for one entity.
  double AtomDegree(const BoundAtom& atom, size_t entity) const;

  const OpineDb* db_ = nullptr;
  const std::string* predicate_ = nullptr;
  std::vector<BoundAtom> atoms_;
  const embedding::Vec* query_rep_ = nullptr;
  double query_norm_ = 0.0;
  double query_sentiment_ = 0.0;
  fuzzy::Variant variant_ = fuzzy::Variant::kProduct;
  const MembershipModel* model_ = nullptr;
  bool conjunctive_ = true;
  bool text_fallback_ = false;
};

/// Columnar mirror of an objective table: numeric columns as contiguous
/// double arrays with a null bitmap, string columns dictionary-encoded
/// against a sorted distinct list (rank order == storage::Value string
/// order, so comparing ranks is comparing strings). SetObjectiveTable
/// builds one per registered table; ObjectiveFilterOp and the 0/1
/// objective lists in SubjectiveScoreOp evaluate every bound predicate
/// against it as dense sweeps with Value::Compare's exact semantics
/// (NULL never matches, numbers before strings, NaN compares equal).
class ColumnarTable {
 public:
  explicit ColumnarTable(const storage::Table& table);

  size_t num_rows() const { return num_rows_; }
  size_t bytes() const;

  /// A bound predicate lowered onto the column arrays. `cmp_kind`
  /// selects how the three-way comparison against the literal is
  /// produced per row; `accept` maps cmp (-1/0/1) through the operator.
  struct CompiledPredicate {
    enum class CmpKind { kNumeric, kStringRank, kConstant };
    CmpKind cmp_kind = CmpKind::kConstant;
    const uint8_t* is_null = nullptr;
    const double* num = nullptr;
    const int32_t* code = nullptr;
    double num_literal = 0.0;
    int32_t rank = 0;          // String literal's dict rank / insert point.
    bool rank_exact = false;   // Literal present in the dictionary.
    int constant_cmp = 0;      // Type-mismatch comparisons are constant.
    bool accept[3] = {false, false, false};  // accept[cmp + 1].
  };

  /// Lowers a predicate bound against the mirrored table; every column
  /// type compiles.
  CompiledPredicate Compile(
      const storage::BoundColumnPredicate& predicate) const;

  /// Row-level evaluation, bit-identical to
  /// BoundColumnPredicate::Matches on the mirrored table.
  static bool Eval(const CompiledPredicate& predicate, size_t row) {
    if (predicate.is_null[row] != 0) return false;
    int cmp;
    switch (predicate.cmp_kind) {
      case CompiledPredicate::CmpKind::kNumeric: {
        // Same three-way comparison Value::Compare performs, including
        // its NaN behaviour (neither < nor > → "equal").
        const double x = predicate.num[row];
        cmp = x < predicate.num_literal ? -1
                                        : (x > predicate.num_literal ? 1 : 0);
        break;
      }
      case CompiledPredicate::CmpKind::kStringRank: {
        const int32_t c = predicate.code[row];
        cmp = predicate.rank_exact
                  ? (c < predicate.rank ? -1 : (c > predicate.rank ? 1 : 0))
                  : (c < predicate.rank ? -1 : 1);
        break;
      }
      case CompiledPredicate::CmpKind::kConstant:
      default:
        cmp = predicate.constant_cmp;
        break;
    }
    return predicate.accept[cmp + 1];
  }

  /// match[row] &= Eval(predicate, row) over every row — the dense AND
  /// sweep ObjectiveFilterOp runs per hard predicate.
  void FilterInto(const CompiledPredicate& predicate,
                  std::vector<uint8_t>* match) const;

 private:
  struct Column {
    storage::ValueType type = storage::ValueType::kNull;
    common::AlignedArray<uint8_t> is_null;
    common::AlignedArray<double> num;     // kInt / kDouble columns.
    common::AlignedArray<int32_t> code;   // kString columns.
    std::vector<std::string> dict;        // Sorted distinct strings.
  };

  size_t num_rows_ = 0;
  std::vector<Column> columns_;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_COLUMNAR_H_
