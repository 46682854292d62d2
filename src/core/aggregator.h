#ifndef OPINEDB_CORE_AGGREGATOR_H_
#define OPINEDB_CORE_AGGREGATOR_H_

#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "core/attribute_classifier.h"
#include "core/marker_summary.h"
#include "core/schema.h"
#include "embedding/phrase_rep.h"
#include "extract/pipeline.h"
#include "sentiment/analyzer.h"
#include "text/corpus.h"

namespace opinedb::core {

/// Options controlling how phrases aggregate onto markers
/// (Section 4.2.2).
struct AggregationOptions {
  /// When true, a phrase contributes fractionally to its two closest
  /// markers of a linearly-ordered summary; when false (the paper's
  /// implementation) it contributes wholly to the single best marker.
  bool fractional = false;
  /// Minimum cosine similarity between a phrase and its best marker; the
  /// phrase counts as unmatched below this.
  double match_threshold = 0.15;
  /// Reviews older than this date are ignored (supports "reviews after
  /// 2010"-style query filters). Unset = no filter.
  std::optional<int32_t> min_date;
  /// Only reviews by reviewers with at least this many reviews count
  /// (supports "reviewers who reviewed >= 10 hotels"). Unset = no filter.
  std::optional<int32_t> min_reviewer_reviews;
};

/// Marker summaries for every (attribute, entity) pair, plus the
/// extraction provenance that produced them.
struct SubjectiveTables {
  /// summaries[a][e] is the summary of attribute a for entity e.
  std::vector<std::vector<MarkerSummary>> summaries;
  /// The extraction relation, with each opinion's assigned attribute
  /// (-1 when the classifier had nothing to say).
  std::vector<extract::ExtractedOpinion> extractions;
  std::vector<int> extraction_attribute;
  /// The marker each extraction's phrase mapped to (-1 = unmatched or
  /// filtered out).
  std::vector<int> extraction_marker;
  /// Attribute-classification confidence margin per extraction; phrases
  /// with tiny margins are excluded from the linguistic-variation table.
  std::vector<double> extraction_margin;
};

/// Aggregates extracted opinions onto marker summaries (the
/// "Extractor+Aggregator" box of Fig. 4).
class Aggregator {
 public:
  Aggregator(const SubjectiveSchema* schema,
             const AttributeClassifier* classifier,
             const embedding::PhraseEmbedder* embedder,
             const sentiment::Analyzer* analyzer);

  /// The read-only half of folding one opinion: the review filter,
  /// attribute classification, marker matching and the phrase
  /// embedding. Computed from the frozen models only, so it may run
  /// beside readers of the summaries; Fold applies it.
  struct PreparedOpinion {
    /// Classified attribute (-1 when filtered out or unclassified).
    int attribute = -1;
    double margin = 0.0;
    /// Best marker (-1 when unmatched or not in a served attribute).
    int marker = -1;
    /// True when the attribute is served but no marker cleared the
    /// match threshold (the phrase counts as unmatched).
    bool unmatched = false;
    std::vector<double> weights;
    embedding::Vec phrase_vec;
  };

  /// Builds summaries for all entities of `corpus` from `extractions`:
  /// Prepare for every extraction (fanned out across `pool` when given),
  /// then Fold in extraction order — the same mutation sequence as a
  /// serial build, hence bit-identical to it and to folding the same
  /// extractions one by one on top of an empty build.
  SubjectiveTables Build(const text::ReviewCorpus& corpus,
                         std::vector<extract::ExtractedOpinion> extractions,
                         const AggregationOptions& options,
                         ThreadPool* pool = nullptr) const;

  /// Prepares `opinion`, which was extracted from `review`. `corpus`
  /// serves the reviewer filter only (min_reviewer_reviews).
  PreparedOpinion Prepare(const extract::ExtractedOpinion& opinion,
                          const text::Review& review,
                          const text::ReviewCorpus& corpus,
                          const AggregationOptions& options) const;

  /// Appends `opinion` to the extraction relation and folds it into its
  /// (attribute, entity) summary (Section 4.2.2: "the marker summaries
  /// can be incrementally computed").
  void Fold(extract::ExtractedOpinion opinion, PreparedOpinion prepared,
            SubjectiveTables* tables) const;

  /// Marker weight vector for a phrase against attribute `a`'s markers:
  /// one-hot (or fractional) by embedding similarity; empty if below the
  /// match threshold.
  std::vector<double> MarkerWeights(size_t attribute,
                                    const std::string& phrase,
                                    const AggregationOptions& options) const;

 private:
  const SubjectiveSchema* schema_;
  const AttributeClassifier* classifier_;
  const embedding::PhraseEmbedder* embedder_;
  const sentiment::Analyzer* analyzer_;
  /// Precomputed marker phrase embeddings per attribute.
  std::vector<std::vector<embedding::Vec>> marker_vecs_;
  /// Precomputed marker sentiment per attribute (linear scales).
  std::vector<std::vector<double>> marker_senti_;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_AGGREGATOR_H_
