#ifndef OPINEDB_CORE_MEMBERSHIP_H_
#define OPINEDB_CORE_MEMBERSHIP_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/aggregator.h"
#include "core/marker_summary.h"
#include "embedding/phrase_rep.h"
#include "ml/logistic_regression.h"
#include "sentiment/analyzer.h"

namespace opinedb::core {

/// Number of features the marker-based membership model consumes.
inline constexpr size_t kMembershipFeatureDim = 10;

/// Computes the membership-function feature vector of Section 3.3 for a
/// marker summary w.r.t. an interpreted marker and the original query
/// predicate: marker sizes, average sentiment scores, and phrase-centroid
/// similarities — all precomputed in the summary, so no scan of the
/// extraction table is needed.
std::vector<double> MembershipFeatures(const MarkerSummary& summary,
                                       int marker,
                                       const embedding::Vec& query_rep,
                                       double query_sentiment);

/// The "no markers" ablation of Table 7: equivalent engineered features
/// computed directly from the extracted phrases of (attribute, entity) —
/// requires scanning the extraction table at query time. `phrases`
/// indexes `extractions`.
std::vector<double> MembershipFeaturesNoMarkers(
    const std::vector<extract::ExtractedOpinion>& extractions,
    const std::vector<size_t>& phrases,
    const embedding::PhraseEmbedder& embedder,
    const embedding::Vec& query_rep, double query_sentiment);

/// Rejects feature vectors of the wrong dimension or containing NaN /
/// infinity. A single non-finite feature silently poisons every degree
/// of truth downstream (NaN propagates through ⊗/⊕ and breaks ranking
/// comparators), so training validates its inputs up front.
Status ValidateFeatureVector(const std::vector<double>& features);

/// Closed-form membership degree used when no model has been trained:
/// similarity-weighted mass plus sentiment agreement, squashed, and
/// discounted by the amount of supporting evidence. `features` is a
/// MembershipFeatures vector of length kMembershipFeatureDim. Shared by
/// ConditionScorer's columnar and row arms so both produce the same
/// doubles from the same features.
double HeuristicMembershipDegree(const double* features, size_t n);

/// A learned membership function: logistic regression over
/// MembershipFeatures whose probability output is the degree of truth.
class MembershipModel {
 public:
  /// Labeled tuple (S_i, p_i, y_i): precomputed features + binary label.
  struct LabeledTuple {
    std::vector<double> features;
    int label = 0;
  };

  static MembershipModel Train(const std::vector<LabeledTuple>& tuples,
                               uint64_t seed = 42);

  /// Degree of truth in [0, 1] for a feature vector.
  double DegreeOfTruth(const std::vector<double>& features) const;

  /// Allocation-free variant for the columnar scoring sweep;
  /// bit-identical to the vector overload.
  double DegreeOfTruth(const double* features, size_t n) const;

  /// Test accuracy on held-out tuples (the LR-accuracy of Table 7).
  double Accuracy(const std::vector<LabeledTuple>& tuples) const;

 private:
  ml::LogisticRegression model_;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_MEMBERSHIP_H_
