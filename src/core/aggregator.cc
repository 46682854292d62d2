#include "core/aggregator.h"

#include <algorithm>
#include <cmath>

namespace opinedb::core {

Aggregator::Aggregator(const SubjectiveSchema* schema,
                       const AttributeClassifier* classifier,
                       const embedding::PhraseEmbedder* embedder,
                       const sentiment::Analyzer* analyzer)
    : schema_(schema),
      classifier_(classifier),
      embedder_(embedder),
      analyzer_(analyzer) {
  marker_vecs_.resize(schema_->num_attributes());
  marker_senti_.resize(schema_->num_attributes());
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const auto& markers = schema_->attributes[a].summary_type.markers;
    for (const auto& marker : markers) {
      marker_vecs_[a].push_back(embedder_->Represent(marker));
      marker_senti_[a].push_back(analyzer_->ScorePhrase(marker));
    }
  }
}

std::vector<double> Aggregator::MarkerWeights(
    size_t attribute, const std::string& phrase,
    const AggregationOptions& options) const {
  const auto& vecs = marker_vecs_[attribute];
  std::vector<double> weights(vecs.size(), 0.0);
  if (vecs.empty()) return weights;
  const embedding::Vec rep = embedder_->Represent(phrase);
  const double phrase_senti = analyzer_->ScorePhrase(phrase);
  const bool linear = schema_->attributes[attribute].summary_type.kind ==
                      SummaryKind::kLinearlyOrdered;

  std::vector<double> sims(vecs.size(), 0.0);
  for (size_t m = 0; m < vecs.size(); ++m) {
    double s = embedding::Cosine(rep, vecs[m]);
    if (linear) {
      // On a linear scale, sentiment agreement disambiguates markers that
      // are lexically close ("clean" vs "very clean" vs "dirty").
      const double senti_gap =
          std::abs(phrase_senti - marker_senti_[attribute][m]);
      s = 0.5 * s + 0.5 * (1.0 - senti_gap / 2.0);
    }
    sims[m] = s;
  }
  size_t best = 0;
  for (size_t m = 1; m < sims.size(); ++m) {
    if (sims[m] > sims[best]) best = m;
  }
  if (sims[best] < options.match_threshold) return weights;  // Unmatched.

  if (options.fractional && linear && sims.size() >= 2) {
    // Split mass between the best and runner-up markers proportionally.
    size_t second = best == 0 ? 1 : 0;
    for (size_t m = 0; m < sims.size(); ++m) {
      if (m != best && sims[m] > sims[second]) second = m;
    }
    const double s1 = std::max(0.0, sims[best]);
    const double s2 = std::max(0.0, sims[second]);
    const double total = s1 + s2;
    if (total > 0.0) {
      weights[best] = s1 / total;
      weights[second] = s2 / total;
      return weights;
    }
  }
  weights[best] = 1.0;
  return weights;
}

namespace {

bool PassesFilter(const text::Review& review,
                  const text::ReviewCorpus& corpus,
                  const AggregationOptions& options) {
  if (options.min_date.has_value() && review.date < *options.min_date) {
    return false;
  }
  if (options.min_reviewer_reviews.has_value() &&
      corpus.reviewer_review_count(review.reviewer) <
          *options.min_reviewer_reviews) {
    return false;
  }
  return true;
}

}  // namespace

SubjectiveTables Aggregator::Build(
    const text::ReviewCorpus& corpus,
    std::vector<extract::ExtractedOpinion> extractions,
    const AggregationOptions& options, ThreadPool* pool) const {
  SubjectiveTables tables;
  const size_t num_attrs = schema_->num_attributes();
  const size_t num_entities = corpus.num_entities();
  tables.summaries.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    tables.summaries[a].reserve(num_entities);
    for (size_t e = 0; e < num_entities; ++e) {
      tables.summaries[a].emplace_back(
          &schema_->attributes[a].summary_type, embedder_->dim());
    }
  }
  const size_t num_extractions = extractions.size();
  // Phase 1 (parallel): each iteration writes only its own slot.
  std::vector<PreparedOpinion> prepared(num_extractions);
  auto prepare_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      prepared[i] = Prepare(extractions[i],
                            corpus.review(extractions[i].review), corpus,
                            options);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, num_extractions, prepare_range, /*min_grain=*/16);
  } else {
    prepare_range(0, num_extractions);
  }
  // Phase 2 (serial): fold in extraction order.
  tables.extractions.reserve(num_extractions);
  tables.extraction_attribute.reserve(num_extractions);
  tables.extraction_marker.reserve(num_extractions);
  tables.extraction_margin.reserve(num_extractions);
  for (size_t i = 0; i < num_extractions; ++i) {
    Fold(std::move(extractions[i]), std::move(prepared[i]), &tables);
  }
  return tables;
}

Aggregator::PreparedOpinion Aggregator::Prepare(
    const extract::ExtractedOpinion& opinion, const text::Review& review,
    const text::ReviewCorpus& corpus,
    const AggregationOptions& options) const {
  PreparedOpinion prep;
  if (!PassesFilter(review, corpus, options)) return prep;
  const auto [a, margin] =
      classifier_->ClassifyWithMargin(opinion.aspect, opinion.opinion);
  prep.attribute = a;
  prep.margin = margin;
  if (a < 0 || static_cast<size_t>(a) >= schema_->num_attributes()) {
    return prep;
  }
  prep.weights = MarkerWeights(a, opinion.phrase, options);
  double best_weight = 0.0;
  for (size_t m = 0; m < prep.weights.size(); ++m) {
    if (prep.weights[m] > best_weight) {
      best_weight = prep.weights[m];
      prep.marker = static_cast<int>(m);
    }
  }
  if (prep.marker < 0) {
    prep.unmatched = true;
    return prep;
  }
  prep.phrase_vec = embedder_->Represent(opinion.phrase);
  return prep;
}

void Aggregator::Fold(extract::ExtractedOpinion opinion,
                      PreparedOpinion prepared,
                      SubjectiveTables* tables) const {
  tables->extraction_attribute.push_back(prepared.attribute);
  tables->extraction_marker.push_back(prepared.marker);
  tables->extraction_margin.push_back(prepared.margin);
  if (prepared.unmatched) {
    tables->summaries[prepared.attribute][opinion.entity].AddUnmatched();
  } else if (prepared.marker >= 0) {
    tables->summaries[prepared.attribute][opinion.entity].AddPhrase(
        prepared.weights, opinion.sentiment, prepared.phrase_vec,
        opinion.review);
  }
  tables->extractions.push_back(std::move(opinion));
}

}  // namespace opinedb::core
