#ifndef OPINEDB_DATAGEN_SCALE_H_
#define OPINEDB_DATAGEN_SCALE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/domain_spec.h"
#include "storage/table.h"

namespace opinedb::datagen {

/// Parameters of a large synthetic fixture (docs/SCALING.md). The
/// regular generator renders full review text and pushes every review
/// through extraction, which is O(reviews) and tops out around a few
/// thousand entities in reasonable wall time. The scale path instead
/// trains all models on a small "vocabulary" sub-corpus and then
/// synthesizes marker summaries for the full entity set directly — the
/// data plane (aggregated summaries, objective columns) is full-size
/// while the text plane stays small.
struct ScaleSpec {
  /// Total entities in the fixture (summaries + objective rows).
  size_t num_entities = 100000;
  /// Entities that carry real rendered reviews; every model (word2vec,
  /// extractor, interpreter variations) trains on these.
  size_t vocab_entities = 96;
  /// Synthesized opinion mass (fractional phrase count) per entity,
  /// drawn uniformly from [min, max] and split across attributes.
  double min_opinion_mass = 10.0;
  double max_opinion_mass = 100.0;
  /// Attribute popularity skew: attribute a receives mass proportional
  /// to 1 / (a + 1)^zipf_exponent, mirroring the long-tailed aspect
  /// frequency of real review corpora.
  double zipf_exponent = 1.1;
  /// word2vec dimensionality; small by default so centroid columns at
  /// 1M entities stay in the hundreds of megabytes.
  size_t embedding_dim = 16;
  /// Labeled sentences for extractor training on the vocab corpus.
  size_t extractor_sentences = 400;
  /// Sampled (entity, marker) tuples for membership-model training;
  /// 0 skips training and leaves the heuristic membership function.
  size_t membership_tuples = 512;
  /// Engine worker threads (1 = serial; benchmarks sweep this).
  size_t num_threads = 1;
  uint64_t seed = 42;
};

/// A built engine plus the ground truth the synthesis used, for
/// benchmarks and differential tests.
struct ScaledFixture {
  ScaleSpec spec;
  DomainSpec domain;
  std::unique_ptr<core::OpineDb> db;
  /// Latent per-entity quality in [0, 1]; marker histograms concentrate
  /// around position (1 - quality) * (K - 1) of each linear scale.
  std::vector<double> quality;
  /// One predicate per (attribute, marker) — exactly the phrases the
  /// interpreter resolves through its word2vec variation table.
  std::vector<std::string> subjective_predicates;
  /// Name of the installed objective table ("hotels").
  std::string table_name;
  /// A copy of the rows installed under `table_name`, for reference
  /// evaluators that check the engine from outside.
  storage::Table objective_table;
};

/// Builds a deterministic fixture: same spec -> bit-identical engine
/// state (summaries, objective rows, models). See ScaleSpec for the
/// vocab-subcorpus construction. The returned engine has an objective
/// table with one row per entity.
ScaledFixture BuildScaledFixture(const ScaleSpec& spec);

}  // namespace opinedb::datagen

#endif  // OPINEDB_DATAGEN_SCALE_H_
