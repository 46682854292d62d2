#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "common/bytes.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/columnar.h"
#include "core/degree_cache.h"
#include "core/exec_ops.h"
#include "core/marker_induction.h"
#include "core/serialize.h"
#include "obs/metrics.h"
#include "storage/snapshot_store.h"
#include "text/tokenizer.h"

namespace opinedb::core {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Section names inside a database snapshot container.
constexpr char kSchemaSection[] = "schema";
constexpr char kSummariesSection[] = "summaries";
constexpr char kInterpCacheSection[] = "interp_cache";

// ------------------------------------------------ WAL batch payloads.
// The engine's encoding of one AppendReviews batch into one opaque WAL
// record: u32 review count, then per review u32 entity | u32 reviewer |
// u32 date | u64 body length | body bytes, little-endian through
// common/bytes.h. Review ids are NOT encoded — replay re-assigns them by
// append order, which reproduces the live assignment exactly.

std::string EncodeReviewBatch(const std::vector<text::Review>& reviews) {
  std::string out;
  AppendU32(static_cast<uint32_t>(reviews.size()), &out);
  for (const auto& review : reviews) {
    AppendU32(static_cast<uint32_t>(review.entity), &out);
    AppendU32(static_cast<uint32_t>(review.reviewer), &out);
    AppendU32(static_cast<uint32_t>(review.date), &out);
    AppendU64(review.body.size(), &out);
    out.append(review.body);
  }
  return out;
}

Result<std::vector<text::Review>> DecodeReviewBatch(
    const std::string& payload) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadU32(payload, &pos, &count)) {
    return Status::ParseError("WAL batch: truncated count");
  }
  // The record passed its CRC, so a decode failure here means an
  // encoder/decoder skew, not disk corruption — still an error, never
  // a partial apply.
  std::vector<text::Review> reviews;
  reviews.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t entity = 0, reviewer = 0, date = 0;
    uint64_t body_len = 0;
    if (!ReadU32(payload, &pos, &entity) ||
        !ReadU32(payload, &pos, &reviewer) ||
        !ReadU32(payload, &pos, &date) ||
        !ReadU64(payload, &pos, &body_len) ||
        payload.size() - pos < body_len) {
      return Status::ParseError("WAL batch: truncated review " +
                                std::to_string(i));
    }
    text::Review review;
    review.entity = static_cast<text::EntityId>(entity);
    review.reviewer = static_cast<text::ReviewerId>(reviewer);
    review.date = static_cast<int32_t>(date);
    review.body = payload.substr(pos, body_len);
    pos += body_len;
    reviews.push_back(std::move(review));
  }
  if (pos != payload.size()) {
    return Status::ParseError("WAL batch: trailing bytes");
  }
  return reviews;
}

/// Interpretation-cache consult/fill for one subjective predicate,
/// shared by ExecuteQuery and PredicateDegreeOfTruth. The cascade output
/// is a pure function of (normalized predicate, epoch), so a hit skips
/// `compute` (the w2v / co-occurrence lookups and the embedding
/// prologue) whole. On a miss the computed entry is filled only when
/// `fill` allows it and the interpretation is full-fidelity: a degraded
/// entry would be served forever while the underlying fault is long
/// gone. Cache failures are absorbed; the caller always gets an entry.
template <typename Compute>
cache::InterpretationCache::Entry InterpretThroughCache(
    cache::InterpretationCache* interp_cache, const std::string& predicate,
    uint64_t epoch, bool fill, Compute&& compute) {
  std::string key;
  if (interp_cache != nullptr) {
    key = NormalizePredicate(predicate);
    try {
      OPINEDB_FAULT("cache.interp_lookup");
      cache::InterpretationCache::Entry entry;
      if (interp_cache->Lookup(key, epoch, &entry)) {
        OPINEDB_METRIC_COUNT("engine.cache.interp_hit", 1);
        return entry;
      }
      OPINEDB_METRIC_COUNT("engine.cache.interp_miss", 1);
    } catch (const std::exception&) {
      OPINEDB_METRIC_COUNT("engine.fallback.interp_cache", 1);
    }
  }
  cache::InterpretationCache::Entry entry = compute();
  if (interp_cache != nullptr && fill && !entry.interpretation.degraded) {
    try {
      OPINEDB_FAULT("cache.interp_insert");
      entry.epoch = epoch;
      interp_cache->Insert(key, entry);
    } catch (const std::exception&) {
      OPINEDB_METRIC_COUNT("engine.fallback.interp_cache", 1);
    }
  }
  return entry;
}

/// The uniform rejection every mutating entry point returns while the
/// engine is in follower mode (SetReadOnly(true)).
Status ReadOnlyError(const char* op) {
  return Status::FailedPrecondition(
      std::string(op) +
      " rejected: engine is read-only (replication follower); state "
      "changes arrive only through the replication client — Promote() "
      "to accept writes");
}

}  // namespace

struct OpineDb::PreparedBatch {
  /// The batch's reviews, ids pre-assigned in append order.
  std::vector<text::Review> reviews;
  /// Per review, Build step 1's shifted document sentiment.
  std::vector<double> sentiment;
  /// Every extracted opinion, in review order, with its prepared fold.
  std::vector<extract::ExtractedOpinion> opinions;
  std::vector<Aggregator::PreparedOpinion> prepared;
  /// Entities the batch touches, sorted and deduplicated.
  std::vector<text::EntityId> touched;
};

OpineDb::~OpineDb() = default;

std::unique_ptr<OpineDb> OpineDb::Build(
    text::ReviewCorpus corpus, SubjectiveSchema schema,
    const extract::ExtractionPipeline& pipeline, EngineOptions options) {
  std::unique_ptr<OpineDb> owned(new OpineDb());
  OpineDb& db = *owned;
  db.corpus_ = std::move(corpus);
  db.schema_ = std::move(schema);
  db.options_ = options;
  if (options.trace_level >= obs::TraceLevel::kStats) {
    // Only ever *enable* here: another engine in the process may have
    // turned metrics on already. SetTraceLevel sets both directions.
    obs::SetMetricsEnabled(true);
  }
  if (ThreadPool::ResolveThreads(options.num_threads) > 1) {
    db.pool_ = std::make_unique<ThreadPool>(options.num_threads);
  }
  if (options.cache.enable_interpretation) {
    db.interp_cache_ = std::make_unique<cache::InterpretationCache>();
  }
  if (options.cache.enable_results) {
    db.result_cache_ = std::make_unique<cache::ResultCache>(
        options.cache.result_cache_bytes);
  }

  // 1. Tokenize reviews; build the review index (one document per
  //    review), the entity index (all reviews of an entity concatenated,
  //    as in the GZ12 text-retrieval method) and the sentiment scores.
  text::Tokenizer tokenizer;
  std::vector<std::vector<std::string>> sentences;
  std::vector<std::vector<std::string>> entity_docs(
      db.corpus_.num_entities());
  db.review_sentiment_.reserve(db.corpus_.num_reviews());
  for (const auto& review : db.corpus_.reviews()) {
    for (const auto& sentence :
         text::Tokenizer::SplitSentences(review.body)) {
      sentences.push_back(tokenizer.Tokenize(sentence));
    }
    auto tokens = tokenizer.Tokenize(review.body);
    auto& doc = entity_docs[review.entity];
    doc.insert(doc.end(), tokens.begin(), tokens.end());
    db.review_index_.AddDocument(tokens);
    // Shift sentiment into (0, 1]-ish so BM25*senti keeps mild negatives
    // ranked below mild positives without zeroing everything.
    db.review_sentiment_.push_back(
        std::max(0.0, db.analyzer_.ScoreDocument(review.body)) + 0.05);
  }
  for (auto& doc : entity_docs) {
    db.entity_index_.AddDocument(doc);
  }

  // 2. Train corpus embeddings and the phrase embedder.
  db.embeddings_ = embedding::WordEmbeddings::TrainSgns(sentences,
                                                        options.w2v);
  const index::InvertedIndex* review_index = &db.review_index_;
  db.embedder_ = std::make_unique<embedding::PhraseEmbedder>(
      &db.embeddings_,
      [review_index](std::string_view token) {
        return review_index->Idf(token) + 0.1;
      });

  // 3. Attribute classifier from schema seeds (with w2v expansion).
  db.classifier_ = AttributeClassifier::Train(db.schema_, db.embeddings_,
                                              options.seed_expansions);

  // 4. Extraction (reviews fan out across the pool).
  auto extractions = pipeline.ExtractFromCorpus(db.corpus_, db.pool_.get());

  // 5. Populate linguistic domains and induce markers where the designer
  //    left them unspecified.
  {
    std::vector<std::vector<std::string>> domains(
        db.schema_.num_attributes());
    for (const auto& opinion : extractions) {
      const int a = db.classifier_.Classify(opinion.aspect, opinion.opinion);
      if (a >= 0 && static_cast<size_t>(a) < domains.size()) {
        domains[a].push_back(opinion.phrase);
      }
    }
    for (size_t a = 0; a < db.schema_.num_attributes(); ++a) {
      auto& attribute = db.schema_.attributes[a];
      // Deduplicate the linguistic domain.
      std::sort(domains[a].begin(), domains[a].end());
      domains[a].erase(std::unique(domains[a].begin(), domains[a].end()),
                       domains[a].end());
      attribute.linguistic_domain = domains[a];
      if (attribute.summary_type.markers.empty()) {
        if (attribute.summary_type.kind == SummaryKind::kLinearlyOrdered) {
          attribute.summary_type = InduceLinearMarkers(
              attribute.name, attribute.linguistic_domain,
              options.induced_markers, db.analyzer_);
        } else {
          attribute.summary_type = InduceCategoricalMarkers(
              attribute.name, attribute.linguistic_domain,
              options.induced_markers, *db.embedder_);
        }
      }
    }
  }

  // 6. Aggregate extractions onto marker summaries.
  db.aggregator_ = std::make_unique<Aggregator>(
      &db.schema_, &db.classifier_, db.embedder_.get(), &db.analyzer_);
  db.tables_ = db.aggregator_->Build(db.corpus_, std::move(extractions),
                                     options.aggregation, db.pool_.get());
  // Retain the trained pipeline so AppendReviews can extract from new
  // reviews identically, and record that the relation just built IS the
  // source of the summaries (the Reaggregate precondition).
  db.pipeline_ = pipeline;
  db.extractions_authoritative_ = true;

  db.RebuildDerivedState();
  return owned;
}

void OpineDb::RebuildDerivedState() {
  // Per-(attribute, entity) extraction lists (the no-marker scan path).
  extraction_lists_.assign(
      schema_.num_attributes(),
      std::vector<std::vector<size_t>>(corpus_.num_entities()));
  AppendExtractionLists(0);
  interpreter_ = std::make_unique<Interpreter>(
      &schema_, &tables_, embedder_.get(), &review_index_,
      &review_sentiment_, options_.interpreter);
  // The columnar mirror shadows tables_.summaries; every caller of this
  // function holds the exclusive reconfiguration lock (or is Build,
  // before the engine is shared), so mirror and rows swap atomically
  // with respect to queries.
  columnar_ = std::make_unique<ColumnarSummaryStore>(
      tables_, corpus_.num_entities(), pool_.get());
}

void OpineDb::AppendExtractionLists(size_t from) {
  for (size_t i = from; i < tables_.extractions.size(); ++i) {
    const int a = tables_.extraction_attribute[i];
    if (a < 0) continue;
    extraction_lists_[a][tables_.extractions[i].entity].push_back(i);
  }
}

Status OpineDb::SetObjectiveTable(storage::Table table) {
  if (table.num_rows() != corpus_.num_entities()) {
    return Status::InvalidArgument(
        "objective table must have one row per entity (" +
        std::to_string(corpus_.num_entities()) + " expected, got " +
        std::to_string(table.num_rows()) + ")");
  }
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  const std::string name = table.name();
  Status status = catalog_.AddTable(std::move(table));
  if (!status.ok()) return status;
  // Mirror the rows into columns once; predicates sweep the mirror from
  // then on.
  objective_columns_[name] =
      std::make_unique<ColumnarTable>(**catalog_.GetTable(name));
  return Status::OK();
}

const ColumnarTable& OpineDb::objective_columns(
    const storage::Table& table) const {
  return *objective_columns_.at(table.name());
}

Status OpineDb::InstallSummaries(
    std::vector<std::vector<MarkerSummary>> summaries) {
  if (summaries.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "InstallSummaries: got " + std::to_string(summaries.size()) +
        " attributes, engine has " +
        std::to_string(schema_.num_attributes()));
  }
  for (size_t a = 0; a < summaries.size(); ++a) {
    if (summaries[a].size() != corpus_.num_entities()) {
      return Status::InvalidArgument(
          "InstallSummaries: attribute " + std::to_string(a) + " covers " +
          std::to_string(summaries[a].size()) + " entities, corpus has " +
          std::to_string(corpus_.num_entities()));
    }
  }
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (read_only_) return ReadOnlyError("InstallSummaries");
  tables_.summaries = std::move(summaries);
  // The extraction relation described the replaced summaries' sources;
  // same post-state as OpenDatabase (summaries only, re-derivable rest).
  tables_.extractions.clear();
  tables_.extraction_attribute.clear();
  tables_.extraction_marker.clear();
  tables_.extraction_margin.clear();
  extractions_authoritative_ = false;
  RebuildDerivedState();
  InvalidateCachesLocked();
  return Status::OK();
}

Status OpineDb::TrainMembership(
    const std::vector<MembershipModel::LabeledTuple>& tuples,
    uint64_t seed) {
  for (size_t i = 0; i < tuples.size(); ++i) {
    Status valid = ValidateFeatureVector(tuples[i].features);
    if (!valid.ok()) {
      return Status::InvalidArgument("labeled tuple " + std::to_string(i) +
                                     ": " + valid.message());
    }
  }
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (read_only_) return ReadOnlyError("TrainMembership");
  membership_ = MembershipModel::Train(tuples, seed);
  // A new membership model changes every degree of truth the engine
  // emits: cached results, interpretations-with-degrees and degree
  // lists all describe the old model. (The degree-cache clear here is a
  // bugfix — TrainMembership previously left stale lists resident.)
  InvalidateCachesLocked();
  return Status::OK();
}

void OpineDb::InvalidateCachesLocked() {
  const uint64_t epoch =
      cache_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (result_cache_ != nullptr) result_cache_->Clear();
  if (interp_cache_ != nullptr) interp_cache_->Clear();
  if (degree_cache_ != nullptr) {
    // The exclusive reconfiguration lock provides the external
    // synchronization Clear() demands (no concurrent readers, no
    // outstanding references).
    degree_cache_->Clear();
  }
  OPINEDB_METRIC_GAUGE_SET("engine.cache.epoch", static_cast<double>(epoch));
}

void OpineDb::ConfigureCaches(const cache::CacheConfig& config) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  options_.cache = config;
  if (config.enable_interpretation) {
    // A live layer keeps its warm entries.
    if (interp_cache_ == nullptr) {
      interp_cache_ = std::make_unique<cache::InterpretationCache>();
    }
  } else {
    interp_cache_.reset();
  }
  if (config.enable_results) {
    // Always rebuilt: the byte budget is a constructor parameter, and a
    // fresh empty cache is cheap next to any real serving mix.
    result_cache_ = std::make_unique<cache::ResultCache>(
        config.result_cache_bytes);
  } else {
    result_cache_.reset();
  }
}

Status OpineDb::Reaggregate(const AggregationOptions& aggregation) {
  // Exclusive: in-flight queries hold reconfig_mu_ shared for their
  // whole run, so nothing reads tables_/interpreter_ mid-rebuild.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (read_only_) return ReadOnlyError("Reaggregate");
  if (!extractions_authoritative_) {
    // After InstallSummaries/OpenDatabase the extraction relation is
    // empty (or describes older data): rebuilding summaries from it
    // would silently replace the installed data with nothing.
    return Status::FailedPrecondition(
        "Reaggregate rebuilds summaries from the extraction relation, "
        "but this engine's relation is not the source of its served "
        "summaries (InstallSummaries/OpenDatabase replaced them) — "
        "re-extract via Build instead");
  }
  options_.aggregation = aggregation;
  auto extractions = std::move(tables_.extractions);
  tables_ = aggregator_->Build(corpus_, std::move(extractions), aggregation,
                               pool_.get());
  RebuildDerivedState();
  // Every cached artifact (results, interpretations, degree lists) was
  // computed against the old summaries; serving any of them now would
  // silently ignore the re-aggregation.
  InvalidateCachesLocked();
  return Status::OK();
}

void OpineDb::SetNumThreads(size_t num_threads) {
  // Exclusive: ExecuteQuery snapshots pool_.get() for the duration of a
  // query; swapping the pool under it would be a use-after-free. The
  // lock waits for running queries to drain first.
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  options_.num_threads = num_threads;
  if (ThreadPool::ResolveThreads(num_threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads);
  } else {
    pool_.reset();
  }
}

void OpineDb::SetTraceLevel(obs::TraceLevel level) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  options_.trace_level = level;
  obs::SetMetricsEnabled(level >= obs::TraceLevel::kStats);
}

void OpineDb::AttachDegreeCache(DegreeCache* cache) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  degree_cache_ = cache;
}

Status OpineDb::SaveDatabase(const std::string& dir) const {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (read_only_) return ReadOnlyError("SaveDatabase");
  if (wal_.has_value()) {
    // An out-of-band save advances snapshot_generation_ away from the
    // active segment's base: later appends would journal into a segment
    // recovery no longer replays. Checkpoint() rotates the segment
    // under the same writer-mutex hold as the save.
    return Status::FailedPrecondition(
        "SaveDatabase while a WAL is enabled would orphan the active "
        "segment; use Checkpoint()");
  }
  auto generation = CommitSnapshot(dir);
  if (!generation.ok()) return generation.status();
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  PublishGenerationLocked(*generation);
  return Status::OK();
}

Result<uint64_t> OpineDb::CommitSnapshot(const std::string& dir) const {
  // write_mu_ (held by the caller) keeps every writer out, so the
  // schema/summaries pair below is a consistent cut; the shared lock
  // only keeps ConfigureCaches from swapping interp_cache_ mid-save.
  // Queries run throughout.
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  Timer timer;
  std::ostringstream schema_bytes;
  Status status = SaveSchema(schema_, &schema_bytes);
  if (!status.ok()) return status;
  std::ostringstream summaries_bytes;
  status = SaveSummaries(tables_, &summaries_bytes);
  if (!status.ok()) return status;

  std::vector<storage::SnapshotSection> sections(2);
  sections[0].name = kSchemaSection;
  sections[0].payload = std::move(schema_bytes).str();
  sections[1].name = kSummariesSection;
  sections[1].payload = std::move(summaries_bytes).str();
  // A warm interpretation cache rides along so a reopened database
  // serves warm (docs/CACHING.md). Derived data: older snapshots
  // without the section (and engines without the layer) stay valid,
  // and OpenDatabase treats a corrupt section as a cold open. Only
  // current-epoch entries are saved: the open re-tags every loaded
  // entry with its fresh epoch, so a stale one would come back valid.
  if (interp_cache_ != nullptr && interp_cache_->size() > 0) {
    std::ostringstream interp_bytes;
    status = cache::SaveInterpretationCache(
        *interp_cache_, cache_epoch_.load(std::memory_order_relaxed),
        &interp_bytes);
    if (!status.ok()) return status;
    storage::SnapshotSection interp_section;
    interp_section.name = kInterpCacheSection;
    interp_section.payload = std::move(interp_bytes).str();
    sections.push_back(std::move(interp_section));
  }
  storage::SnapshotStore store(dir);
  auto generation = store.Commit(sections);
  if (!generation.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.save_failures", 1);
    return generation.status();
  }
  OPINEDB_METRIC_COUNT("storage.snapshot.saves", 1);
  OPINEDB_METRIC_LATENCY_MS("storage.snapshot.save_ms",
                            timer.ElapsedMillis());
  return *generation;
}

void OpineDb::PublishGenerationLocked(uint64_t generation) const {
  snapshot_generation_.store(generation, std::memory_order_relaxed);
  OPINEDB_METRIC_GAUGE_SET("storage.snapshot.generation",
                           static_cast<double>(generation));
}

Status OpineDb::OpenDatabase(const std::string& dir) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  Timer timer;
  storage::SnapshotStore store(dir);
  auto snapshot = store.Recover();
  if (!snapshot.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return snapshot.status();
  }
  const std::string* schema_payload = snapshot->Find(kSchemaSection);
  const std::string* summaries_payload = snapshot->Find(kSummariesSection);
  if (schema_payload == nullptr || summaries_payload == nullptr) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return Status::DataLoss(
        "snapshot generation " + std::to_string(snapshot->generation) +
        " verified but lacks a schema/summaries section");
  }

  // Parse and vet the whole snapshot before touching any engine state:
  // a payload that fails to decode leaves the engine exactly as it was.
  std::istringstream schema_stream(*schema_payload);
  auto schema = LoadSchema(&schema_stream);
  if (!schema.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return schema.status();
  }
  std::istringstream summaries_stream(*summaries_payload);
  // Summaries bind marker-cell pointers into schema->attributes' heap
  // buffer; the vector moves below transfer that buffer wholesale, so
  // the bindings survive into schema_.
  auto tables = LoadSummaries(*schema, &summaries_stream);
  if (!tables.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return tables.status();
  }
  const size_t snapshot_entities =
      tables->summaries.empty() ? 0 : tables->summaries[0].size();
  if (snapshot_entities != corpus_.num_entities()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return Status::InvalidArgument(
        "snapshot covers " + std::to_string(snapshot_entities) +
        " entities but this engine's corpus has " +
        std::to_string(corpus_.num_entities()));
  }

  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  schema_ = std::move(*schema);
  tables_.summaries = std::move(tables->summaries);
  // Summaries are the queryable state; the extraction relation was not
  // persisted and anything left from the pre-open build describes the
  // old schema/tables.
  tables_.extractions.clear();
  tables_.extraction_attribute.clear();
  tables_.extraction_marker.clear();
  tables_.extraction_margin.clear();
  extractions_authoritative_ = false;
  // The journal (if any) belonged to the replaced state; EnableWal
  // again to pair with the opened generation and replay its tail.
  wal_.reset();
  wal_dir_.clear();
  RebuildDerivedState();
  // Every cache layer described the replaced summaries; the epoch bump
  // invalidates them wholesale.
  InvalidateCachesLocked();
  // Warm-start the interpretation cache from the snapshot's optional
  // section, tagged with the fresh epoch. Strictly an optimization:
  // an old-format snapshot (no section) or a corrupt payload opens
  // cold, never fails the open — unlike schema/summaries, this data is
  // re-derivable by simply executing queries.
  if (interp_cache_ != nullptr) {
    const std::string* interp_payload = snapshot->Find(kInterpCacheSection);
    if (interp_payload != nullptr) {
      std::istringstream interp_stream(*interp_payload);
      const Status warm = cache::LoadInterpretationCache(
          &interp_stream, cache_epoch_.load(std::memory_order_relaxed),
          interp_cache_.get());
      if (warm.ok()) {
        OPINEDB_METRIC_COUNT("engine.cache.warm_entries",
                             interp_cache_->size());
      } else {
        OPINEDB_METRIC_COUNT("engine.cache.warm_load_failures", 1);
      }
    }
  }
  snapshot_generation_.store(snapshot->generation,
                             std::memory_order_relaxed);
  OPINEDB_METRIC_COUNT("storage.snapshot.loads", 1);
  OPINEDB_METRIC_GAUGE_SET("storage.snapshot.generation",
                           static_cast<double>(snapshot->generation));
  OPINEDB_METRIC_LATENCY_MS("storage.snapshot.load_ms",
                            timer.ElapsedMillis());
  return Status::OK();
}

Status OpineDb::AppendReviews(const std::vector<text::Review>& reviews) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (read_only_) return ReadOnlyError("AppendReviews");
  return ApplyReviews(reviews, /*journal=*/true);
}

Status OpineDb::ValidateBatch(const std::vector<text::Review>& reviews) const {
  if (!pipeline_.has_value()) {
    return Status::FailedPrecondition(
        "AppendReviews requires the extraction pipeline retained by "
        "Build");
  }
  if (options_.aggregation.min_reviewer_reviews.has_value()) {
    // Retroactive filter: a reviewer's pre-existing reviews can cross
    // the threshold mid-append, which would require re-weighing
    // opinions already folded into the summaries — an additive fold
    // cannot express that. Reaggregate (full rebuild) can.
    return Status::FailedPrecondition(
        "AppendReviews cannot maintain min_reviewer_reviews "
        "incrementally (the filter is retroactive); use Reaggregate");
  }
  for (size_t i = 0; i < reviews.size(); ++i) {
    const text::EntityId entity = reviews[i].entity;
    if (entity < 0 ||
        static_cast<size_t>(entity) >= corpus_.num_entities()) {
      return Status::InvalidArgument(
          "AppendReviews: review " + std::to_string(i) +
          " names entity " + std::to_string(entity) + ", corpus has " +
          std::to_string(corpus_.num_entities()));
    }
  }
  return Status::OK();
}

OpineDb::PreparedBatch OpineDb::PrepareBatch(
    const std::vector<text::Review>& reviews) const {
  PreparedBatch batch;
  batch.reviews = reviews;
  // Ids are what the corpus will assign on append: batches are ordered
  // by write_mu_, so nothing else can append in between.
  const size_t first_id = corpus_.num_reviews();
  for (size_t i = 0; i < batch.reviews.size(); ++i) {
    text::Review& review = batch.reviews[i];
    review.id = static_cast<text::ReviewId>(first_id + i);
    // Same shift as Build step 1 — the scoring paths index
    // review_sentiment_ by review id.
    batch.sentiment.push_back(
        std::max(0.0, analyzer_.ScoreDocument(review.body)) + 0.05);
    for (auto& opinion : pipeline_->ExtractFromReview(review)) {
      batch.prepared.push_back(aggregator_->Prepare(
          opinion, review, corpus_, options_.aggregation));
      batch.opinions.push_back(std::move(opinion));
    }
    batch.touched.push_back(review.entity);
  }
  std::sort(batch.touched.begin(), batch.touched.end());
  batch.touched.erase(
      std::unique(batch.touched.begin(), batch.touched.end()),
      batch.touched.end());
  return batch;
}

void OpineDb::FoldBatchLocked(PreparedBatch batch) {
  for (size_t i = 0; i < batch.reviews.size(); ++i) {
    text::Review& review = batch.reviews[i];
    corpus_.AddReview(review.entity, review.reviewer, review.date,
                      std::move(review.body));
    review_sentiment_.push_back(batch.sentiment[i]);
  }
  // Fold the delta. Aggregator::Fold is exactly Build's per-extraction
  // fold, so appending in order is bit-identical to a full rebuild over
  // the extended corpus (the models Prepare consulted — classifier,
  // embedder, analyzer, review-index idf — are frozen).
  const size_t old_size = tables_.extractions.size();
  for (size_t i = 0; i < batch.opinions.size(); ++i) {
    aggregator_->Fold(std::move(batch.opinions[i]),
                      std::move(batch.prepared[i]), &tables_);
  }
  // Patch the derived state in place (a full RebuildDerivedState here
  // would defeat the point of the delta path).
  AppendExtractionLists(old_size);
  interpreter_->AppendNewExtractions();
  columnar_->UpdateEntities(tables_, batch.touched);

  // Surgical cache maintenance — the whole reason ingest is not a
  // Reaggregate. One epoch bump expires result- and interpretation-cache
  // entries lazily (a ranking may depend on every entity, so per-entity
  // invalidation is unsound there; a stale interpretation is a miss that
  // the next lookup re-derives from the post-ingest interpreter), while
  // the degree cache keeps its warm set.
  const uint64_t epoch =
      cache_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (degree_cache_ != nullptr) {
    // In-place refresh: untouched entities' slots (the warm working
    // set) survive; only touched slots are rescored.
    degree_cache_->RefreshAfterIngest(batch.touched);
  }
  OPINEDB_METRIC_GAUGE_SET("engine.cache.epoch",
                           static_cast<double>(epoch));
}

Status OpineDb::ApplyReviews(const std::vector<text::Review>& reviews,
                             bool journal) {
  if (reviews.empty()) return Status::OK();
  obs::TraceSpan span("ingest.append");
  Timer timer;
  PreparedBatch batch;
  {
    // Shared: write_mu_ already keeps every other writer out, so the
    // frozen models, the corpus size and the journal cannot move, and
    // queries keep running through extraction and the fsync.
    std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
    Status valid = ValidateBatch(reviews);
    if (!valid.ok()) return valid;
    batch = PrepareBatch(reviews);
    // Journal before any state changes: once Append returns OK the
    // batch is fsync-durable. An error here means nothing was applied —
    // the caller can retry the whole batch.
    if (journal && wal_.has_value()) {
      Timer wal_timer;
      Status appended = wal_->Append(EncodeReviewBatch(reviews));
      if (!appended.ok()) return appended;
      OPINEDB_METRIC_LATENCY_MS("storage.wal.append_ms",
                                wal_timer.ElapsedMillis());
    }
  }
  const size_t num_opinions = batch.opinions.size();
  const size_t num_touched = batch.touched.size();
  {
    std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
    Timer exclusive;
    FoldBatchLocked(std::move(batch));
    OPINEDB_METRIC_LATENCY_MS("engine.ingest.exclusive_ms",
                              exclusive.ElapsedMillis());
  }

  span.AddAttribute("reviews", static_cast<uint64_t>(reviews.size()));
  span.AddAttribute("opinions", static_cast<uint64_t>(num_opinions));
  span.AddAttribute("entities_touched", static_cast<uint64_t>(num_touched));
  span.AddAttribute("replay", !journal);
  OPINEDB_METRIC_COUNT("engine.ingest.batches", 1);
  OPINEDB_METRIC_COUNT("engine.ingest.reviews", reviews.size());
  OPINEDB_METRIC_COUNT("engine.ingest.opinions", num_opinions);
  OPINEDB_METRIC_COUNT("engine.ingest.entities_touched", num_touched);
  OPINEDB_METRIC_LATENCY_MS("engine.ingest.apply_ms",
                            timer.ElapsedMillis());
  return Status::OK();
}

bool OpineDb::wal_enabled() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return wal_.has_value() && wal_->is_open();
}

bool OpineDb::wal_broken() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return wal_.has_value() && !wal_->is_open();
}

uint64_t OpineDb::wal_acknowledged_bytes() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return wal_.has_value() ? wal_->size() : 0;
}

std::string OpineDb::wal_dir() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return wal_dir_;
}

void OpineDb::SetReadOnly(bool read_only) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  read_only_ = read_only;
  OPINEDB_METRIC_GAUGE_SET("repl.read_only", read_only ? 1.0 : 0.0);
}

bool OpineDb::read_only() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return read_only_;
}

Status OpineDb::Promote() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (!read_only_) {
    return Status::FailedPrecondition(
        "Promote: engine already accepts writes (not a follower)");
  }
  if (!wal_.has_value() || !wal_->is_open()) {
    // A primary that cannot journal would accept writes it may lose;
    // refuse and leave the follower consistent.
    return Status::FailedPrecondition(
        "Promote requires a healthy WAL (EnableWal, not broken)");
  }
  if (OPINEDB_FAULT_HIT("repl.promote")) {
    return Status::Internal("injected fault at repl.promote");
  }
  // Nothing to replay: ApplyReplicatedRecord applies each record under
  // the same writer-mutex hold that journals it, and EnableWal replayed
  // the durable tail at startup — the in-memory state already equals the
  // verified WAL. Flipping the flag is the whole promotion.
  read_only_ = false;
  OPINEDB_METRIC_COUNT("repl.promotions", 1);
  OPINEDB_METRIC_GAUGE_SET("repl.read_only", 0.0);
  return Status::OK();
}

Result<size_t> OpineDb::ApplyReplicatedRecord(const std::string& payload) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (!read_only_) {
    return Status::FailedPrecondition(
        "ApplyReplicatedRecord: engine is not in follower mode "
        "(SetReadOnly first — a primary applying shipped records would "
        "fork the log)");
  }
  if (!wal_.has_value() || !wal_->is_open()) {
    return Status::FailedPrecondition(
        "ApplyReplicatedRecord requires a healthy follower WAL "
        "(EnableWal first; a broken WAL cannot acknowledge offsets)");
  }
  auto batch = DecodeReviewBatch(payload);
  if (!batch.ok()) return batch.status();
  // journal=true: the follower re-journals the decoded batch.
  // EncodeReviewBatch(DecodeReviewBatch(p)) == p, so the bytes appended
  // here equal the shipped payload and the follower's segment stays
  // byte-identical to the primary's at every acknowledged offset.
  Status applied = ApplyReviews(*batch, /*journal=*/true);
  if (!applied.ok()) return applied;
  OPINEDB_METRIC_COUNT("repl.records_applied", 1);
  return batch->size();
}

Status OpineDb::EnableWal(const std::string& dir) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("EnableWal: create_directories(" + dir +
                            "): " + ec.message());
  }
  const uint64_t base =
      snapshot_generation_.load(std::memory_order_relaxed);
  const std::string path = dir + "/" + storage::WalFileName(base);

  // Recovery half: replay the tail a crash may have left behind. The
  // segment paired with the served generation is read, everything past
  // the first corrupt record is physically truncated away, and each
  // surviving batch re-enters through the exact live-ingest path
  // (minus journaling — these records are already durable).
  size_t replayed = 0;
  auto tail = storage::ReadWal(path);
  if (tail.ok()) {
    if (tail->base_generation != base) {
      // A header naming another generation cannot be trusted to apply
      // on top of the served snapshot: restart the segment empty.
      Status truncated = storage::TruncateWal(path, 0);
      if (!truncated.ok()) return truncated;
      tail->records.clear();
    } else if (tail->truncated) {
      Status truncated = storage::TruncateWal(path, tail->valid_bytes);
      if (!truncated.ok()) return truncated;
    }
    for (const auto& record : tail->records) {
      auto batch = DecodeReviewBatch(record);
      if (!batch.ok()) return batch.status();
      Status applied = ApplyReviews(*batch, /*journal=*/false);
      if (!applied.ok()) return applied;
      ++replayed;
    }
  } else if (tail.status().code() != StatusCode::kNotFound) {
    return tail.status();
  }

  auto writer = storage::WalWriter::Open(path, base);
  if (!writer.ok()) return writer.status();
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  wal_ = std::move(*writer);
  wal_dir_ = dir;
  if (replayed > 0) {
    OPINEDB_METRIC_COUNT("storage.wal.replayed_records", replayed);
  }
  OPINEDB_METRIC_GAUGE_SET("storage.wal.base_generation",
                           static_cast<double>(base));
  return Status::OK();
}

Status OpineDb::Checkpoint() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (read_only_) {
    // A follower rotating its segment out of step with the primary
    // would break generation lockstep; the replication client calls
    // ReplicaCheckpoint when the primary signals segment-complete.
    return ReadOnlyError("Checkpoint");
  }
  if (!wal_.has_value()) {
    return Status::FailedPrecondition("Checkpoint requires EnableWal");
  }
  return CheckpointLocked();
}

Status OpineDb::ReplicaCheckpoint() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (!read_only_) {
    return Status::FailedPrecondition(
        "ReplicaCheckpoint is the follower-side rotation; primaries "
        "use Checkpoint()");
  }
  if (!wal_.has_value()) {
    return Status::FailedPrecondition(
        "ReplicaCheckpoint requires EnableWal");
  }
  return CheckpointLocked();
}

Status OpineDb::CheckpointLocked() {
  Timer timer;
  // write_mu_ keeps appends out from the save to the rotation, so the
  // new generation holds exactly the journaled batches and the new
  // segment starts empty. The save runs beside queries.
  auto generation = CommitSnapshot(wal_dir_);
  if (!generation.ok()) return generation.status();
  // The committed generation contains every journaled batch (they were
  // applied to the live state before acknowledgement), so the old
  // segment is redundant from here on.
  if (OPINEDB_FAULT_HIT("storage.wal_fold")) {
    // Simulated crash between snapshot commit and segment retirement:
    // the stale segment stays on disk — recovery ignores it (its base
    // is older than the newest generation) — and journaling stops,
    // exactly as if the process had died here.
    std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
    PublishGenerationLocked(*generation);
    wal_.reset();
    return Status::Internal("injected crash at storage.wal_fold");
  }
  // Create the successor segment before going exclusive: nothing names
  // the new generation until it is published below.
  auto writer = storage::WalWriter::Open(
      wal_dir_ + "/" + storage::WalFileName(*generation), *generation);
  {
    // Publish and rotate in one exclusive section, so a reader that sees
    // the new generation (the replication source pairs it with
    // wal_acknowledged_bytes()) also sees its segment.
    std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
    Timer exclusive;
    PublishGenerationLocked(*generation);
    if (writer.ok()) {
      wal_ = std::move(*writer);  // Closes the folded segment.
    } else {
      wal_.reset();
    }
    OPINEDB_METRIC_LATENCY_MS("storage.wal.checkpoint_exclusive_ms",
                              exclusive.ElapsedMillis());
  }
  if (!writer.ok()) return writer.status();
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(wal_dir_, ec)) {
    uint64_t segment_base = 0;
    if (!storage::ParseWalFileName(entry.path().filename().string(),
                                   &segment_base)) {
      continue;
    }
    if (segment_base != *generation && !pins_.IsPinned(segment_base)) {
      // A pinned segment is one a lagging follower is actively pulling;
      // retiring it mid-pull would force a needless snapshot catch-up.
      // The pin expires with the follower's session and the next
      // checkpoint retires the segment then.
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
    }
  }
  OPINEDB_METRIC_COUNT("storage.wal.checkpoints", 1);
  OPINEDB_METRIC_LATENCY_MS("storage.wal.checkpoint_ms",
                            timer.ElapsedMillis());
  return Status::OK();
}

double OpineDb::AtomDegreeOfTruth(const AtomInterpretation& atom,
                                  text::EntityId entity,
                                  const embedding::Vec& query_rep,
                                  double query_sentiment) const {
  OPINEDB_FAULT("score.features");
  std::vector<double> features;
  if (options_.use_markers) {
    features = MembershipFeatures(
        tables_.summaries[atom.attribute][entity], atom.marker, query_rep,
        query_sentiment);
  } else {
    features = MembershipFeaturesNoMarkers(
        tables_.extractions, extraction_lists_[atom.attribute][entity],
        *embedder_, query_rep, query_sentiment);
  }
  const double d = membership_.has_value()
                       ? membership_->DegreeOfTruth(features)
                       : HeuristicMembershipDegree(features.data(),
                                                   features.size());
  // Degrees of truth are [0, 1] by contract; one rogue NaN would
  // propagate through every ⊗/⊕ combine and corrupt the ranking
  // comparator's total order.
  if (!std::isfinite(d)) return 0.0;
  return std::clamp(d, 0.0, 1.0);
}

double OpineDb::TextFallbackDegree(const std::string& predicate,
                                   text::EntityId entity) const {
  OPINEDB_FAULT("score.text_fallback");
  text::Tokenizer tokenizer;
  const double bm25 =
      entity_index_.Score(entity, tokenizer.Tokenize(predicate));
  return Sigmoid(bm25 - options_.text_fallback_c);
}

double OpineDb::PredicateDegreeOfTruth(const std::string& predicate,
                                       text::EntityId entity) const {
  // Top-level entry point (like ExecuteQuery): hold the reconfiguration
  // lock shared so tables_/interpreter_ cannot be rebuilt mid-call.
  std::shared_lock<std::shared_mutex> reconfig_lock(reconfig_mu_);
  const auto entry = InterpretThroughCache(
      interp_cache_.get(), predicate,
      cache_epoch_.load(std::memory_order_relaxed), /*fill=*/true, [&] {
        cache::InterpretationCache::Entry computed;
        computed.interpretation = interpreter_->Interpret(predicate);
        computed.rep = embedder_->Represent(predicate);
        computed.sentiment = analyzer_.ScorePhrase(predicate);
        return computed;
      });
  return ConditionScorer(*this, predicate, entry.interpretation, entry.rep,
                         entry.sentiment)
      .Score(static_cast<size_t>(entity));
}

Result<QueryResult> OpineDb::Execute(const std::string& sql,
                                     const QueryControl& control) const {
  auto query = ParseSubjectiveSql(sql);
  if (!query.ok()) return query.status();
  return ExecuteQuery(*query, control);
}

Result<QueryResult> OpineDb::ExecuteQuery(const SubjectiveQuery& query,
                                          const QueryControl& control) const {
  // Shared for the whole query: reconfigurators (Reaggregate,
  // SetNumThreads, AttachDegreeCache, ...) take this exclusively, so
  // the pool/tables/cache snapshotted below stay alive and coherent
  // until we return.
  std::shared_lock<std::shared_mutex> reconfig_lock(reconfig_mu_);
  // Thread the deadline only when there is something to poll, so the
  // unbounded path never pays for (or branches on) expiry checks.
  const QueryDeadline* deadline =
      control.deadline.active() ? &control.deadline : nullptr;
  Timer total;
  Timer phase;
  QueryResult output;
  // Full tracing installs a per-query ring buffer as the calling
  // thread's ambient trace context; every TraceSpan below (and inside
  // the interpreter / degree cache on this thread) records into it.
  // Worker threads never see the context, so spans cannot perturb the
  // parallel-vs-serial bit-identity contract.
  std::optional<obs::TraceScope> trace_scope;
  if (options_.trace_level == obs::TraceLevel::kFull) {
    output.trace = std::make_shared<obs::TraceBuffer>();
    trace_scope.emplace(output.trace.get());
  }
  obs::TraceSpan query_span("execute_query");
  query_span.AddAttribute("table", query.table);
  query_span.AddAttribute("conditions",
                          static_cast<uint64_t>(query.conditions.size()));
  query_span.AddAttribute(
      "threads",
      static_cast<uint64_t>(pool_ != nullptr ? pool_->num_threads() : 1));
  // "Which data am I serving": the snapshot generation behind the
  // summaries (0 = built in-process, never saved/loaded) and the cache
  // epoch, so traces correlate with Reaggregate / OpenDatabase / ingest
  // events. Recorded only when a store/degree cache is in play so
  // pre-persistence trace goldens stay unchanged. The epoch is read
  // once; mutators bump it under the exclusive reconfiguration lock, so
  // it cannot move mid-query.
  const uint64_t snapshot_generation =
      snapshot_generation_.load(std::memory_order_relaxed);
  if (snapshot_generation > 0) {
    query_span.AddAttribute("snapshot_generation", snapshot_generation);
  }
  const uint64_t cache_epoch = cache_epoch_.load(std::memory_order_relaxed);
  if (degree_cache_ != nullptr) {
    query_span.AddAttribute("cache_epoch", cache_epoch);
  }
  auto table_result = catalog_.GetTable(query.table);
  if (!table_result.ok()) return table_result.status();
  const storage::Table* table = *table_result;

  // ----------------------------------------------------- result cache.
  // Consulted before planning: a hit skips the whole pipeline. EXPLAIN
  // and forced-plan queries bypass the cache entirely (EXPLAIN wants
  // this execution's plan text; a forced shape wants this execution's
  // work — serving either from cache would answer a different
  // question).
  const bool result_cacheable = result_cache_ != nullptr && !query.explain &&
                                options_.force_plan == PlanForce::kAuto;
  bool result_cache_fault = false;
  std::string cache_key;
  if (result_cacheable) {
    cache_key = CanonicalQueryKey(query);
    query_span.AddAttribute("query_fingerprint",
                            cache::ResultCache::Fingerprint(cache_key));
    try {
      OPINEDB_FAULT("cache.result_lookup");
      cache::CachedResult hit;
      if (result_cache_->Lookup(cache_key, cache_epoch, &hit)) {
        // Bit-identical to execution by the differential cache-
        // equivalence contract (docs/CACHING.md): results and
        // interpretations, `plan` and `watermark` are the fill-time
        // values, and the trace is this call's own (nothing executed).
        output.results = std::move(hit.results);
        output.interpretations = std::move(hit.interpretations);
        output.plan = hit.plan;
        output.watermark = hit.watermark;
        query_span.AddAttribute("result_cache", "hit");
        query_span.AddAttribute("plan", PlanKindName(output.plan));
        if (options_.trace_level >= obs::TraceLevel::kStats) {
          OPINEDB_METRIC_COUNT("engine.queries", 1);
          OPINEDB_METRIC_COUNT("engine.cache.hit", 1);
          OPINEDB_METRIC_LATENCY_MS("engine.total_ms", total.ElapsedMillis());
          OPINEDB_METRIC_GAUGE_SET(
              "engine.cache.bytes",
              static_cast<double>(result_cache_->bytes()));
          OPINEDB_METRIC_GAUGE_SET("engine.cache.epoch",
                                   static_cast<double>(cache_epoch));
        }
        return output;
      }
      query_span.AddAttribute("result_cache", "miss");
      if (options_.trace_level >= obs::TraceLevel::kStats) {
        OPINEDB_METRIC_COUNT("engine.cache.miss", 1);
      }
    } catch (const std::exception&) {
      // Cache machinery unusable: answer by full execution (complete
      // and bit-identical, but off the preferred path → degraded), and
      // keep this query out of the cache.
      result_cache_fault = true;
      OPINEDB_METRIC_COUNT("engine.fallback.result_cache", 1);
    }
  }

  // ------------------------------------------------------------- plan.
  // Lower the parsed AST into its logical view, then pick the physical
  // operator chain. Every plan shape is bit-identical to the dense scan
  // (see docs/QUERY_PLANNER.md); the planner only trades work.
  const LogicalPlan logical = AnalyzeQuery(query);
  PlannerContext planner_context;
  planner_context.num_entities = corpus_.num_entities();
  planner_context.cache = degree_cache_;
  planner_context.force = options_.force_plan;
  planner_context.variant = options_.variant;
  const PhysicalPlan physical = SelectPlan(query, logical, planner_context);
  output.plan = physical.kind;
  query_span.AddAttribute("plan", PlanKindName(physical.kind));
  if (query.explain) {
    // EXPLAIN plans but does not execute.
    output.plan_text = ExplainPlan(query, logical, physical, planner_context);
    return output;
  }

  // Interpret every subjective condition once, up front (serial: a
  // handful of conditions against thousands of entities).
  const size_t num_conditions = query.conditions.size();
  output.interpretations.resize(num_conditions);
  std::vector<embedding::Vec> reps(num_conditions);
  std::vector<double> sentis(num_conditions, 0.0);
  bool degraded = false;
  {
    OPINEDB_SPAN("interpret");
    for (size_t c = 0; c < num_conditions; ++c) {
      const Condition& condition = query.conditions[c];
      if (condition.kind != Condition::Kind::kSubjective) continue;
      auto entry = InterpretThroughCache(
          interp_cache_.get(), condition.subjective, cache_epoch,
          // A deadline-shaped interpretation may have skipped stages.
          /*fill=*/deadline == nullptr, [&] {
            cache::InterpretationCache::Entry computed;
            try {
              OPINEDB_FAULT("interpret.embed");
              computed.interpretation =
                  interpreter_->Interpret(condition.subjective, deadline);
              computed.rep = embedder_->Represent(condition.subjective);
              computed.sentiment = analyzer_.ScorePhrase(condition.subjective);
            } catch (const std::exception&) {
              // Interpretation machinery unusable for this condition:
              // degrade to the text-retrieval stage (which needs neither
              // the embedding nor the sentiment prologue).
              computed = cache::InterpretationCache::Entry();
              computed.interpretation.degraded = true;
              OPINEDB_METRIC_COUNT("engine.fallback.interpret", 1);
            }
            return computed;
          });
      if (entry.interpretation.degraded) degraded = true;
      output.interpretations[c] = std::move(entry.interpretation);
      reps[c] = std::move(entry.rep);
      sentis[c] = entry.sentiment;
    }
  }
  const double interpret_ms = phase.ElapsedMillis();

  // -------------------------------------------------------------- run.
  ExecContext ctx;
  ctx.db = this;
  ctx.query = &query;
  ctx.logical = &logical;
  ctx.table = table;
  ctx.cache = degree_cache_;
  ctx.output = &output;
  ctx.reps = &reps;
  ctx.sentis = &sentis;
  ctx.num_entities = corpus_.num_entities();
  ctx.deadline = deadline;
  double scoring_ms = 0.0;
  double rank_ms = 0.0;
  phase.Reset();
  try {
    if (physical.kind == PlanKind::kFilteredScan) {
      Status status = ObjectiveFilterOp().Run(&ctx);
      if (!status.ok()) return status;
    }
    Status status = SubjectiveScoreOp().Run(&ctx);
    if (!status.ok()) return status;
    scoring_ms = phase.ElapsedMillis();
    phase.Reset();
    status = RankOp().Run(&ctx);
    if (!status.ok()) return status;
    rank_ms = phase.ElapsedMillis();
  } catch (const std::exception& e) {
    // Backstop: no exception escapes ExecuteQuery. Anything the
    // per-stage fallbacks could not absorb becomes a Status.
    return Status::Internal(std::string("query execution failed: ") +
                            e.what());
  }
  output.partial = ctx.partial;
  output.watermark = ctx.partial ? ctx.watermark : ctx.num_candidates();
  output.degraded = degraded || result_cache_fault ||
                    ctx.degraded.load(std::memory_order_relaxed);
  if (output.partial) {
    query_span.AddAttribute("partial", true);
    OPINEDB_METRIC_COUNT("engine.deadline_exceeded", 1);
  }
  if (output.degraded) query_span.AddAttribute("degraded", true);
  if (options_.trace_level >= obs::TraceLevel::kStats) {
    OPINEDB_METRIC_COUNT("engine.queries", 1);
    OPINEDB_METRIC_COUNT("engine.entities_scored", output.watermark);
    OPINEDB_METRIC_LATENCY_MS("engine.interpret_ms", interpret_ms);
    OPINEDB_METRIC_LATENCY_MS("engine.scoring_ms", scoring_ms);
    OPINEDB_METRIC_LATENCY_MS("engine.rank_ms", rank_ms);
    OPINEDB_METRIC_LATENCY_MS("engine.total_ms", total.ElapsedMillis());
    // Served-state gauges (see the span attributes above): operators
    // scrape these to tell which snapshot generation and which cache
    // epoch answered recent queries.
    OPINEDB_METRIC_GAUGE_SET("storage.snapshot.generation",
                             static_cast<double>(snapshot_generation));
    if (result_cache_ != nullptr || interp_cache_ != nullptr ||
        degree_cache_ != nullptr) {
      OPINEDB_METRIC_GAUGE_SET("engine.cache.epoch",
                               static_cast<double>(cache_epoch));
    }
    // The metric macros cache their instrument in a function-local
    // static, so each plan kind gets its own literal call site.
    switch (physical.kind) {
      case PlanKind::kDenseScan:
        OPINEDB_METRIC_COUNT("engine.plan.dense_scan", 1);
        break;
      case PlanKind::kFilteredScan:
        OPINEDB_METRIC_COUNT("engine.plan.filtered_scan", 1);
        break;
    }
  }
  // --------------------------------------------------------- cache fill.
  // Only full-fidelity answers are cacheable: a partial result reflects
  // this call's deadline, a degraded one reflects a transient failure —
  // both would be served verbatim (and wrongly marked clean) on a hit.
  // The fault site sits before any cache mutation, so a fired fill
  // fault leaves the cache exactly as it was.
  if (result_cacheable && !result_cache_fault && !output.partial &&
      !output.degraded) {
    try {
      OPINEDB_FAULT("cache.result_insert");
      cache::CachedResult value;
      value.results = output.results;
      value.interpretations = output.interpretations;
      value.plan = output.plan;
      value.watermark = output.watermark;
      const size_t evicted =
          result_cache_->Insert(cache_key, cache_epoch, std::move(value));
      if (options_.trace_level >= obs::TraceLevel::kStats) {
        if (evicted > 0) {
          OPINEDB_METRIC_COUNT("engine.cache.evict", evicted);
        }
        OPINEDB_METRIC_GAUGE_SET(
            "engine.cache.bytes",
            static_cast<double>(result_cache_->bytes()));
      }
    } catch (const std::exception&) {
      OPINEDB_METRIC_COUNT("engine.fallback.result_cache", 1);
    }
  }
  return output;
}

}  // namespace opinedb::core
