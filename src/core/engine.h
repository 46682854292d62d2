#ifndef OPINEDB_CORE_ENGINE_H_
#define OPINEDB_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_config.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/aggregator.h"
#include "core/attribute_classifier.h"
#include "core/interpreter.h"
#include "core/membership.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/schema.h"
#include "embedding/phrase_rep.h"
#include "embedding/word2vec.h"
#include "extract/pipeline.h"
#include "fuzzy/logic.h"
#include "index/inverted_index.h"
#include "obs/trace.h"
#include "sentiment/analyzer.h"
#include "storage/pins.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "text/corpus.h"

namespace opinedb::cache {
class InterpretationCache;
class ResultCache;
}  // namespace opinedb::cache

namespace opinedb::core {

/// Engine-wide options.
struct EngineOptions {
  /// Fuzzy-logic variant for combining degrees of truth.
  fuzzy::Variant variant = fuzzy::Variant::kProduct;
  /// When false, membership functions use the no-marker feature path
  /// (scanning the extraction table) — the Table 7 ablation.
  bool use_markers = true;
  /// Constant c of the text-retrieval fallback: degree of truth =
  /// sigmoid(BM25(D, q) - c).
  double text_fallback_c = 4.0;
  /// word2vec training options for the corpus embeddings.
  embedding::Word2VecOptions w2v;
  /// Interpreter thresholds.
  InterpreterOptions interpreter;
  /// Aggregation behaviour.
  AggregationOptions aggregation;
  /// Markers per attribute when markers must be induced automatically.
  size_t induced_markers = 4;
  /// Seed-expansion width for the attribute classifier.
  size_t seed_expansions = 3;
  /// Worker threads for the parallel execution layer: 0 = hardware
  /// concurrency, 1 = the serial path (no pool). Parallel results are
  /// bit-identical to serial — see DESIGN.md "Concurrency model".
  size_t num_threads = 0;
  /// Observability level (see DESIGN.md "Observability"): kOff costs one
  /// branch per instrumentation site, kStats records into the process
  /// MetricsRegistry, kFull additionally captures per-query trace spans
  /// into QueryResult::trace. Tracing never perturbs results: parallel
  /// executions stay bit-identical to serial at every level.
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;
  /// Physical-plan override for ExecuteQuery (kAuto = cost-based
  /// choice). Forcing a shape the query is not eligible for falls back
  /// to the automatic choice; every shape is bit-identical, so this
  /// only trades work — used by plan-equivalence tests and ablations.
  PlanForce force_plan = PlanForce::kAuto;
  /// Result / interpretation caching (both layers default OFF; see
  /// docs/CACHING.md). Reconfigurable at runtime via ConfigureCaches.
  cache::CacheConfig cache;
};

/// Per-call serving controls. Default-constructed = no limits.
struct QueryControl {
  /// Wall-clock budget and/or cancellation token polled at operator
  /// checkpoints (per condition, per chunk). When it
  /// expires mid-query, ExecuteQuery stops starting new work and
  /// returns a QueryResult with partial = true whose ranking is
  /// prefix-consistent: every emitted score is the exact full score.
  /// Configure with QueryDeadline::AfterMillis and/or set_token.
  QueryDeadline deadline;
};

/// One ranked answer.
struct RankedResult {
  text::EntityId entity = 0;
  std::string entity_name;
  /// Final degree of truth of the whole WHERE clause.
  double score = 0.0;
};

/// Execution output: the ranking plus per-predicate interpretations (for
/// explanation / provenance).
struct QueryResult {
  std::vector<RankedResult> results;
  /// For each condition index, the interpretation used (objective
  /// conditions get a default-constructed entry).
  std::vector<PredicateInterpretation> interpretations;
  /// For each condition index, true when the condition is objective: its
  /// `interpretations` slot is a placeholder, not a cascade output.
  std::vector<bool> objective_slots;
  /// Candidate entities scored exactly — for a partial result, the
  /// prefix the ranking is consistent over. Part of the answer (a
  /// result-cache hit restores the fill's value); how the query ran is
  /// in `trace` and the metrics registry.
  size_t watermark = 0;
  /// The physical plan shape the planner chose (see PlanKindName).
  PlanKind plan = PlanKind::kDenseScan;
  /// Rendered plan text; filled only for EXPLAIN statements (which
  /// plan but do not execute, leaving `results` empty).
  std::string plan_text;
  /// Per-query span ring buffer (null unless trace_level == kFull;
  /// overflow keeps the newest spans). Render with trace->RenderTree()
  /// or trace->ToJson().
  std::shared_ptr<obs::TraceBuffer> trace;
  /// True when the QueryControl deadline (or cancellation token) stopped
  /// execution early. The ranking is then prefix-consistent: it equals
  /// the full query's ranking restricted to the candidates scored before
  /// expiry, and every emitted score is the exact full score.
  bool partial = false;
  /// True when any stage fell back to a cheaper path after a failure
  /// (interpreter stage, cache access, per-entity scoring): the
  /// answer is complete but was not produced on the preferred path. See
  /// the engine.fallback.* counters and docs/ROBUSTNESS.md.
  bool degraded = false;
};

class ColumnarSummaryStore;
class ColumnarTable;

/// OpineDB: the subjective database engine (Fig. 4).
///
/// Owns the corpus, the extraction results, the derived marker summaries
/// and all models; executes subjective SQL end to end:
///
///   OpineDb db = OpineDb::Build(corpus, schema, pipeline, options);
///   db.SetObjectiveTable(hotels);   // rows in entity-id order
///   auto result = db.Execute("select * from Hotels where ...");
class OpineDb {
 public:
  /// Builds the full subjective database: trains embeddings on the
  /// corpus, trains the attribute classifier from the schema seeds, runs
  /// the extraction pipeline, induces markers where the schema leaves
  /// them empty, and aggregates marker summaries.
  static std::unique_ptr<OpineDb> Build(
      text::ReviewCorpus corpus, SubjectiveSchema schema,
      const extract::ExtractionPipeline& pipeline,
      EngineOptions options = EngineOptions());

  /// Registers an objective table and builds its columnar mirror. Row i
  /// must describe entity i.
  Status SetObjectiveTable(storage::Table table);

  /// Trains the membership model from labeled (features, y) tuples.
  /// Rejects tuples containing non-finite features (a NaN weight would
  /// silently poison every later degree of truth).
  Status TrainMembership(
      const std::vector<MembershipModel::LabeledTuple>& tuples,
      uint64_t seed = 42);

  /// Parses and executes a subjective SQL string.
  Result<QueryResult> Execute(
      const std::string& sql,
      const QueryControl& control = QueryControl()) const;

  /// Executes a parsed query. `control` carries a wall-clock budget
  /// and/or a cancellation token that the engine polls at operator
  /// checkpoints. An over-budget query returns early with
  /// QueryResult::partial = true and whatever prefix-consistent top-k
  /// survived, never an error. `control` must outlive the call.
  Result<QueryResult> ExecuteQuery(
      const SubjectiveQuery& query,
      const QueryControl& control = QueryControl()) const;

  /// Degree of truth of one interpreted atom for one entity.
  double AtomDegreeOfTruth(const AtomInterpretation& atom,
                           text::EntityId entity,
                           const embedding::Vec& query_rep,
                           double query_sentiment) const;

  /// Degree of truth of a subjective predicate for one entity (runs the
  /// interpreter; used by experiments that bypass SQL).
  double PredicateDegreeOfTruth(const std::string& predicate,
                                text::EntityId entity) const;

  /// Text-retrieval degree of truth: sigmoid(BM25(D_entity, q) - c).
  double TextFallbackDegree(const std::string& predicate,
                            text::EntityId entity) const;

  /// Re-aggregates marker summaries under different review filters (e.g.
  /// "only reviewers with >= 10 reviews"); replaces the current tables
  /// and invalidates every cache layer (its entries were computed
  /// against the old summaries). Serialized against in-flight queries by
  /// the reconfiguration lock.
  ///
  /// Requires the extraction relation to be the authoritative source of
  /// the served summaries (true after Build and kept true by
  /// AppendReviews). After InstallSummaries or OpenDatabase the relation
  /// is empty or unrelated, and a rebuild from it would silently wipe
  /// the installed summaries — that call returns FailedPrecondition and
  /// leaves the engine untouched.
  Status Reaggregate(const AggregationOptions& aggregation);

  /// Incremental ingest (Section 4.2.2: "the marker summaries can be
  /// incrementally computed"): appends `reviews` to the corpus, runs the
  /// extraction pipeline on just the new reviews, and folds each new
  /// opinion into the existing marker summaries with Aggregator::
  /// Prepare + Fold — bit-identical to rebuilding from the full
  /// extended extraction relation, because Build runs the same two
  /// steps per extraction and the models they consult (classifier,
  /// embedder, analyzer, the idf from the frozen review index) are not
  /// retrained by ingest. Review `id` fields are ignored; ids are
  /// assigned by the corpus in append order.
  ///
  /// Cache maintenance is one epoch bump, not a clear: result- and
  /// interpretation-cache entries lazily expire (a ranking may depend
  /// on every entity, so per-entity invalidation is unsound there; an
  /// interpretation and its degree list are re-derived by the next
  /// query that looks them up, under the shared lock). The exclusive
  /// fold is therefore O(batch) whatever the caches hold.
  ///
  /// When a WAL is enabled (EnableWal) the batch is journaled —
  /// append + fsync — before any state changes; an error from the
  /// journal means nothing was applied. Fails with FailedPrecondition
  /// when AggregationOptions::min_reviewer_reviews is set (that filter
  /// is retroactive: a reviewer's old reviews may cross the threshold
  /// mid-append, which an additive fold cannot express) and with
  /// InvalidArgument for out-of-range entity ids.
  ///
  /// Batches are serialized by the writer mutex. Validation, extraction
  /// (frozen models only) and the journal append + fsync run under the
  /// shared reconfiguration lock, beside queries; only the fold and
  /// publish take it exclusively, so queries see none or all of a
  /// batch and never wait on its fsync or extraction.
  Status AppendReviews(const std::vector<text::Review>& reviews);

  /// Enables write-ahead journaling of AppendReviews batches into `dir`
  /// (created if needed), pairing with the snapshot store in the same
  /// directory. First replays any tail left by a crash: the segment
  /// named after the current snapshot generation is read, records past
  /// the first corrupt one are truncated away, and each surviving batch
  /// is re-applied through the exact live-ingest path (minus
  /// journaling). Recovery is therefore OpenDatabase(dir) — newest
  /// verified generation — followed by EnableWal(dir) — tail replay.
  /// While a WAL is active, SaveDatabase is rejected in favour of
  /// Checkpoint(), which keeps segment and generation in lockstep.
  Status EnableWal(const std::string& dir);

  /// Folds the WAL into a new snapshot generation: saves the current
  /// state (which already contains every journaled batch) to the WAL
  /// directory, starts a fresh empty segment named after the new
  /// generation, and retires the folded segments. The writer mutex is
  /// held throughout, so no append can slip between the save and the
  /// rotation; the save itself runs under the shared reconfiguration
  /// lock beside queries, and only publishing the generation and
  /// swapping the segment take it exclusively. Requires EnableWal. See
  /// docs/PERSISTENCE.md.
  Status Checkpoint();

  /// True when EnableWal succeeded and the journal is accepting appends.
  bool wal_enabled() const;

  /// True when a WAL was enabled but an append failure broke it: the
  /// durable suffix is unknown, every later write is rejected, and
  /// /healthz reports "wal": "broken". Per-engine truth behind the
  /// process-wide storage.wal.broken gauge (which is ambiguous with two
  /// engines per process).
  bool wal_broken() const;

  /// Durable, acknowledged length of the active WAL segment (header
  /// included); 0 when no WAL is enabled. The replication source clamps
  /// what it ships to this bound so a record whose fsync failed — bytes
  /// possibly visible in the page cache but never acknowledged — is
  /// never replicated.
  uint64_t wal_acknowledged_bytes() const;

  /// Directory passed to EnableWal ("" when no WAL is enabled).
  std::string wal_dir() const;

  // ------------------------------------------------- replication role.

  /// Flips follower (read-only) mode. While read-only, every mutating
  /// entry point — AppendReviews, Reaggregate, TrainMembership,
  /// InstallSummaries, SaveDatabase, Checkpoint — returns
  /// FailedPrecondition; state changes arrive only through
  /// ApplyReplicatedRecord / ReplicaCheckpoint (the replication client)
  /// and queries serve as usual. See docs/REPLICATION.md.
  void SetReadOnly(bool read_only);
  bool read_only() const;

  /// Failover: turns a read-only follower into a write-accepting
  /// primary. Requires a healthy WAL (the new primary must be able to
  /// journal). No replay is needed here by construction — a follower
  /// applies every record under the same writer-mutex hold that
  /// journals it, so at promote time the in-memory state already
  /// contains the entire verified WAL (EnableWal replayed the durable
  /// tail at startup). Fault site repl.promote fires before the flag flips: a
  /// failed promote leaves a consistent follower.
  Status Promote();

  /// Follower apply path: decodes one shipped WAL record (an
  /// EncodeReviewBatch payload), journals it to the follower's own WAL
  /// and folds it through the exact live-ingest path (AppendReviews'
  /// locking included), under one hold of the writer mutex. Because
  /// batch encoding is deterministic
  /// (Encode(Decode(p)) == p), the follower's segment ends up
  /// byte-identical to the primary's at every acknowledged offset.
  /// Allowed only in read-only mode with a healthy WAL. Returns the
  /// number of reviews applied. An error means nothing was applied
  /// (decode failures) or the WAL broke (journal failures) — never a
  /// half-applied record.
  Result<size_t> ApplyReplicatedRecord(const std::string& payload);

  /// Follower-side checkpoint, run when the primary signals its segment
  /// is complete (it checkpointed). Both sides compute the next
  /// generation as max-existing + 1 from directories with identical
  /// histories, so generations stay in lockstep. Requires read-only
  /// mode — operators must not rotate a follower's segment out of step;
  /// the primary-side equivalent is Checkpoint().
  Status ReplicaCheckpoint();

  /// Pin registry consulted by Checkpoint (pinned WAL segments are not
  /// retired) and meant for SnapshotStore::GarbageCollect. The
  /// replication source pins the base generation of every segment a
  /// follower is actively pulling.
  storage::GenerationPins* generation_pins() { return &pins_; }

  /// Replaces every marker summary wholesale (scale-harness path: the
  /// datagen scale generator synthesizes summaries directly instead of
  /// aggregating millions of reviews). `summaries[a][e]` must cover
  /// exactly this engine's attributes × entities and be built against
  /// this engine's schema attribute types. Clears the (now unrelated)
  /// extraction relation, rebuilds derived state — including the
  /// columnar mirror — and bumps the cache epoch: this is a data
  /// mutation exactly like Reaggregate/OpenDatabase.
  Status InstallSummaries(
      std::vector<std::vector<MarkerSummary>> summaries);

  /// Resizes the worker pool (0 = hardware concurrency, 1 = serial).
  /// Results are bit-identical at any thread count. Serialized against
  /// in-flight queries by the reconfiguration lock: the swap waits for
  /// running queries to drain, so a query can never observe its pool
  /// being destroyed under it.
  void SetNumThreads(size_t num_threads);

  /// Changes the observability level. Also flips the process-wide
  /// metrics switch (obs::SetMetricsEnabled) so library-internal
  /// instrumentation (index, thread pool, membership) follows
  /// this engine's level — with several engines per process the most
  /// recent call wins.
  void SetTraceLevel(obs::TraceLevel level);

  /// Changes the query-time knobs of EngineOptions — variant,
  /// use_markers, text_fallback_c and force_plan — to those of
  /// `options`; its other fields are ignored (the execution layer has
  /// SetNumThreads / SetTraceLevel / ConfigureCaches, and the models
  /// and aggregation are fixed by Build / Reaggregate). Ordered like
  /// every data mutation (writer mutex, then the exclusive
  /// reconfiguration lock); a change to variant, use_markers or
  /// text_fallback_c changes degrees of truth, so it bumps the cache
  /// epoch and clears every cache layer. A forced plan shape changes
  /// no answer and keeps the caches.
  void SetQueryOptions(const EngineOptions& options);

  /// Reconfigures the result / interpretation cache layers (creating,
  /// resizing or destroying them). Fresh layers start empty; the cache
  /// epoch is untouched — reconfiguring caches is not a data mutation.
  /// Serialized against in-flight queries by the reconfiguration lock.
  void ConfigureCaches(const cache::CacheConfig& config);

  /// Monotone invalidation epoch of the caching layers: bumped exactly
  /// once by every mutation of served data (Reaggregate, OpenDatabase,
  /// InstallSummaries, TrainMembership, AppendReviews, and a
  /// SetQueryOptions that changes degrees of truth) under the exclusive
  /// reconfiguration lock, and by nothing else (SetNumThreads /
  /// SetTraceLevel / ConfigureCaches reconfigure execution, not data).
  /// Cache entries — interpretations with their degree lists, and
  /// results — are tagged with the epoch they were filled at; a
  /// mismatch is a miss.
  uint64_t cache_epoch() const {
    return cache_epoch_.load(std::memory_order_relaxed);
  }

  /// The cache layers, or nullptr when disabled (for tests / metrics
  /// scrapers; the engine consults them internally).
  cache::InterpretationCache* interpretation_cache() const {
    return interp_cache_.get();
  }
  cache::ResultCache* result_cache() const { return result_cache_.get(); }

  /// Persists the queryable state — schema + marker summaries, per §4:
  /// the extraction relation is re-derivable and is not saved — as a new
  /// checksummed snapshot generation in directory `dir` (created if
  /// needed) via storage::SnapshotStore's atomic commit protocol. Holds
  /// the writer mutex, so the saved pair is a consistent cut, and
  /// serializes under the shared reconfiguration lock, so queries keep
  /// running. While a WAL is enabled this returns FailedPrecondition —
  /// an out-of-band save would advance the generation away from the
  /// active segment and orphan later appends; use Checkpoint(), which
  /// rotates the segment under the same writer-mutex hold. See
  /// docs/PERSISTENCE.md.
  Status SaveDatabase(const std::string& dir) const;

  /// Replaces this engine's schema and summaries with the newest fully
  /// valid snapshot generation in `dir`, verifying every checksum on the
  /// way in (corrupt newer generations are skipped; if nothing valid
  /// remains this returns the store's typed NotFound/DataLoss error).
  /// The snapshot is parsed and vetted completely before any engine
  /// state changes — on any error the engine is untouched. The loaded
  /// summaries must cover exactly this engine's corpus entities
  /// (InvalidArgument otherwise). After a successful open the
  /// extraction relation is empty, so a later Reaggregate would rebuild
  /// summaries from nothing — it returns FailedPrecondition; re-extract
  /// from the corpus instead. Every cache layer is cleared (its entries
  /// described the old summaries). Any active WAL is detached
  /// (the journal belonged to the replaced state); call EnableWal again
  /// to replay the tail for the newly opened generation.
  Status OpenDatabase(const std::string& dir);

  /// Generation committed by the last SaveDatabase or served by the
  /// last OpenDatabase (0 = this engine never touched a snapshot
  /// store). Exported as the storage.snapshot.generation gauge and as
  /// the root query span's snapshot_generation attribute.
  uint64_t snapshot_generation() const {
    return snapshot_generation_.load(std::memory_order_relaxed);
  }

  // ----------------------------------------------------------- access.
  const text::ReviewCorpus& corpus() const { return corpus_; }
  const SubjectiveSchema& schema() const { return schema_; }
  const SubjectiveTables& tables() const { return tables_; }
  const embedding::WordEmbeddings& embeddings() const { return embeddings_; }
  const embedding::PhraseEmbedder& phrase_embedder() const {
    return *embedder_;
  }
  const index::InvertedIndex& review_index() const { return review_index_; }
  const index::InvertedIndex& entity_index() const { return entity_index_; }
  const std::vector<double>& review_sentiment() const {
    return review_sentiment_;
  }
  const Interpreter& interpreter() const { return *interpreter_; }
  const AttributeClassifier& attribute_classifier() const {
    return classifier_;
  }
  const sentiment::Analyzer& analyzer() const { return analyzer_; }
  const EngineOptions& options() const { return options_; }
  const MarkerSummary& summary(size_t attribute,
                               text::EntityId entity) const {
    return tables_.summaries[attribute][entity];
  }
  bool has_membership_model() const { return membership_.has_value(); }
  /// The trained membership model (requires has_membership_model()).
  const MembershipModel& membership_model() const { return *membership_; }

  /// Extracted phrases of (attribute, entity) — the no-marker scan
  /// path — as indices into tables().extractions.
  const std::vector<size_t>& PhrasesOf(size_t attribute,
                                       text::EntityId entity) const {
    return extraction_lists_[attribute][entity];
  }

  /// The worker pool (nullptr on the serial path), shared with the
  /// physical operators.
  ThreadPool* pool() const { return pool_.get(); }

  /// The columnar mirror of the marker summaries that ConditionScorer
  /// sweeps; never null after Build. Stable for the duration of a query
  /// (rebuilt or patched only under the exclusive reconfiguration lock).
  const ColumnarSummaryStore* columnar_store() const {
    return columnar_.get();
  }

  /// The columnar mirror of a table registered with SetObjectiveTable
  /// (the catalog never mutates a registered table, so the mirror built
  /// at registration stays exact).
  const ColumnarTable& objective_columns(const storage::Table& table) const;

  // OpineDb holds internal cross-references (the aggregator, interpreter
  // and phrase embedder point at sibling members), so it is pinned in
  // memory: neither copyable nor movable. Build() returns a unique_ptr.
  OpineDb(const OpineDb&) = delete;
  OpineDb& operator=(const OpineDb&) = delete;

  // Out-of-line: the cache layers are forward-declared here.
  ~OpineDb();

 private:
  OpineDb() = default;

  /// One review batch extracted against the frozen models, ready to
  /// fold (defined in engine.cc).
  struct PreparedBatch;

  void RebuildDerivedState();
  /// Adds tables_.extractions[from..] to extraction_lists_ — the one
  /// loop behind both a rebuild (from 0) and an ingest fold.
  void AppendExtractionLists(size_t from);
  /// The single wholesale epoch-bump point: advances cache_epoch_ once
  /// and clears every cache layer (result, interpretation). Requires
  /// reconfig_mu_ held exclusively. AppendReviews deliberately does NOT
  /// route through here — it bumps the epoch and lets stale entries
  /// expire lazily (see its doc).
  void InvalidateCachesLocked();
  /// Serializes schema, summaries and the current-epoch interpretation
  /// cache under the shared lock and commits them as a new generation
  /// in `dir`; returns it unpublished. Requires write_mu_.
  Result<uint64_t> CommitSnapshot(const std::string& dir) const;
  /// Makes `generation` the served snapshot generation. Requires
  /// reconfig_mu_ held exclusively.
  void PublishGenerationLocked(uint64_t generation) const;
  /// Checkpoint body shared by Checkpoint (primary) and
  /// ReplicaCheckpoint (follower). Requires write_mu_ and wal_ engaged.
  Status CheckpointLocked();
  /// The single apply path for new review batches, shared verbatim by
  /// live ingest (journal = true: the open WAL writer, if any) and
  /// EnableWal replay (journal = false: the records are already
  /// durable). Requires write_mu_ and not reconfig_mu_: validates,
  /// extracts and journals under the shared lock, then folds under the
  /// exclusive lock.
  Status ApplyReviews(const std::vector<text::Review>& reviews,
                      bool journal);
  /// The ingest stages ApplyReviews runs. ValidateBatch and
  /// PrepareBatch need the shared lock, FoldBatchLocked the exclusive.
  Status ValidateBatch(const std::vector<text::Review>& reviews) const;
  PreparedBatch PrepareBatch(const std::vector<text::Review>& reviews) const;
  void FoldBatchLocked(PreparedBatch batch);

  text::ReviewCorpus corpus_;
  SubjectiveSchema schema_;
  EngineOptions options_;
  sentiment::Analyzer analyzer_;
  embedding::WordEmbeddings embeddings_;
  std::unique_ptr<embedding::PhraseEmbedder> embedder_;
  index::InvertedIndex review_index_;
  index::InvertedIndex entity_index_;
  std::vector<double> review_sentiment_;
  AttributeClassifier classifier_;
  std::unique_ptr<Aggregator> aggregator_;
  /// The extraction pipeline Build ran, retained so AppendReviews can
  /// extract from new reviews with the exact same trained tagger
  /// (value-semantic copy; the tagger is frozen after Build).
  std::optional<extract::ExtractionPipeline> pipeline_;
  SubjectiveTables tables_;
  std::unique_ptr<Interpreter> interpreter_;
  std::optional<MembershipModel> membership_;
  storage::Catalog catalog_;
  /// Columnar mirrors of the hot data plane (docs/SCALING.md): the
  /// summaries' (RebuildDerivedState, patched by ingest) and one per
  /// catalog table, keyed by name (SetObjectiveTable). Written under the
  /// exclusive reconfiguration lock, read by queries under the shared
  /// lock.
  std::unique_ptr<ColumnarSummaryStore> columnar_;
  std::unordered_map<std::string, std::unique_ptr<ColumnarTable>>
      objective_columns_;
  /// Fixed worker pool for the parallel execution layer; nullptr when
  /// options_.num_threads resolves to 1 (the serial path).
  std::unique_ptr<ThreadPool> pool_;
  /// Optional caching layers (nullptr when disabled); both are
  /// internally thread-safe, and creation/destruction happens only
  /// under the exclusive reconfiguration lock.
  std::unique_ptr<cache::InterpretationCache> interp_cache_;
  std::unique_ptr<cache::ResultCache> result_cache_;
  /// See cache_epoch(). Atomic so queries (shared lock) read it without
  /// synchronizing with each other; mutators bump it under the
  /// exclusive lock, so a query never observes a torn epoch/state pair.
  std::atomic<uint64_t> cache_epoch_{0};
  /// Snapshot generation last saved/loaded; see snapshot_generation().
  /// Atomic so lock-free readers (the replication source) see a whole
  /// value; published only under the exclusive lock, in the same
  /// critical section that swaps in the segment named after it. Mutable
  /// because SaveDatabase is logically const.
  mutable std::atomic<uint64_t> snapshot_generation_{0};
  /// True while tables_.extractions (plus what AppendReviews added) is
  /// the authoritative derivation of tables_.summaries — the
  /// precondition Reaggregate and the ingest differential oracle rely
  /// on. Set by Build; cleared by InstallSummaries and OpenDatabase.
  bool extractions_authoritative_ = false;
  /// Write-ahead journal state (EnableWal/Checkpoint); wal_ is engaged
  /// exactly while journaling is active. Engaged, reset and swapped
  /// under write_mu_ plus reconfig_mu_ exclusively; appended to under
  /// write_mu_ alone (WalWriter's size and open flag are atomic for the
  /// shared-lock readers).
  std::string wal_dir_;
  std::optional<storage::WalWriter> wal_;
  /// Follower (read-only) mode; see SetReadOnly. Written under write_mu_
  /// plus reconfig_mu_ exclusively.
  bool read_only_ = false;
  /// Snapshot generations pinned against retirement; see
  /// generation_pins(). Internally synchronized (request threads pin
  /// without the reconfiguration lock).
  storage::GenerationPins pins_;
  /// Writer mutex: orders every data mutation — AppendReviews,
  /// ApplyReplicatedRecord, Checkpoint, ReplicaCheckpoint, SaveDatabase,
  /// EnableWal, OpenDatabase, Reaggregate, InstallSummaries,
  /// TrainMembership, SetQueryOptions, SetObjectiveTable, SetReadOnly,
  /// Promote. Always
  /// taken before reconfig_mu_. Holding it freezes the served data, so
  /// a holder may read that data under the shared lock (or without it)
  /// and take the exclusive lock only to publish.
  mutable std::mutex write_mu_;
  /// Reconfiguration lock: ExecuteQuery / PredicateDegreeOfTruth hold it
  /// shared for their whole run. Writers (under write_mu_) hold it
  /// shared while they extract, journal or serialize a snapshot, and
  /// exclusively only to fold a batch into the served state or to
  /// publish a snapshot generation and rotate the WAL segment. Every
  /// wholesale rebuild (Reaggregate, InstallSummaries, OpenDatabase,
  /// TrainMembership, SetQueryOptions) and the execution
  /// reconfigurators (SetNumThreads, SetTraceLevel, ConfigureCaches,
  /// which do not take write_mu_) hold it exclusively. This (a) keeps
  /// pool_ and the cache layers alive for the queries that snapshotted
  /// them, (b) keeps a query's cache epoch current until it returns, so
  /// the entries it fills are never stale on arrival, and (c) prevents
  /// queries from reading tables_/interpreter_/options_ mid-update.
  mutable std::shared_mutex reconfig_mu_;
  /// extraction_lists_[a][e]: indices into tables_.extractions (stable
  /// when the relation reallocates on growth).
  std::vector<std::vector<std::vector<size_t>>> extraction_lists_;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_ENGINE_H_
