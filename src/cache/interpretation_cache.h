#ifndef OPINEDB_CACHE_INTERPRETATION_CACHE_H_
#define OPINEDB_CACHE_INTERPRETATION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <istream>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/interpreter.h"
#include "embedding/phrase_rep.h"

namespace opinedb::cache {

/// Memoizes the interpretation prologue of ExecuteQuery per (normalized
/// predicate text, epoch): the Fig. 5 cascade output plus the query
/// embedding and sentiment the scoring phase needs. Safe to key on
/// NormalizePredicate(text) because every downstream consumer of the
/// predicate (PhraseEmbedder::Represent, Analyzer::ScorePhrase,
/// Interpreter::Interpret, the BM25 text fallback) tokenizes it with the
/// lowercasing, punctuation-dropping Tokenizer first — two predicates
/// with the same normalization are indistinguishable to all of them.
///
/// Entries are tagged with the engine's cache epoch; a lookup whose
/// epoch does not match is a miss, and the engine clears the cache on
/// every wholesale invalidation (Reaggregate / OpenDatabase /
/// TrainMembership); after an ingest's bump the stale entries stay
/// resident and the next lookup of each key misses and refills it.
/// Degraded interpretations are never inserted.
///
/// Thread-safe: sharded shared_mutex maps, same discipline as
/// core::DegreeCache. Lookups copy the entry out, so no references
/// escape a shard lock.
class InterpretationCache {
 public:
  struct Entry {
    core::PredicateInterpretation interpretation;
    embedding::Vec rep;
    double sentiment = 0.0;
    uint64_t epoch = 0;
  };

  InterpretationCache();
  InterpretationCache(const InterpretationCache&) = delete;
  InterpretationCache& operator=(const InterpretationCache&) = delete;

  /// Copies the entry for `key` into `*out` and returns true when
  /// present with a matching epoch. A present-but-stale entry is a miss
  /// (left behind by an ingest's epoch bump; the caller re-derives the
  /// interpretation and overwrites it).
  bool Lookup(const std::string& key, uint64_t epoch, Entry* out) const;

  /// Inserts (or overwrites) the entry for `key`. Callers must not
  /// insert degraded interpretations — the cache would happily serve
  /// them forever while the underlying fault is long gone.
  void Insert(const std::string& key, Entry entry);

  /// Drops every entry (under all shard locks).
  void Clear();

  /// Resident entries across all shards.
  size_t size() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  friend Status SaveInterpretationCache(const InterpretationCache& cache,
                                        uint64_t epoch, std::ostream* out);
  friend Status LoadInterpretationCache(std::istream* in, uint64_t epoch,
                                        InterpretationCache* cache);

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, Entry> map;
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;

  /// Lock-striping width: enough for concurrent serving, at a small
  /// fixed memory cost.
  static constexpr size_t kNumShards = 16;
  /// Sized once at construction; never resized (shards own mutexes).
  std::vector<Shard> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

/// Serializes the resident entries tagged with `epoch` (the engine's
/// current epoch; stale entries — every key not looked up since the
/// last ingest — are left out, because the load re-tags every entry as
/// fresh) in a deterministic (key-sorted) line-oriented text format —
/// the "interp_cache" snapshot section payload. Deterministic so save →
/// open → save produces byte-identical sections. Doubles are written
/// with max_digits10, so a reloaded entry is bit-exact.
Status SaveInterpretationCache(const InterpretationCache& cache,
                               uint64_t epoch, std::ostream* out);

/// Reads a payload written by SaveInterpretationCache into `cache`,
/// tagging every entry with `epoch` (the engine's post-open epoch). On
/// any parse error the cache is cleared and the error returned — a
/// half-loaded cache never serves.
Status LoadInterpretationCache(std::istream* in, uint64_t epoch,
                               InterpretationCache* cache);

}  // namespace opinedb::cache

#endif  // OPINEDB_CACHE_INTERPRETATION_CACHE_H_
