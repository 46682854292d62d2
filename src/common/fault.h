#ifndef OPINEDB_COMMON_FAULT_H_
#define OPINEDB_COMMON_FAULT_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace opinedb::fault {

/// The failure raised at an armed fault site. Serving-path code treats
/// it like any other std::exception (catch, degrade, count); tests
/// catch it specifically to assert a site actually fired.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// The catalog of named fault sites compiled into the library. Tests
/// sweep this list; keep it in sync with the OPINEDB_FAULT call sites
/// (fault_injection_test asserts every entry is reachable).
inline constexpr const char* kSites[] = {
    "cache.lookup",          // DegreeCache::Degrees / TryDegrees entry.
    "cache.compute",         // DegreeCache::ComputeDegrees entry.
    "interpret.w2v",         // Interpreter word2vec stage.
    "interpret.cooccur",     // Interpreter co-occurrence stage.
    "interpret.embed",       // Query-embedding prologue in ExecuteQuery.
    "index.scan",            // InvertedIndex::TopKWeighted entry.
    "score.features",        // Per-atom degree (ConditionScorer).
    "score.text_fallback",   // OpineDb::TextFallbackDegree entry.
    "score.alloc",           // Degree-list allocation in SubjectiveScoreOp.
    "cache.interp_lookup",   // Interpretation-cache consult (ExecuteQuery
                             // prologue / PredicateDegreeOfTruth).
    "cache.interp_insert",   // Interpretation-cache fill.
    "cache.result_lookup",   // Result-cache consult in ExecuteQuery.
    "cache.result_insert",   // Result-cache fill after execution.
};

/// Storage fault sites (the snapshot commit protocol). These live in a
/// separate catalog because their semantics differ from kSites: instead
/// of throwing into a degradation cascade, a fired storage site makes
/// SnapshotStore::Commit *simulate a crash or media fault* — it stops
/// mid-protocol (or silently corrupts the written bytes for
/// storage.bitflip) and leaves the directory in exactly the state a real
/// power cut would. tests/crash_consistency_test.cc sweeps this list and
/// asserts every entry is reachable (the persistence-suite counterpart
/// of fault_injection_test's kSites liveness check).
inline constexpr const char* kStorageSites[] = {
    "storage.short_write",      // Torn write: tmp file cut mid-payload.
    "storage.fsync",            // fsync of the tmp data file fails.
    "storage.rename_data",      // Crash before gen-N.tmp -> gen-N.snap.
    "storage.rename_manifest",  // Crash between data and MANIFEST rename.
    "storage.bitflip",          // Post-write single-bit media corruption.
};

/// WAL fault sites (src/storage/wal.cc + the engine checkpoint fold).
/// Like kStorageSites these are OPINEDB_FAULT_HIT protocol-state sites,
/// not throwing ones: a fired WAL site makes the append protocol stop
/// exactly where a power cut would — wal_short_write leaves a torn
/// record on disk and fails the append, wal_fsync leaves the record in
/// the page cache but reports the durability failure, and wal_fold
/// crashes a checkpoint after the new snapshot generation committed but
/// before the folded WAL segment was retired. tests/wal_test.cc sweeps
/// this list and asserts every entry is reachable.
inline constexpr const char* kWalSites[] = {
    "storage.wal_short_write",  // Torn record: append cut mid-payload.
    "storage.wal_fsync",        // fsync of the WAL segment fails.
    "storage.wal_fold",         // Crash between checkpoint commit and
                                // WAL-segment retirement.
};

/// Serving-layer fault sites (src/server/httpd.cc). Like kStorageSites
/// these live outside kSites because their blast radius differs: a
/// fired server site must degrade exactly one connection or response —
/// accept drops the new connection, read abandons the in-flight
/// request, write substitutes a well-formed 500 WITHOUT poisoning the
/// keep-alive stream, and shed forces the admission-control 429 path.
/// tests/fault_injection_test.cc sweeps this list over a live loopback
/// server and asserts each entry is reachable.
inline constexpr const char* kServerSites[] = {
    "server.accept",  // Acceptor, just after ::accept.
    "server.read",    // Worker, before each ::recv.
    "server.write",   // Worker, before response serialization.
    "server.shed",    // Acceptor admission decision (forces a 429).
};

/// Replication fault sites (src/repl/ + engine promote). The first three
/// fire inside the ReplicationClient's pull loop and must degrade exactly
/// one sync cycle: fetch simulates a partitioned primary (the cycle fails
/// Unavailable and the backoff loop retries), apply simulates a crash
/// between journaling batches (already-applied records stay applied, the
/// rest are re-fetched — never a double apply, never a loss), and
/// checksum corrupts the follower's computed batch fingerprint so the
/// divergence path (typed DataLoss, nothing applied) is exercised.
/// repl.promote fires inside OpineDb::Promote before the read-only flag
/// flips — a failed promote leaves a consistent follower.
/// tests/repl_test.cc sweeps this list and asserts every entry is
/// reachable.
inline constexpr const char* kReplSites[] = {
    "repl.fetch",     // Client, before each WAL/snapshot HTTP fetch.
    "repl.apply",     // Client, before applying each shipped record.
    "repl.checksum",  // Client, corrupts the computed batch fingerprint.
    "repl.promote",   // Engine Promote, before accepting writes.
};

/// True when the library was compiled with fault injection
/// (OPINEDB_ENABLE_FAULT_INJECTION); release builds compile the macro
/// out entirely and this returns false.
bool CompiledIn();

/// Arms `site` to fail exactly once, on its `nth` hit (1-based) counted
/// from this call. Re-arming a site resets its hit counter. Thread-safe.
void Arm(std::string_view site, uint64_t nth);

/// Disarms every site and clears all hit counters.
void DisarmAll();

/// Hits observed at `site` since it was armed (0 for unarmed sites —
/// unarmed sites are never counted, so the zero-fault path stays free).
uint64_t HitCount(std::string_view site);

/// The hot-path check behind OPINEDB_FAULT: false unless some site is
/// armed; for armed sites, counts the hit and reports whether this is
/// the fatal one (then self-disarms, so later hits succeed — the shape
/// graceful-degradation tests need).
bool ShouldFail(const char* site);

}  // namespace opinedb::fault

/// Deterministic fault-injection point:
///
///   OPINEDB_FAULT("cache.lookup");
///
/// Compiled out (a no-op with zero code) unless the build defines
/// OPINEDB_ENABLE_FAULT_INJECTION (CMake option OPINEDB_FAULT_INJECTION,
/// default ON except in plain Release). When compiled in but unarmed,
/// the cost is one relaxed atomic load and a predictable branch.
#if defined(OPINEDB_ENABLE_FAULT_INJECTION)
#define OPINEDB_FAULT(site)                                         \
  do {                                                              \
    if (::opinedb::fault::ShouldFail(site)) {                       \
      throw ::opinedb::fault::FaultInjected(site);                  \
    }                                                               \
  } while (0)
#else
#define OPINEDB_FAULT(site) ((void)0)
#endif

/// Non-throwing fault check for code that models faults as protocol
/// state rather than exceptions (the snapshot store's crash
/// simulation): evaluates to true exactly when OPINEDB_FAULT(site)
/// would have thrown, and to constant false when fault injection is
/// compiled out.
#if defined(OPINEDB_ENABLE_FAULT_INJECTION)
#define OPINEDB_FAULT_HIT(site) (::opinedb::fault::ShouldFail(site))
#else
#define OPINEDB_FAULT_HIT(site) false
#endif

#endif  // OPINEDB_COMMON_FAULT_H_
