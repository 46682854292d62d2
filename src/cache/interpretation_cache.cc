#include "cache/interpretation_cache.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <vector>

#include "common/bytes.h"

namespace opinedb::cache {

namespace {

constexpr char kInterpCacheMagic[] = "opinedb-interp-cache";
constexpr int kInterpCacheVersion = 1;

/// Plausibility bounds on deserialized sizes (same doctrine as
/// core/serialize.cc): a corrupt or truncated payload must produce a
/// ParseError, not a multi-gigabyte allocation.
constexpr size_t kMaxEntries = 1u << 22;       // 4M predicates.
constexpr size_t kMaxAtoms = 1u << 12;         // Atoms per predicate.
constexpr size_t kMaxRepDim = 1u << 16;        // Embedding dims.
constexpr size_t kMaxStringLength = 1u << 20;  // 1 MiB per key.

char MethodChar(core::InterpretMethod method) {
  switch (method) {
    case core::InterpretMethod::kWord2Vec:
      return 'w';
    case core::InterpretMethod::kCooccurrence:
      return 'c';
    case core::InterpretMethod::kTextFallback:
      return 't';
  }
  return 't';
}

Result<core::InterpretMethod> MethodFromChar(char c) {
  switch (c) {
    case 'w':
      return core::InterpretMethod::kWord2Vec;
    case 'c':
      return core::InterpretMethod::kCooccurrence;
    case 't':
      return core::InterpretMethod::kTextFallback;
    default:
      return Status::ParseError(std::string("unknown interpret method '") +
                                c + "'");
  }
}

}  // namespace

InterpretationCache::InterpretationCache() : shards_(kNumShards) {}

InterpretationCache::Shard& InterpretationCache::ShardFor(
    const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const InterpretationCache::Shard& InterpretationCache::ShardFor(
    const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool InterpretationCache::Lookup(const std::string& key, uint64_t epoch,
                                 Entry* out) const {
  const Shard& shard = ShardFor(key);
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end() && it->second.epoch == epoch) {
      *out = it->second;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void InterpretationCache::Insert(const std::string& key, Entry entry) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  Entry& resident = shard.map[key];
  // A racing miss may re-insert the interpretation a concurrent query
  // already completed with its list; both are bit-identical, so keep
  // the one that carries the list.
  if (resident.epoch == entry.epoch && resident.degrees != nullptr &&
      entry.degrees == nullptr) {
    return;
  }
  resident = std::move(entry);
}

void InterpretationCache::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.map.clear();
  }
}

size_t InterpretationCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

Status SaveInterpretationCache(const InterpretationCache& cache,
                               uint64_t epoch, std::ostream* out) {
  // Snapshot the entries under shard locks, then write sorted by key:
  // unordered_map iteration order is not stable across instances, and
  // the persistence suite pins save → open → save byte-identity.
  std::vector<std::pair<std::string, InterpretationCache::Entry>> entries;
  for (const auto& shard : cache.shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.map) {
      if (entry.epoch == epoch) entries.emplace_back(key, entry);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  out->precision(std::numeric_limits<double>::max_digits10);
  *out << kInterpCacheMagic << ' ' << kInterpCacheVersion << '\n'
       << entries.size() << '\n';
  for (const auto& [key, entry] : entries) {
    WriteString(key, out);
    *out << ' ' << MethodChar(entry.interpretation.method) << ' '
         << (entry.interpretation.conjunctive ? 1 : 0) << ' '
         << entry.interpretation.confidence << ' ' << entry.sentiment
         << ' ' << entry.interpretation.atoms.size() << ' '
         << entry.rep.size() << '\n';
    for (const auto& atom : entry.interpretation.atoms) {
      *out << atom.attribute << ' ' << atom.marker << ' ' << atom.score
           << '\n';
    }
    for (size_t i = 0; i < entry.rep.size(); ++i) {
      if (i > 0) *out << ' ';
      *out << entry.rep[i];
    }
    if (!entry.rep.empty()) *out << '\n';
  }
  *out << "end\n";
  if (!out->good()) return Status::Internal("write failed");
  return Status::OK();
}

Status LoadInterpretationCache(std::istream* in, uint64_t epoch,
                               InterpretationCache* cache) {
  cache->Clear();
  std::string magic;
  int version = 0;
  if (!(*in >> magic >> version) || magic != kInterpCacheMagic) {
    return Status::ParseError("not an opinedb interpretation-cache payload");
  }
  if (version != kInterpCacheVersion) {
    return Status::NotSupported("interpretation-cache version " +
                                std::to_string(version));
  }
  size_t num_entries = 0;
  if (!(*in >> num_entries)) {
    return Status::ParseError("bad entry count");
  }
  if (num_entries > kMaxEntries) {
    cache->Clear();
    return Status::ParseError("implausible entry count " +
                              std::to_string(num_entries));
  }
  for (size_t i = 0; i < num_entries; ++i) {
    auto key = ReadString(in, kMaxStringLength);
    if (!key.ok()) {
      cache->Clear();
      return key.status();
    }
    InterpretationCache::Entry entry;
    entry.epoch = epoch;
    char method = 0;
    int conjunctive = 0;
    size_t num_atoms = 0, rep_dim = 0;
    if (!(*in >> method >> conjunctive >>
          entry.interpretation.confidence >> entry.sentiment >> num_atoms >>
          rep_dim)) {
      cache->Clear();
      return Status::ParseError("bad entry header: " + *key);
    }
    auto parsed_method = MethodFromChar(method);
    if (!parsed_method.ok()) {
      cache->Clear();
      return parsed_method.status();
    }
    entry.interpretation.method = *parsed_method;
    entry.interpretation.conjunctive = conjunctive != 0;
    if (num_atoms > kMaxAtoms || rep_dim > kMaxRepDim) {
      cache->Clear();
      return Status::ParseError("implausible entry sizes for " + *key);
    }
    entry.interpretation.atoms.resize(num_atoms);
    for (auto& atom : entry.interpretation.atoms) {
      if (!(*in >> atom.attribute >> atom.marker >> atom.score)) {
        cache->Clear();
        return Status::ParseError("truncated atoms for " + *key);
      }
    }
    entry.rep.resize(rep_dim);
    for (auto& v : entry.rep) {
      if (!(*in >> v)) {
        cache->Clear();
        return Status::ParseError("truncated embedding for " + *key);
      }
    }
    cache->Insert(*key, std::move(entry));
  }
  std::string sentinel;
  if (!(*in >> sentinel) || sentinel != "end") {
    // The count said we were done but the closing sentinel is missing:
    // the payload was truncated at an entry boundary.
    cache->Clear();
    return Status::ParseError("missing end sentinel");
  }
  return Status::OK();
}

}  // namespace opinedb::cache
