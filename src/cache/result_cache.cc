#include "cache/result_cache.h"

namespace opinedb::cache {

ResultCache::ResultCache(size_t byte_budget)
    : byte_budget_(byte_budget),
      shard_budget_(byte_budget / kNumShards),
      shards_(kNumShards) {}

uint64_t ResultCache::Fingerprint(std::string_view key) {
  // FNV-1a, 64-bit.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

size_t ResultCache::ApproxBytes(const std::string& key,
                                const CachedResult& value) {
  // Flat struct sizes plus owned heap payloads; the fixed 128-byte
  // overhead stands in for the map node, LRU node and allocator slack so
  // many tiny entries cannot blow past the budget "for free".
  size_t total = 128 + key.size() + sizeof(CachedResult);
  for (const auto& r : value.results) {
    total += sizeof(core::RankedResult) + r.entity_name.size();
  }
  for (const auto& i : value.interpretations) {
    total += sizeof(core::PredicateInterpretation) +
             i.atoms.size() * sizeof(core::AtomInterpretation);
  }
  return total;
}

bool ResultCache::Lookup(const std::string& key, uint64_t epoch,
                         CachedResult* out) {
  Shard& shard = shards_[Fingerprint(key) % shards_.size()];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      if (it->second.epoch == epoch) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        *out = it->second.value;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // Stale epoch: the wholesale clear raced us; drop it now.
      EraseLocked(&shard, it);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

size_t ResultCache::Insert(const std::string& key, uint64_t epoch,
                           CachedResult value) {
  const size_t entry_bytes = ApproxBytes(key, value);
  if (entry_bytes > shard_budget_) return 0;  // Never cacheable.
  Shard& shard = shards_[Fingerprint(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) EraseLocked(&shard, it);
  shard.lru.push_front(key);
  Entry entry;
  entry.value = std::move(value);
  entry.epoch = epoch;
  entry.bytes = entry_bytes;
  entry.lru_it = shard.lru.begin();
  shard.map.emplace(key, std::move(entry));
  shard.bytes += entry_bytes;
  bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
  size_t evicted = 0;
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    auto victim = shard.map.find(shard.lru.back());
    EraseLocked(&shard, victim);
    ++evicted;
  }
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

void ResultCache::EraseLocked(
    Shard* shard, std::unordered_map<std::string, Entry>::iterator it) {
  shard->bytes -= it->second.bytes;
  bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  shard->lru.erase(it->second.lru_it);
  shard->map.erase(it);
}

void ResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.bytes = 0;
    shard.lru.clear();
    shard.map.clear();
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace opinedb::cache
