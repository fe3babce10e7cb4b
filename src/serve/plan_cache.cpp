#include "serve/plan_cache.hpp"

namespace hypart::serve {

namespace {

/// FNV-1a over the key bytes: deterministic, dependency-free, and a pure
/// function of the key — shard selection (and therefore eviction order and
/// every counter) never depends on thread timing.
std::uint64_t shard_hash(const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Effective stripe count for a tier: never more stripes than leave each
/// one at least kMinShardCapacity LRU slots (capacity 0 = unbounded keeps
/// the full request).  A tiny tier collapses to one stripe, preserving the
/// classic global LRU order.
std::size_t clamp_shards(std::size_t requested, std::size_t capacity) {
  if (requested == 0) requested = 1;
  if (capacity == 0) return requested;
  std::size_t max_shards = capacity / PlanCache::kMinShardCapacity;
  if (max_shards == 0) max_shards = 1;
  return requested < max_shards ? requested : max_shards;
}

/// Stripe i's slice of the tier capacity; slices sum to the tier capacity
/// exactly (the first capacity % n stripes take the remainder).
std::size_t shard_capacity(std::size_t capacity, std::size_t shards, std::size_t i) {
  if (capacity == 0) return 0;
  return capacity / shards + (i < capacity % shards ? 1 : 0);
}

}  // namespace

PlanCache::PlanCache(std::size_t doc_capacity, std::size_t skeleton_capacity,
                     obs::MetricsRegistry* metrics, std::size_t shards)
    : doc_capacity_(doc_capacity), skeleton_capacity_(skeleton_capacity), metrics_(metrics) {
  const std::size_t doc_n = clamp_shards(shards, doc_capacity_);
  doc_shards_.reserve(doc_n);
  for (std::size_t i = 0; i < doc_n; ++i) {
    doc_shards_.push_back(std::make_unique<DocShard>());
    doc_shards_.back()->capacity = shard_capacity(doc_capacity_, doc_n, i);
  }
  const std::size_t pi_n = clamp_shards(shards, skeleton_capacity_);
  pi_shards_.reserve(pi_n);
  for (std::size_t i = 0; i < pi_n; ++i) {
    pi_shards_.push_back(std::make_unique<PiShard>());
    pi_shards_.back()->capacity = shard_capacity(skeleton_capacity_, pi_n, i);
  }
}

std::size_t PlanCache::doc_shard_index(const std::string& exact_key) const {
  return shard_hash(exact_key) % doc_shards_.size();
}

std::size_t PlanCache::pi_shard_index(const std::string& structure_key) const {
  return shard_hash(structure_key) % pi_shards_.size();
}

std::shared_ptr<const RenderedPlan> PlanCache::find_document(const std::string& exact_key) {
  DocShard& shard = *doc_shards_[doc_shard_index(exact_key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (auto* entry = shard.entries.find(exact_key)) {
    ++shard.hits;
    return *entry;
  }
  ++shard.misses;
  return nullptr;
}

std::shared_ptr<const RenderedPlan> PlanCache::insert_document(const std::string& exact_key,
                                                              RenderedPlan plan) {
  auto entry = std::make_shared<const RenderedPlan>(std::move(plan));
  DocShard& shard = *doc_shards_[doc_shard_index(exact_key)];
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    evicted = shard.entries.insert(exact_key, entry, shard.capacity);
    if (evicted) ++shard.evictions;
  }
  if (evicted && metrics_ != nullptr) metrics_->add("serve.cache.doc_evictions");
  return entry;
}

std::optional<IntVec> PlanCache::find_pi(const std::string& structure_key) {
  PiShard& shard = *pi_shards_[pi_shard_index(structure_key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (IntVec* pi = shard.entries.find(structure_key)) {
    ++shard.hits;
    return *pi;
  }
  return std::nullopt;
}

void PlanCache::insert_pi(const std::string& structure_key, IntVec pi) {
  PiShard& shard = *pi_shards_[pi_shard_index(structure_key)];
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    evicted = shard.entries.insert(structure_key, std::move(pi), shard.capacity);
    if (evicted) ++shard.evictions;
  }
  if (evicted && metrics_ != nullptr) metrics_->add("serve.cache.pi_evictions");
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  for (const auto& shard : doc_shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    s.documents += shard->entries.entries.size();
    s.doc_hits += shard->hits;
    s.doc_misses += shard->misses;
    s.doc_evictions += shard->evictions;
  }
  for (const auto& shard : pi_shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    s.skeletons += shard->entries.entries.size();
    s.pi_hits += shard->hits;
    s.pi_evictions += shard->evictions;
  }
  return s;
}

PlanCacheStats PlanCache::doc_shard_stats(std::size_t shard_idx) const {
  PlanCacheStats s;
  const DocShard& shard = *doc_shards_.at(shard_idx);
  std::lock_guard<std::mutex> lock(shard.mutex);
  s.documents = shard.entries.entries.size();
  s.doc_hits = shard.hits;
  s.doc_misses = shard.misses;
  s.doc_evictions = shard.evictions;
  return s;
}

PlanCacheStats PlanCache::pi_shard_stats(std::size_t shard_idx) const {
  PlanCacheStats s;
  const PiShard& shard = *pi_shards_.at(shard_idx);
  std::lock_guard<std::mutex> lock(shard.mutex);
  s.skeletons = shard.entries.entries.size();
  s.pi_hits = shard.hits;
  s.pi_evictions = shard.evictions;
  return s;
}

}  // namespace hypart::serve
