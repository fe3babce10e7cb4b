// hypart::serve — two-tier, lock-striped LRU plan cache keyed by canonical
// nest forms.
//
// Tier 1 (skeleton): structure_key -> time function Π.  A valid Π satisfies
// Π·d > 0 for every d in D and nothing else, so it is reusable across all
// domain sizes with the same dependence structure; hitting this tier skips
// the small-integer search (the expensive part of planning) while the rest
// of the pipeline re-runs for the actual bounds.
//
// Tier 2 (document): exact_key -> the plan's one reply template
// (serve/replay.hpp): core/json_export's pipeline document rendered once
// as name-slotted members.  No parsed document is kept.  Hitting this tier
// skips the pipeline entirely; the service splices the requester's names
// into the template bytes before replying.
//
// Sharding: each tier is split into lock-striped shards selected by an
// FNV-1a hash of the key, so concurrent lookups on different keys contend
// only per stripe instead of on one global mutex.  Each shard runs its own
// LRU over its slice of the capacity and keeps its own counters; stats()
// rolls them up.  The hash is a pure function of the key, so for a given
// request sequence the shard a key lands on — and therefore every eviction
// and every counter total — is deterministic and independent of how many
// threads issued the requests.  Tiny caches stay exact: the shard count is
// clamped so each shard keeps a meaningfully sized LRU (capacity-1 and
// capacity-2 configurations collapse to a single shard with the classic
// global LRU order, which the eviction tests pin).
//
// Entries are held by shared_ptr so a reply can keep using a template that
// was concurrently evicted.  Evictions are counted into obs::metrics
// (serve.cache.doc_evictions / serve.cache.pi_evictions); hit/miss
// dispositions are counted by the service, which knows them.
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "numeric/int_linalg.hpp"
#include "obs/metrics.hpp"
#include "serve/replay.hpp"

namespace hypart::serve {

struct PlanCacheStats {
  std::size_t documents = 0;      ///< live tier-2 entries
  std::size_t skeletons = 0;      ///< live tier-1 entries
  std::int64_t doc_hits = 0;
  std::int64_t doc_misses = 0;
  std::int64_t pi_hits = 0;       ///< tier-1 hits after a tier-2 miss
  std::int64_t doc_evictions = 0;
  std::int64_t pi_evictions = 0;
};

class PlanCache {
 public:
  /// Default stripe count requested for each tier; the effective counts
  /// are clamped per tier so every shard owns at least kMinShardCapacity
  /// LRU slots (see doc_shard_count()/pi_shard_count()).
  static constexpr std::size_t kDefaultShards = 8;
  /// Minimum per-shard LRU slots before striping is worth changing the
  /// eviction order; below this a tier stays a single exact global LRU.
  static constexpr std::size_t kMinShardCapacity = 8;

  explicit PlanCache(std::size_t doc_capacity = 256, std::size_t skeleton_capacity = 128,
                     obs::MetricsRegistry* metrics = nullptr,
                     std::size_t shards = kDefaultShards);

  /// Tier-2 lookup; refreshes recency.  Null when absent.
  [[nodiscard]] std::shared_ptr<const RenderedPlan> find_document(const std::string& exact_key);
  /// Tier-2 insert (overwrites an existing entry; may evict the shard's
  /// LRU one).  Returns the stored entry so a miss path can reply from the
  /// same shared template it just published.
  std::shared_ptr<const RenderedPlan> insert_document(const std::string& exact_key,
                                                      RenderedPlan plan);

  /// Tier-1 lookup; refreshes recency.  Counted as a pi hit only when found.
  [[nodiscard]] std::optional<IntVec> find_pi(const std::string& structure_key);
  void insert_pi(const std::string& structure_key, IntVec pi);

  /// Roll-up over all shards of both tiers.
  [[nodiscard]] PlanCacheStats stats() const;
  [[nodiscard]] std::size_t doc_capacity() const { return doc_capacity_; }
  [[nodiscard]] std::size_t skeleton_capacity() const { return skeleton_capacity_; }

  /// Stripe topology and per-stripe counters, exposed so tests can pin
  /// shard selection and assert that per-shard counters sum to stats().
  [[nodiscard]] std::size_t doc_shard_count() const { return doc_shards_.size(); }
  [[nodiscard]] std::size_t pi_shard_count() const { return pi_shards_.size(); }
  [[nodiscard]] std::size_t doc_shard_index(const std::string& exact_key) const;
  [[nodiscard]] std::size_t pi_shard_index(const std::string& structure_key) const;
  /// Counters of one document shard (doc_* fields and `documents` only).
  [[nodiscard]] PlanCacheStats doc_shard_stats(std::size_t shard) const;
  /// Counters of one skeleton shard (pi_* fields and `skeletons` only).
  [[nodiscard]] PlanCacheStats pi_shard_stats(std::size_t shard) const;

 private:
  template <typename V>
  struct LruMap {
    // Recency list, most-recent first; map values carry the list iterator.
    std::list<std::string> order;
    std::map<std::string, std::pair<std::list<std::string>::iterator, V>> entries;

    V* find(const std::string& key) {
      auto it = entries.find(key);
      if (it == entries.end()) return nullptr;
      order.splice(order.begin(), order, it->second.first);
      return &it->second.second;
    }
    /// Inserts (or overwrites) and returns true when the LRU entry was
    /// evicted to make room.
    bool insert(const std::string& key, V value, std::size_t capacity) {
      auto it = entries.find(key);
      if (it != entries.end()) {
        it->second.second = std::move(value);
        order.splice(order.begin(), order, it->second.first);
        return false;
      }
      bool evicted = false;
      if (capacity > 0 && entries.size() >= capacity) {
        entries.erase(order.back());
        order.pop_back();
        evicted = true;
      }
      order.push_front(key);
      entries.emplace(key, std::make_pair(order.begin(), std::move(value)));
      return evicted;
    }
  };

  /// One lock stripe of one tier.  Heap-allocated because std::mutex is
  /// immovable; `capacity` is this stripe's slice of the tier capacity.
  template <typename V>
  struct Shard {
    mutable std::mutex mutex;
    LruMap<V> entries;
    std::size_t capacity = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
  };
  using DocShard = Shard<std::shared_ptr<const RenderedPlan>>;
  using PiShard = Shard<IntVec>;

  const std::size_t doc_capacity_;
  const std::size_t skeleton_capacity_;
  obs::MetricsRegistry* metrics_;

  std::vector<std::unique_ptr<DocShard>> doc_shards_;
  std::vector<std::unique_ptr<PiShard>> pi_shards_;
};

}  // namespace hypart::serve
