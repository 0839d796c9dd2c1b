// The memo caches a pinned serving view shares across queries.
//
// PeriodListCache memoizes the materialized periodic-affinity pair lists,
// which depend only on (group, period) and the bound AffinitySource — not on
// the query's candidate pool and not on ratings — while batch workloads
// repeat groups constantly. One cache is scoped to one affinity binding:
// every ShardedSnapshotSet pinned under the same binding shares it (rating
// publishes leave it warm, their lists are bit-identical), and
// ShardedEngine::UpdateAffinitySource starts a fresh one. Invalidation is
// therefore free — when the last set sharing a cache retires, the cache goes
// with it. Cached lists are immutable once inserted and pointer-stable, so
// GroupProblem views alias them directly.
//
// TombstoneCache memoizes the (group, pool) already-rated bitmaps, which
// depend on the members' rated items; each pinned set owns one, so its
// scope is exactly the generation vector the set pins.
//
// Thread-safety: both caches are internally synchronized — any number of
// threads may read them concurrently. Cache hits are allocation-free
// (heterogeneous key lookup on the group span).
//
// Both caches are BOUNDED: at most max_entries values stay resident, evicted
// least-recently-used once the cap is hit, so a long-lived binding under
// adversarial ad-hoc group churn cannot grow without bound. Entries are
// handed out as shared_ptrs — a problem assembled from a list that gets
// evicted mid-flight keeps its copy alive through the arena's pins
// (topk/problem.h), so eviction is never a correctness event. Eviction
// counters sit next to the hit/miss counters for observability.
#ifndef GRECA_API_SNAPSHOT_H_
#define GRECA_API_SNAPSHOT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "affinity/affinity_source.h"
#include "common/types.h"
#include "topk/sorted_list.h"

namespace greca {

/// The bounded-LRU machinery shared by the memo caches
/// (PeriodListCache, TombstoneCache): (ordered group, uint64 tag) →
/// immutable shared value, internally synchronized, with hit/miss/eviction
/// counters. Values are built OUTSIDE the lock (a lost insert race discards
/// the duplicate build) and handed out as shared_ptrs, so an entry evicted
/// mid-flight stays alive for every holder — eviction is never a
/// correctness event.
template <typename Value>
class BoundedGroupCache {
 public:
  /// `max_entries` == 0 means unbounded (no eviction ever).
  explicit BoundedGroupCache(std::size_t max_entries)
      : max_entries_(max_entries) {}

  /// The cached value for (group, tag), built via `build` — a callable
  /// returning std::shared_ptr<const Value> — on first use. The group is
  /// significant in ORDER; the validated query path always presents a
  /// canonical order.
  template <typename Builder>
  std::shared_ptr<const Value> GetOrBuild(std::span<const UserId> group,
                                          std::uint64_t tag, Builder&& build) {
    const KeyView probe{group, tag};
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = cache_.find(probe);  // heterogeneous: no key allocation
      if (it != cache_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        it->second.last_used = ++use_clock_;
        return it->second.value;
      }
    }
    // Build outside the lock so a slow build never stalls other readers'
    // cache hits.
    std::shared_ptr<const Value> built = build();
    Key key{std::vector<UserId>(group.begin(), group.end()), tag};
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = cache_.try_emplace(std::move(key));
    if (inserted) {
      it->second.value = std::move(built);
      misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    it->second.last_used = ++use_clock_;
    std::shared_ptr<const Value> result = it->second.value;
    // Evict AFTER grabbing the result: even a cap of 1 under heavy churn
    // hands every caller a live value (the shared_ptr outlives residency).
    EvictIfNeededLocked();
    return result;
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Entries dropped by the LRU cap (0 while the working set fits).
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::size_t max_entries() const { return max_entries_; }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }

  /// Resident bytes: the key/bookkeeping overhead plus `value_bytes(v)` per
  /// resident value, accumulated under the lock.
  template <typename Fn>
  std::size_t MemoryBytes(Fn&& value_bytes) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t bytes = 0;
    for (const auto& [key, entry] : cache_) {
      bytes += key.group.size() * sizeof(UserId) + sizeof(Key) + sizeof(Entry);
      bytes += value_bytes(*entry.value);
    }
    return bytes;
  }

 private:
  struct Key {
    std::vector<UserId> group;
    std::uint64_t tag = 0;
  };
  /// Allocation-free probe key over a caller-owned span.
  struct KeyView {
    std::span<const UserId> group;
    std::uint64_t tag = 0;
  };
  struct KeyHash {
    using is_transparent = void;
    static std::size_t Mix(std::span<const UserId> group, std::uint64_t tag) {
      // FNV-1a over the member ids and the tag.
      std::uint64_t h = 1469598103934665603ull;
      auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      for (const UserId u : group) mix(u);
      mix(0xABCDull);
      mix(tag);
      return static_cast<std::size_t>(h);
    }
    std::size_t operator()(const Key& k) const { return Mix(k.group, k.tag); }
    std::size_t operator()(const KeyView& k) const {
      return Mix(k.group, k.tag);
    }
  };
  struct KeyEqual {
    using is_transparent = void;
    static bool Eq(std::span<const UserId> a, std::uint64_t ta,
                   std::span<const UserId> b, std::uint64_t tb) {
      return ta == tb && std::ranges::equal(a, b);
    }
    bool operator()(const Key& a, const Key& b) const {
      return Eq(a.group, a.tag, b.group, b.tag);
    }
    bool operator()(const KeyView& a, const Key& b) const {
      return Eq(a.group, a.tag, b.group, b.tag);
    }
    bool operator()(const Key& a, const KeyView& b) const {
      return Eq(a.group, a.tag, b.group, b.tag);
    }
  };

  /// One resident value plus its recency stamp. shared_ptr values keep
  /// addresses stable across rehashes AND alive across eviction.
  struct Entry {
    std::shared_ptr<const Value> value;
    std::uint64_t last_used = 0;
  };

  /// Drops least-recently-used entries until size() <= max_entries_.
  /// Requires mu_ held. O(size) per eviction — evictions only happen on
  /// misses, which already pay a full value build.
  void EvictIfNeededLocked() {
    while (max_entries_ > 0 && cache_.size() > max_entries_) {
      auto victim = cache_.begin();
      for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->second.last_used < victim->second.last_used) victim = it;
      }
      cache_.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const std::size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash, KeyEqual> cache_;
  std::uint64_t use_clock_ = 0;  // guarded by mu_
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Memoized (group, period) → materialized periodic-affinity pair list.
/// Internally synchronized; shared by every pinned set bound to the same
/// AffinitySource. Entries are immutable and pointer-stable.
class PeriodListCache {
 public:
  /// Default residency cap: generous for real batch workloads (which repeat
  /// a few hundred groups × a handful of periods) while bounding adversarial
  /// group churn to a few MB of pair lists.
  static constexpr std::size_t kDefaultMaxEntries = 8'192;

  /// `max_entries` == 0 means unbounded (no eviction ever).
  explicit PeriodListCache(std::size_t max_entries = kDefaultMaxEntries)
      : cache_(max_entries) {}

  /// The cached list for (group, p), materialized through `source` on first
  /// use. The returned shared_ptr keeps the list alive across eviction —
  /// problem assembly pins it for the problem's lifetime.
  std::shared_ptr<const SortedList> GetShared(std::span<const UserId> group,
                                              PeriodId p,
                                              const AffinitySource& source);

  /// Reference-returning convenience for tests and single-threaded callers:
  /// the reference stays valid only while the entry is resident (or while a
  /// GetShared copy pins it), so code that can churn past max_entries()
  /// between materialization and last use must hold GetShared instead.
  const SortedList& Get(std::span<const UserId> group, PeriodId p,
                        const AffinitySource& source) {
    return *GetShared(group, p, source);
  }

  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }
  /// Entries dropped by the LRU cap (0 while the working set fits).
  std::uint64_t evictions() const { return cache_.evictions(); }
  std::size_t max_entries() const { return cache_.max_entries(); }
  std::size_t size() const { return cache_.size(); }
  std::size_t MemoryBytes() const;

 private:
  BoundedGroupCache<SortedList> cache_;
};

/// One group's candidate-pool exclusion state: the §2.4 already-rated
/// tombstone bitmap (1 bit per pool key, set = excluded) plus the live-key
/// count an assembled problem needs alongside it.
struct TombstoneSet {
  std::vector<std::uint64_t> words;
  std::size_t live = 0;
};

/// Memoized (group, pool-prefix) → tombstone bitmap. Bitmaps depend on the
/// group members' rated items — base rows plus the live delta log — so a
/// cache instance is scoped to ONE pinned generation vector (each
/// ShardedSnapshotSet owns one; invalidation is free, exactly like the
/// period cache's affinity scoping). Batch workloads repeat groups
/// constantly, and between publishes every repeat skips the per-member
/// rated-item walk.
class TombstoneCache {
 public:
  /// Default residency cap: bitmaps are a few hundred bytes each (pool/8),
  /// so the worst-case resident set stays in the low MB.
  static constexpr std::size_t kDefaultMaxEntries = 4'096;

  /// `max_entries` == 0 means unbounded (no eviction ever).
  explicit TombstoneCache(std::size_t max_entries = kDefaultMaxEntries)
      : cache_(max_entries) {}

  /// The cached bitmap for (group, pool), built via `build` — a callable
  /// returning std::shared_ptr<const TombstoneSet> — on first use. The
  /// returned shared_ptr keeps the set alive across eviction; problem
  /// assembly pins it for the problem's lifetime.
  template <typename Builder>
  std::shared_ptr<const TombstoneSet> GetShared(std::span<const UserId> group,
                                                std::size_t pool,
                                                Builder&& build) {
    return cache_.GetOrBuild(group, static_cast<std::uint64_t>(pool),
                             std::forward<Builder>(build));
  }

  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }
  /// Entries dropped by the LRU cap (0 while the working set fits).
  std::uint64_t evictions() const { return cache_.evictions(); }
  std::size_t max_entries() const { return cache_.max_entries(); }
  std::size_t size() const { return cache_.size(); }
  std::size_t MemoryBytes() const {
    return cache_.MemoryBytes([](const TombstoneSet& set) {
      return sizeof(TombstoneSet) +
             set.words.size() * sizeof(std::uint64_t);
    });
  }

 private:
  BoundedGroupCache<TombstoneSet> cache_;
};

}  // namespace greca

#endif  // GRECA_API_SNAPSHOT_H_
