// The serving engine: N independent shard publishers, one scatter/gather
// query path, one batch executor.
//
// ShardedEngine partitions the user population across N Shards with a
// ShardRouter (hash or range). Each shard owns its slice's PreferenceIndex
// rows, RatingsOverlay delta log and RCU publish cadence; the engine owns
// everything population-global — the popularity pool, the affinity binding
// (AffinitySource + its (group, period) list cache), and the prediction
// backend behind the shards' shared PoolPredictor. N = 1 is an ordinary
// configuration: one shard holding every user.
//
// Queries scatter/gather at problem-assembly time, zero-copy: for each
// group member the engine asks the router for the owning shard and slices
// that shard's pinned index/overlay into a MemberSlice; the shared assembly
// (core/problem_assembly.h) then builds the problem. Every shard speaks the
// same pool-position key space and a row depends only on its user's merged
// ratings, so recommendations and access counts are bit-identical at any
// shard count (tests/sharded_equivalence_test.cc). A query pins one
// generation per shard plus the affinity binding in a ShardedSnapshotSet;
// shards publishing or a source swapping mid-query cannot perturb it.
//
// Updates scatter by ownership: ApplyUpdates validates the whole batch
// up front (all-or-nothing), splits it per shard preserving arrival order,
// and applies the sub-batches shard by shard — each touched shard publishes
// independently, cloning only ITS rows. Under locality-routed traffic a
// batch touches one shard and the publish cost drops by the shard count
// (bench/bench_shard.cc measures it).
//
// Sub-batches publish in shard order, so a concurrent reader can observe
// shard A post-batch while shard B is still pre-batch; each shard's
// snapshot is individually consistent, and per-user ordering is preserved
// (a user's events all land on one shard). Callers needing a cross-shard
// fence pin a set AFTER ApplyUpdates returns.
//
//   ShardedEngine engine(universe, study, ShardedEngineOptions{});
//   for (auto& result : engine.RecommendBatch(queries)) {
//     if (result.ok()) Use(result.value());
//   }
//   engine.ApplyUpdates(events);  // publishes the touched shards
#ifndef GRECA_SHARD_SHARDED_ENGINE_H_
#define GRECA_SHARD_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "affinity/affinity_source.h"
#include "affinity/dynamic_affinity.h"
#include "affinity/periodic_affinity.h"
#include "affinity/static_affinity.h"
#include "api/snapshot.h"
#include "api/update.h"
#include "cf/user_knn.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/group_recommender.h"
#include "dataset/facebook_study.h"
#include "plan/batch_planner.h"
#include "serve/workspace_pool.h"
#include "shard/shard.h"
#include "shard/shard_router.h"

namespace greca {

struct ShardedEngineOptions {
  std::size_t num_shards = 4;
  ShardStrategy strategy = ShardStrategy::kHash;
  /// CF backend config (study-backed construction only).
  UserKnnConfig knn;
  /// Popularity-pool size (study-backed construction only; the generic
  /// constructor takes the pool itself).
  std::size_t max_candidate_items = 3'900;
  bool exclude_group_rated = true;
  IndexLayout index_layout = IndexLayout::kBanded;
  std::size_t min_band_size = 64;
  /// Whether banded rows also keep a global-order twin — the wide-prefix
  /// fast path (served when a prefix covers more than half the row). False
  /// halves index row storage; wide prefixes then pay the banded merge.
  /// Results are bit-identical either way. Ignored on kFlat.
  bool build_flat_twin = true;
  /// Per-shard delta-log compaction policy. Live ratings accumulate in each
  /// shard's delta log (keeping publishes O(delta)); compaction folds the
  /// log of the shard's own users back into a fresh immutable base. Both
  /// triggers are checked before each shard publish; either suffices, and
  /// compaction changes no observable state (tests/delta_log_test.cc).
  /// Compact after this many publishes of a shard (0 = never by count).
  std::size_t compact_every_n_publishes = 0;
  /// Compact when a shard's delta log exceeds this fraction of its own
  /// users' base ratings (0 = never by size).
  double compact_delta_fraction = 0.25;
  /// Residency cap of each affinity binding's (group, period) list cache;
  /// least recently used lists are evicted past it (0 = unbounded).
  std::size_t period_cache_max_entries = PeriodListCache::kDefaultMaxEntries;
  /// Residency cap of each pinned set's (group, pool) tombstone-bitmap memo
  /// (0 = unbounded; see ShardedSnapshotSet::tombstone_cache).
  std::size_t tombstone_cache_max_entries = TombstoneCache::kDefaultMaxEntries;
  /// Plan RecommendBatch calls before solving them (plan/batch_planner.h):
  /// duplicate queries share one assembled + solved problem, bit-identical
  /// to the one-problem-per-query reference path (false).
  bool plan_batches = true;
  /// Worker threads fanning out the initial per-row index fills at
  /// construction (0 = serial; results are bit-identical either way).
  std::size_t build_threads = 0;
  /// Worker threads for RecommendBatch work units (planner buckets, or
  /// queries on the unplanned path). 0 picks max(2, hardware_concurrency);
  /// 1 runs every unit inline on the calling thread — the serial reference
  /// the parallel path is bit-identical to.
  std::size_t batch_threads = 0;
};

/// The generic (study-free) construction inputs — the million-user scale
/// path, where predictions come from a caller-supplied PoolPredictor
/// instead of a CF model over a study.
struct ShardedEngineInputs {
  /// The population's own ratings (delta-log base; must cover every user).
  std::shared_ptr<const RatingsDataset> ratings;
  /// Population-global affinity backend (ConstantAffinitySource for
  /// populations with no social signal). Must cover num_users.
  std::shared_ptr<const AffinitySource> affinity;
  PoolPredictor predictor;
  /// Raw predictor scores are divided by this before clamping to [0, 1]
  /// (the star-scale max).
  double prediction_scale_max = 5.0;
  /// The shared popularity pool (universe items, popularity order).
  std::vector<ItemId> pool;
  std::size_t num_universe_items = 0;
  std::size_t num_periods = 1;
};

/// One pinned generation per shard plus the affinity binding — what a query
/// (or an explicit caller fence) holds to keep every touched shard's rows
/// and the source it scores with alive and stable. Individual
/// ShardSnapshots are immutable; the set itself is pinned via shared_ptr.
///
/// The binding is the AffinitySource and its (group, period) list cache,
/// shared by every set pinned under it: a set pinned before an
/// UpdateAffinitySource keeps the old source and cache, a set pinned after
/// gets the new source and a cold cache.
///
/// Each set also carries its own (group, pool) tombstone-bitmap memo. A
/// bitmap depends on every member's rated items, i.e. on the WHOLE per-shard
/// generation vector — which is exactly what a set pins and never changes —
/// so scoping the memo to the set makes it correct by construction: queries
/// running on the same set (ShardedEngine::Pin reuses one set object while
/// nothing publishes) share bitmaps, while sets pinned across a publish get
/// a fresh memo.
class ShardedSnapshotSet {
 public:
  ShardedSnapshotSet(std::vector<std::shared_ptr<const ShardSnapshot>> shards,
                     std::shared_ptr<const AffinitySource> affinity,
                     std::shared_ptr<PeriodListCache> period_cache,
                     std::size_t tombstone_cache_max_entries =
                         TombstoneCache::kDefaultMaxEntries)
      : shards_(std::move(shards)),
        affinity_(std::move(affinity)),
        period_cache_(std::move(period_cache)),
        tombstone_cache_(tombstone_cache_max_entries) {}

  std::size_t num_shards() const { return shards_.size(); }
  const ShardSnapshot& shard(std::size_t s) const { return *shards_[s]; }
  const std::shared_ptr<const ShardSnapshot>& shard_ptr(std::size_t s) const {
    return shards_[s];
  }
  /// The shared popularity pool (identical in every shard's index).
  std::span<const ItemId> pool() const { return shards_[0]->index->pool(); }

  /// The affinity source this set scores with.
  const AffinitySource& affinity() const { return *affinity_; }
  /// The binding's (group, period) list cache (internally synchronized;
  /// counters are binding-lifetime, shared by every set under it).
  PeriodListCache& period_cache() const { return *period_cache_; }

  /// The set-scoped (group, pool) tombstone memo (internally synchronized;
  /// hit/miss/eviction counters). Mutable state on an otherwise-immutable
  /// pin, hence the const accessor.
  TombstoneCache& tombstone_cache() const { return tombstone_cache_; }

 private:
  std::vector<std::shared_ptr<const ShardSnapshot>> shards_;
  std::shared_ptr<const AffinitySource> affinity_;
  std::shared_ptr<PeriodListCache> period_cache_;
  mutable TombstoneCache tombstone_cache_;
};

/// Cross-shard aggregation of one ApplyUpdates call plus the per-shard
/// attribution behind it.
struct ShardedUpdateReport {
  /// Sums of the per-shard counters (events_applied, events_ignored_stale,
  /// users_rebuilt, delta_log_ratings, index_bytes_copied);
  /// published_generation is the max over touched shards, compacted is true
  /// when ANY shard compacted, batches_coalesced the max over touched
  /// shards.
  UpdateReport total;
  /// One report per shard, indexed by shard id (untouched shards carry
  /// their current generation and zero counters).
  std::vector<UpdateReport> per_shard;
  /// Shards that received at least one event of this batch.
  std::size_t shards_touched = 0;
};

class ShardedEngine {
 public:
  /// Study-backed construction: builds the UserKnn CF backend over
  /// `universe`, the affinity tables of the study, and one shard per router
  /// slot over the study participants. Both references must outlive the
  /// engine and every set pinned from it. `universe` may be any
  /// collaborative rating dataset — the synthetic twin or a parsed
  /// MovieLens file.
  ShardedEngine(const RatingsDataset& universe, const FacebookStudy& study,
                ShardedEngineOptions options);

  /// Generic construction for populations without a study (the scale
  /// harness): ratings + predictor + pool are taken as-is. The engine must
  /// outlive every problem built from it.
  ShardedEngine(ShardedEngineInputs inputs, ShardedEngineOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_users() const { return router_.num_users(); }
  const ShardRouter& router() const { return router_; }
  const Shard& shard(std::size_t s) const { return *shards_[s]; }

  /// Pins the current generation of EVERY shard and the current affinity
  /// binding (queries pin implicitly; explicit pins give cross-call
  /// stability). Shards publishing while the set is assembled yield a mix
  /// of generations — each individually consistent, see the header comment.
  ///
  /// While nothing publishes, repeated pins return the SAME set object, so
  /// successive queries share its tombstone memo; a shard publish or an
  /// affinity swap makes the next Pin build a fresh set (and fresh memo).
  /// Sets pinned before keep theirs — still correct for what they hold. The
  /// engine drops its own reference to the previous set as soon as a shard
  /// publishes, so once callers release their pins, pre-write generations
  /// are freed before the next Pin.
  std::shared_ptr<const ShardedSnapshotSet> Pin() const;

  /// Validates the whole batch (all-or-nothing: known user, known universe
  /// item, finite rating), splits it by owning shard preserving arrival
  /// order, and applies each non-empty sub-batch to its shard (group-
  /// committed per shard; see Shard::Apply for the fold semantics). Summed
  /// over shards, applied + stale == batch size and users_rebuilt counts
  /// distinct users with applied events.
  Status ApplyUpdates(std::span<const RatingEvent> events,
                      ShardedUpdateReport* report = nullptr);

  /// Binds a new affinity backend: sets pinned from now on score with
  /// `source` and a cold (group, period) list cache; sets pinned before keep
  /// the old source and cache, so in-flight queries are unaffected. The
  /// source must cover the population and periods and be safe for
  /// concurrent const reads. Null sources are rejected with
  /// kInvalidArgument.
  Status UpdateAffinitySource(std::shared_ptr<const AffinitySource> source);

  /// Scatter/gather recommendation against a freshly pinned set.
  Result<Recommendation> Recommend(std::span<const UserId> group,
                                   const QuerySpec& spec,
                                   QueryWorkspace* workspace = nullptr) const;

  /// Snapshot-set-explicit variant: runs entirely against `set`, regardless
  /// of what publishes meanwhile — results are bit-identical for the same
  /// (set, group, spec).
  Result<Recommendation> Recommend(
      const std::shared_ptr<const ShardedSnapshotSet>& set,
      std::span<const UserId> group, const QuerySpec& spec,
      QueryWorkspace* workspace = nullptr) const;

  /// Builds the top-k problem Recommend solves (exposed for tests, benches
  /// and the batch executor) against `set`. Zero-copy: member preference
  /// lists are ListView slices of the owning shards' pinned rows (pool-prefix
  /// keys, group-rated items tombstoned); periodic affinity lists come from
  /// the set's (group, period) cache.
  ///
  /// `candidates_out`, when non-null, receives the candidate-pool items in
  /// key order (problem key k ↔ candidates_out[k]; tombstoned keys never
  /// appear in results). When `workspace` is non-null the problem's views
  /// point into its arena — the workspace must outlive the problem and not
  /// be reused before the problem is dropped; when null the problem owns its
  /// arena. Either way the problem shares ownership of `set`, so its rows
  /// outlive any later publish.
  Result<GroupProblem> BuildProblem(
      const std::shared_ptr<const ShardedSnapshotSet>& set,
      std::span<const UserId> group, const QuerySpec& spec,
      std::vector<ItemId>* candidates_out = nullptr,
      QueryWorkspace* workspace = nullptr) const;

  /// Batch execution against one pinned set (pinned internally; every query
  /// sees the same per-shard generation vector). Planned by default (see
  /// ShardedEngineOptions::plan_batches): duplicate queries share one
  /// assembled + solved problem. Work units run in parallel over the batch
  /// pool (ShardedEngineOptions::batch_threads) through the batch executor
  /// (serve/batch_executor.h), bit-identical to serial execution. Failures
  /// are per query, in input order. `report`, when non-null, receives
  /// planner stats + attribution.
  std::vector<Result<Recommendation>> RecommendBatch(
      std::span<const Query> queries, BatchReport* report = nullptr) const;

  /// Set-explicit variant, e.g. to replay a batch on an older pin.
  std::vector<Result<Recommendation>> RecommendBatch(
      const std::shared_ptr<const ShardedSnapshotSet>& set,
      std::span<const Query> queries, BatchReport* report = nullptr) const;

  /// Validates a query without running it: non-empty group of known,
  /// distinct users, a registered solver (which may veto further — GRECA
  /// caps groups at 32), k >= 1, a non-empty candidate pool and an in-range
  /// evaluation period covered by the affinity source. The first overload
  /// checks against the current binding, the second against `set`'s.
  Status ValidateQuery(std::span<const UserId> group,
                       const QuerySpec& spec) const;
  Status ValidateQuery(const ShardedSnapshotSet& set,
                       std::span<const UserId> group,
                       const QuerySpec& spec) const;

  std::size_t num_periods() const { return num_periods_; }

  /// Distinct shards owning at least one member of `group` — the scatter
  /// width of a query (bench/bench_shard.cc reports its average per
  /// workload).
  std::size_t ShardsTouched(std::span<const UserId> group) const;

  /// The currently bound affinity source. The reference stays valid until
  /// the next UpdateAffinitySource; code that can race a swap reads
  /// Pin()->affinity() instead.
  const AffinitySource& affinity() const;
  /// The shared popularity pool (identical in every shard's index).
  std::span<const ItemId> pool() const;

 private:
  void BuildShards(std::shared_ptr<const RatingsDataset> base,
                   double scale_max, std::vector<ItemId> pool,
                   std::size_t num_universe_items);

  /// Drops the cached last pin when it no longer holds shard `s`'s current
  /// generation, so it cannot keep a pre-write generation alive.
  void ReleaseStalePin(std::size_t s);

  ShardedEngineOptions options_;
  ShardRouter router_;
  std::size_t num_universe_items_ = 0;
  std::size_t num_periods_ = 1;

  // Study-backed state (null/empty on the generic path). knn_ backs the
  // shards' PoolPredictor, so it must outlive them (declaration order).
  std::unique_ptr<UserKnn> knn_;
  PairTable static_;
  std::unique_ptr<PeriodicAffinity> periodic_;
  std::unique_ptr<DynamicAffinityIndex> dynamic_;

  PoolPredictor predictor_;
  /// Engine-owned copy of the shared pool (pool() stays valid without
  /// pinning any shard generation).
  std::vector<ItemId> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Batch parallelism (null when batch_threads == 1) + the workspace pool
  // concurrent batches lease their per-worker scratch from.
  std::unique_ptr<ThreadPool> batch_pool_;
  mutable WorkspacePool workspace_pool_;

  // Guarded by pin_mu_: the affinity binding every Pin() captures, and the
  // last set handed out, returned again while every shard's snapshot
  // pointer is unchanged so repeat pins share its tombstone memo. The
  // per-shard snapshot reads take each shard's own publication mutex.
  mutable std::mutex pin_mu_;
  std::shared_ptr<const AffinitySource> affinity_;
  std::shared_ptr<PeriodListCache> period_cache_;
  mutable std::shared_ptr<const ShardedSnapshotSet> last_pin_;
};

}  // namespace greca

#endif  // GRECA_SHARD_SHARDED_ENGINE_H_
