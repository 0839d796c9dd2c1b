// Tests for the engine's pinned-set serving contract: RCU-style publish
// semantics (pinned generations are immutable under concurrent updates),
// the live-update path (ApplyUpdates rebuilds index rows + tombstones), the
// binding-scoped period-list cache, affinity swaps (UpdateAffinitySource),
// the release of pre-write generations, and racing publishers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "api/query_builder.h"
#include "common/rng.h"
#include "shard/sharded_engine.h"
#include "test_util.h"

namespace greca {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 350;
    uc.num_items = 450;
    uc.target_ratings = 30'000;
    uc.seed = 33;
    universe_ = new SyntheticRatings(GenerateSyntheticRatings(uc));
    FacebookStudyConfig sc;
    sc.diversity_pool = 200;
    study_ = new FacebookStudy(GenerateFacebookStudy(sc, *universe_));
    tables_ = new testing::StudyTables(*study_);
  }
  static void TearDownTestSuite() {
    delete tables_;
    tables_ = nullptr;
    delete study_;
    delete universe_;
    study_ = nullptr;
    universe_ = nullptr;
  }

  static ShardedEngineOptions Options(std::size_t threads,
                                      std::size_t shards) {
    ShardedEngineOptions options;
    options.num_shards = shards;
    options.max_candidate_items = 400;
    options.batch_threads = threads;
    return options;
  }

  /// One shard by default, so "the generation" is shard 0's.
  static std::unique_ptr<ShardedEngine> MakeEngine(std::size_t threads = 4,
                                                   std::size_t shards = 1) {
    return std::make_unique<ShardedEngine>(universe_->dataset, *study_,
                                           Options(threads, shards));
  }

  static std::uint64_t Generation(const ShardedEngine& engine) {
    return engine.shard(0).snapshot()->generation;
  }

  /// A study-table source wrapped in a decay decorator (decay 1 = identity).
  static std::shared_ptr<const AffinitySource> Decayed(double decay) {
    return std::make_shared<DecayWeightedAffinitySource>(
        std::make_shared<StudyAffinitySource>(tables_->static_counts,
                                              tables_->periodic),
        decay);
  }

  static void ExpectSame(const Result<Recommendation>& a,
                         const Result<Recommendation>& b,
                         const std::string& where) {
    ASSERT_TRUE(a.ok()) << where;
    ASSERT_TRUE(b.ok()) << where;
    EXPECT_EQ(a.value().items, b.value().items) << where;
    EXPECT_EQ(a.value().scores, b.value().scores) << where;
  }

  /// A mixed batch exercising all algorithms, models and several periods.
  static std::vector<Query> MixedBatch(const ShardedEngine& engine,
                                       std::size_t count,
                                       std::uint64_t seed) {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto num_periods = static_cast<PeriodId>(engine.num_periods());
    const AffinityModelSpec models[] = {
        AffinityModelSpec::Default(), AffinityModelSpec::Continuous(),
        AffinityModelSpec::TimeAgnostic()};
    const Algorithm algorithms[] = {Algorithm::kGreca, Algorithm::kNaive,
                                    Algorithm::kTa};
    Rng rng(seed);
    std::vector<Query> batch;
    for (std::size_t i = 0; i < count; ++i) {
      Query q;
      const std::size_t size = 2 + rng.NextInt(0, 4);
      while (q.group.size() < size) {
        const auto u =
            static_cast<UserId>(rng.NextInt(0, participants - 1));
        if (std::find(q.group.begin(), q.group.end(), u) == q.group.end()) {
          q.group.push_back(u);
        }
      }
      q.spec.k = 3 + i % 6;
      q.spec.model = models[i % 3];
      q.spec.algorithm = algorithms[i % 3];
      q.spec.num_candidate_items = 400;
      q.spec.eval_period = static_cast<PeriodId>(i % num_periods);
      batch.push_back(std::move(q));
    }
    return batch;
  }

  static std::vector<RatingEvent> RandomEvents(std::size_t count,
                                               std::uint64_t seed) {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto items = static_cast<ItemId>(universe_->dataset.num_items());
    Rng rng(seed);
    std::vector<RatingEvent> events;
    for (std::size_t i = 0; i < count; ++i) {
      RatingEvent e;
      e.user = static_cast<UserId>(rng.NextInt(0, participants - 1));
      e.item = static_cast<ItemId>(rng.NextInt(0, items - 1));
      e.rating = static_cast<Score>(1 + rng.NextInt(0, 4));
      // Far-future timestamps so every event overrides any stored rating.
      e.timestamp = 1'000'000'000 + static_cast<Timestamp>(i);
      events.push_back(e);
    }
    return events;
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
  static testing::StudyTables* tables_;
};

SyntheticRatings* SnapshotTest::universe_ = nullptr;
FacebookStudy* SnapshotTest::study_ = nullptr;
testing::StudyTables* SnapshotTest::tables_ = nullptr;

TEST_F(SnapshotTest, GenerationsIncrementAndReportsFill) {
  auto engine = MakeEngine();
  const auto g1 = engine->Pin();
  EXPECT_EQ(g1->shard(0).generation, 1u);

  ShardedUpdateReport report;
  ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(16, 7), &report).ok());
  EXPECT_EQ(report.total.published_generation, 2u);
  EXPECT_EQ(report.total.events_applied, 16u);
  EXPECT_GE(report.total.users_rebuilt, 1u);
  EXPECT_LE(report.total.users_rebuilt, 16u);
  EXPECT_EQ(Generation(*engine), 2u);
  // The pinned generation-1 set is untouched.
  EXPECT_EQ(g1->shard(0).generation, 1u);

  // Affinity swaps rebind without publishing rows: same generation, but the
  // next pin is a new set carrying the new source.
  ASSERT_TRUE(engine->UpdateAffinitySource(Decayed(0.5)).ok());
  EXPECT_EQ(Generation(*engine), 2u);
  EXPECT_NE(engine->Pin().get(), g1.get());

  // Empty batches publish nothing (every generation means a state change)
  // and still report the current generation.
  ASSERT_TRUE(engine->ApplyUpdates({}, &report).ok());
  EXPECT_EQ(report.total.events_applied, 0u);
  EXPECT_EQ(report.total.published_generation, 2u);
  EXPECT_EQ(Generation(*engine), 2u);
}

TEST_F(SnapshotTest, InvalidEventsRejectAtomically) {
  auto engine = MakeEngine(/*threads=*/4, /*shards=*/2);
  const auto generations = [&engine] {
    return std::vector<std::uint64_t>{
        engine->shard(0).snapshot()->generation,
        engine->shard(1).snapshot()->generation};
  };
  const std::vector<std::uint64_t> initial = generations();
  std::vector<RatingEvent> events = RandomEvents(4, 11);
  events[2].user = 10'000;  // unknown user
  auto status = engine->ApplyUpdates(events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(generations(), initial) << "nothing published on any shard";

  events = RandomEvents(4, 13);
  events[0].item = 1'000'000;  // unknown universe item
  status = engine->ApplyUpdates(events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(generations(), initial);

  // Non-finite ratings would poison the fold (NaN similarities) forever.
  events = RandomEvents(4, 19);
  events[3].rating = std::numeric_limits<Score>::quiet_NaN();
  status = engine->ApplyUpdates(events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(generations(), initial);

  // A null explicit set is a Status, not a crash.
  Query query;
  query.group = {4, 17};
  query.spec.k = 3;
  const auto null_set = engine->Recommend(nullptr, query.group, query.spec);
  ASSERT_FALSE(null_set.ok());
  EXPECT_EQ(null_set.status().code(), StatusCode::kInvalidArgument);
}

// The tentpole guarantee: a batch pinned to generation G returns
// bit-identical results whether or not updates publish G+1 (and G+2, ...)
// mid-stream. Randomized over groups, specs and event batches.
TEST_F(SnapshotTest, PinnedBatchIsImmuneToConcurrentPublishes) {
  auto engine = MakeEngine(/*threads=*/4, /*shards=*/2);
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const auto pinned = engine->Pin();
    const std::vector<Query> batch = MixedBatch(*engine, 24, 100 + trial);
    const auto before = engine->RecommendBatch(pinned, batch);

    // Publish newer generations: rating updates always, an affinity swap on
    // odd trials.
    ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(32, 200 + trial)).ok());
    if (trial % 2 == 1) {
      ASSERT_TRUE(engine
                      ->UpdateAffinitySource(
                          Decayed(0.5 + 0.1 * static_cast<double>(trial)))
                      .ok());
    }
    EXPECT_NE(engine->Pin().get(), pinned.get());

    // Replaying against the pinned set is bit-identical.
    const auto after = engine->RecommendBatch(pinned, batch);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ExpectSame(before[i], after[i],
                 "trial " + std::to_string(trial) + " query " +
                     std::to_string(i));
    }

    // The current set serves the same batch without error (results may
    // legitimately differ — the data changed).
    for (const auto& r : engine->RecommendBatch(batch)) {
      EXPECT_TRUE(r.ok());
    }
  }
}

// Live ratings must actually change serving: rating an item for every
// member tombstones it out of that group's candidates (§2.4 exclusion).
TEST_F(SnapshotTest, AppliedRatingsTombstoneRecommendedItems) {
  auto engine = MakeEngine();
  Query query;
  query.group = {4, 17, 29};
  query.spec.k = 5;
  query.spec.num_candidate_items = 400;

  const auto before = engine->Recommend(query.group, query.spec);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before.value().items.empty());
  const ItemId top = before.value().items[0];

  std::vector<RatingEvent> events;
  for (const UserId member : query.group) {
    events.push_back({member, top, 5.0, 2'000'000'000});
  }
  ASSERT_TRUE(engine->ApplyUpdates(events).ok());

  const auto after = engine->Recommend(query.group, query.spec);
  ASSERT_TRUE(after.ok());
  for (const ItemId item : after.value().items) {
    EXPECT_NE(item, top) << "group-rated item still recommended";
  }
  // The update also lands in the shard's merged ratings view (the delta
  // log, not the immutable base).
  const auto snap = engine->shard(0).snapshot();
  EXPECT_TRUE(snap->ratings->HasRating(4, top));
  EXPECT_FALSE(snap->ratings->base().HasRating(4, top));
}

// Period-list cache: the first query for a (group, period) materializes, a
// repeated group served under the same binding rebuilds nothing.
TEST_F(SnapshotTest, PeriodCacheHitsOnRepeatedGroups) {
  auto engine = MakeEngine();
  const auto snap = engine->Pin();
  const PeriodListCache& cache = snap->period_cache();
  const auto last_period = static_cast<PeriodId>(engine->num_periods() - 1);
  const std::size_t periods = static_cast<std::size_t>(last_period) + 1;

  Query query;
  query.group = {4, 17, 29};
  query.spec.k = 5;
  query.spec.num_candidate_items = 400;
  query.spec.eval_period = last_period;  // touches every period list

  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  ASSERT_TRUE(engine->Recommend(snap, query.group, query.spec).ok());
  EXPECT_EQ(cache.misses(), periods);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), periods);

  // Second identical query: zero pair-list rebuild work — every period list
  // is a cache hit and no new list is materialized.
  ASSERT_TRUE(engine->Recommend(snap, query.group, query.spec).ok());
  EXPECT_EQ(cache.misses(), periods) << "no rebuild on repeat";
  EXPECT_EQ(cache.hits(), periods);
  EXPECT_EQ(cache.size(), periods);

  // A different group misses again (cache is keyed by (group, period)).
  Query other = query;
  other.group = {3, 11};
  ASSERT_TRUE(engine->Recommend(snap, other.group, other.spec).ok());
  EXPECT_EQ(cache.misses(), 2 * periods);
  EXPECT_EQ(cache.size(), 2 * periods);

  EXPECT_GT(cache.MemoryBytes(), 0u);

  // Rating updates do not change the affinity binding, so the next set
  // SHARES the cache — the repeated group stays warm across a steady update
  // stream.
  ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(4, 17)).ok());
  const auto next = engine->Pin();
  ASSERT_NE(next.get(), snap.get());
  EXPECT_EQ(&next->period_cache(), &cache);
  const auto hits_before = cache.hits();
  ASSERT_TRUE(engine->Recommend(next, query.group, query.spec).ok());
  EXPECT_EQ(cache.misses(), 2 * periods) << "still warm";
  EXPECT_EQ(cache.hits(), hits_before + periods);

  // An affinity-source swap DOES change the lists: sets pinned after it
  // start a cold cache, while the earlier sets keep theirs.
  ASSERT_TRUE(engine->UpdateAffinitySource(Decayed(0.7)).ok());
  const auto swapped = engine->Pin();
  EXPECT_NE(&swapped->period_cache(), &cache);
  EXPECT_EQ(swapped->period_cache().misses(), 0u);
  EXPECT_EQ(swapped->period_cache().size(), 0u);
  EXPECT_EQ(swapped->period_cache().MemoryBytes(), 0u);
  EXPECT_EQ(cache.size(), 2 * periods);
}

// A swap binds the new source to every set pinned after it and to none
// pinned before; a rejected (null) swap changes nothing.
TEST_F(SnapshotTest, UpdateAffinitySourceBindsOnlyLaterPins) {
  auto engine = MakeEngine(/*threads=*/2, /*shards=*/2);
  const std::vector<Query> batch = MixedBatch(*engine, 16, 31);
  const auto before_set = engine->Pin();
  const auto before = engine->RecommendBatch(before_set, batch);

  EXPECT_EQ(engine->UpdateAffinitySource(nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->Pin(), before_set) << "a rejected swap rebinds nothing";

  const std::shared_ptr<const AffinitySource> decayed = Decayed(0.3);
  ASSERT_TRUE(engine->UpdateAffinitySource(decayed).ok());
  const auto after_set = engine->Pin();
  EXPECT_EQ(&after_set->affinity(), decayed.get());
  EXPECT_EQ(&engine->affinity(), decayed.get());
  EXPECT_NE(&before_set->affinity(), decayed.get());
  EXPECT_EQ(after_set->period_cache().size(), 0u) << "cold cache";
  // Both sets hold the same row generations: only the binding differs.
  for (std::size_t s = 0; s < engine->num_shards(); ++s) {
    EXPECT_EQ(after_set->shard_ptr(s), before_set->shard_ptr(s));
  }

  // The earlier pin still answers with the old source, bit-identically.
  const auto replay = engine->RecommendBatch(before_set, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectSame(before[i], replay[i], "query " + std::to_string(i));
  }
  // The later pin answers exactly like a fresh engine bound to the same
  // source from the start.
  auto fresh = MakeEngine(/*threads=*/2, /*shards=*/2);
  ASSERT_TRUE(fresh->UpdateAffinitySource(decayed).ok());
  const auto expected = fresh->RecommendBatch(batch);
  const auto rebound = engine->RecommendBatch(after_set, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectSame(expected[i], rebound[i], "query " + std::to_string(i));
  }
}

// The engine caches the last set it handed out (Pin reuse). A publish must
// not let that cache keep the pre-write generation alive: once ApplyUpdates
// returns and the caller holds no pin, the old generation is freed. A batch
// that publishes nothing keeps the cached set.
TEST_F(SnapshotTest, PublishReleasesThePreviousPin) {
  auto engine = MakeEngine(/*threads=*/1, /*shards=*/2);
  RatingEvent e;
  e.user = 4;
  e.item = 7;
  e.rating = 4.0;
  e.timestamp = 2'000'000'000;
  const std::size_t written = engine->router().ShardOf(e.user);
  const std::size_t other = 1 - written;

  auto pin = engine->Pin();
  const std::weak_ptr<const ShardSnapshot> pre_write = pin->shard_ptr(written);
  const std::weak_ptr<const ShardSnapshot> untouched = pin->shard_ptr(other);
  pin.reset();
  ASSERT_TRUE(engine->ApplyUpdates({&e, 1}).ok());
  EXPECT_TRUE(pre_write.expired()) << "pre-write generation still held";
  EXPECT_FALSE(untouched.expired()) << "the shard still serves it";

  // An all-stale batch publishes nothing: the cached set survives and the
  // next pin reuses it.
  auto cached = engine->Pin();
  const std::weak_ptr<const ShardedSnapshotSet> weak_cached = cached;
  cached.reset();
  ShardedUpdateReport report;
  ASSERT_TRUE(engine->ApplyUpdates({&e, 1}, &report).ok());
  EXPECT_EQ(report.total.events_ignored_stale, 1u);
  ASSERT_FALSE(weak_cached.expired());
  EXPECT_EQ(engine->Pin(), weak_cached.lock());
}

// The period-list cache is bounded: entries past the cap evict least
// recently used, the eviction counter sits next to hit/miss, and a
// GetShared copy held by a query survives its own eviction.
TEST_F(SnapshotTest, PeriodCacheEvictsLeastRecentlyUsedPastCap) {
  const auto last_period =
      static_cast<PeriodId>(study_->periods.num_periods() - 1);
  const std::size_t periods = static_cast<std::size_t>(last_period) + 1;

  ShardedEngineOptions options = Options(/*threads=*/2, /*shards=*/1);
  options.period_cache_max_entries = periods;  // exactly one group fits
  auto engine = std::make_unique<ShardedEngine>(universe_->dataset, *study_,
                                                options);
  const auto snap = engine->Pin();
  PeriodListCache& cache = snap->period_cache();

  Query query;
  query.group = {4, 17, 29};
  query.spec.k = 5;
  query.spec.num_candidate_items = 400;
  query.spec.eval_period = last_period;  // touches every period list

  // Group A fills the cache to the cap without evicting.
  ASSERT_TRUE(engine->Recommend(snap, query.group, query.spec).ok());
  const auto first = engine->Recommend(snap, query.group, query.spec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.size(), periods);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.hits(), periods) << "repeat was all hits";

  // Hold one of A's lists across the churn below.
  const std::shared_ptr<const SortedList> pinned =
      cache.GetShared(query.group, 0, snap->affinity());

  // Group B displaces A entry by entry; the size never passes the cap.
  Query other = query;
  other.group = {3, 11};
  ASSERT_TRUE(engine->Recommend(snap, other.group, other.spec).ok());
  EXPECT_EQ(cache.size(), periods);
  EXPECT_EQ(cache.evictions(), periods);

  // B is resident (all hits), A was evicted (all misses again) — LRU, not
  // random or insertion-order eviction.
  const auto hits_before = cache.hits();
  const auto misses_before = cache.misses();
  ASSERT_TRUE(engine->Recommend(snap, other.group, other.spec).ok());
  EXPECT_EQ(cache.hits(), hits_before + periods);
  EXPECT_EQ(cache.misses(), misses_before);
  const auto replay = engine->Recommend(snap, query.group, query.spec);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(cache.misses(), misses_before + periods)
      << "evicted lists rebuild from scratch";

  // Eviction is invisible to results: the rebuilt lists answer identically.
  ExpectSame(first, replay, "replay");

  // The held copy outlived its eviction and still matches a direct
  // materialization.
  const SortedList direct =
      snap->affinity().MaterializePeriodList(query.group, 0);
  ASSERT_EQ(pinned->size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(pinned->entry(i).id, direct.entry(i).id);
    EXPECT_EQ(pinned->entry(i).score, direct.entry(i).score);
  }

  // An unbounded cache (cap 0) never evicts under the same workload.
  ShardedEngineOptions unbounded = options;
  unbounded.period_cache_max_entries = 0;
  auto engine2 = std::make_unique<ShardedEngine>(universe_->dataset, *study_,
                                                 unbounded);
  const auto snap2 = engine2->Pin();
  ASSERT_TRUE(engine2->Recommend(snap2, query.group, query.spec).ok());
  ASSERT_TRUE(engine2->Recommend(snap2, other.group, other.spec).ok());
  EXPECT_EQ(snap2->period_cache().size(), 2 * periods);
  EXPECT_EQ(snap2->period_cache().evictions(), 0u);
}

// Cached lists must be identical to freshly materialized ones (the cache is
// a pure memoization, not an approximation).
TEST_F(SnapshotTest, CachedPeriodListsMatchDirectMaterialization) {
  auto engine = MakeEngine();
  const auto snap = engine->Pin();
  PeriodListCache& cache = snap->period_cache();
  const std::vector<UserId> group = {2, 9, 23, 31};
  const auto last_period = static_cast<PeriodId>(engine->num_periods() - 1);
  for (PeriodId p = 0; p <= last_period; ++p) {
    const SortedList& cached = cache.Get(group, p, snap->affinity());
    const SortedList direct = snap->affinity().MaterializePeriodList(group, p);
    ASSERT_EQ(cached.size(), direct.size()) << "period " << p;
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(cached.entry(i).id, direct.entry(i).id) << "period " << p;
      EXPECT_EQ(cached.entry(i).score, direct.entry(i).score)
          << "period " << p;
    }
    // Second lookup returns the same stable address.
    EXPECT_EQ(&cache.Get(group, p, snap->affinity()), &cached);
  }
}

// Swapping the affinity source while batches are in flight. Under ASan/TSan
// this must be clean, and every result must be either the old or the new
// source's answer — never a blend.
TEST_F(SnapshotTest, AffinitySwapMidBatchIsSafe) {
  auto engine = MakeEngine(/*threads=*/3, /*shards=*/2);
  const std::vector<Query> batch = MixedBatch(*engine, 32, 424);
  const std::shared_ptr<const AffinitySource> sources[] = {Decayed(1.0),
                                                           Decayed(0.3)};

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(engine->UpdateAffinitySource(sources[i++ % 2]).ok());
      std::this_thread::yield();
    }
  });

  // Consistency oracle: each batch pins one set, so its results must equal
  // a sequential replay against that same set.
  for (int round = 0; round < 8; ++round) {
    const auto pinned = engine->Pin();
    const auto results = engine->RecommendBatch(pinned, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto replay =
          engine->Recommend(pinned, batch[i].group, batch[i].spec);
      ExpectSame(results[i], replay,
                 "round " + std::to_string(round) + " query " +
                     std::to_string(i));
    }
  }
  stop.store(true);
  writer.join();
}

// Rating updates racing a query stream: queries must never crash or error,
// and every RecommendBatch must be internally consistent with the one set it
// pinned. (The ASan/TSan CI jobs turn latent races into failures here.)
TEST_F(SnapshotTest, RatingUpdatesRacingQueriesAreSafe) {
  auto engine = MakeEngine(/*threads=*/3);
  const std::vector<Query> batch = MixedBatch(*engine, 24, 777);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t seed = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(8, seed++)).ok());
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < 8; ++round) {
    for (const auto& r : engine->RecommendBatch(batch)) {
      ASSERT_TRUE(r.ok()) << "round " << round;
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(Generation(*engine), 1u);
}

// Racing publishers: two writers publishing to different shards, a thread
// swapping the affinity source, and a reader pinning sets — the pin-release
// path, the swap and Pin() reuse all contend on the engine's pin lock.
// Every batch must equal a sequential replay on its own pinned set.
TEST_F(SnapshotTest, RacingPublishersSwapsAndPinsStayConsistent) {
  auto engine = MakeEngine(/*threads=*/2, /*shards=*/2);
  const std::vector<Query> batch = MixedBatch(*engine, 12, 909);
  // Events split by owning shard, so each writer publishes its own shard.
  std::vector<RatingEvent> per_shard[2];
  for (const RatingEvent& e : RandomEvents(64, 5)) {
    per_shard[engine->router().ShardOf(e.user)].push_back(e);
  }
  const std::shared_ptr<const AffinitySource> sources[] = {Decayed(1.0),
                                                           Decayed(0.5)};

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&, s] {
      Timestamp ts = 3'000'000'000 + static_cast<Timestamp>(s) * 1'000'000;
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<RatingEvent> events = per_shard[s];
        for (RatingEvent& e : events) e.timestamp = ts++;
        ASSERT_TRUE(engine->ApplyUpdates(events).ok());
      }
    });
  }
  threads.emplace_back([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(engine->UpdateAffinitySource(sources[i++ % 2]).ok());
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < 6; ++round) {
    const auto pinned = engine->Pin();
    const auto results = engine->RecommendBatch(pinned, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ExpectSame(results[i],
                 engine->Recommend(pinned, batch[i].group, batch[i].spec),
                 "round " + std::to_string(round) + " query " +
                     std::to_string(i));
    }
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
}

// A GroupProblem built from a set stays valid after newer generations
// publish (the problem shares ownership of the set it aliases).
TEST_F(SnapshotTest, ProblemOutlivesRetiredGeneration) {
  auto engine = MakeEngine();
  const std::vector<UserId> group = {4, 17, 29};
  QuerySpec spec;
  spec.k = 5;
  spec.num_candidate_items = 400;

  auto pinned = engine->Pin();
  auto problem = engine->BuildProblem(pinned, group, spec);
  ASSERT_TRUE(problem.ok());
  const double score_before = problem.value().ExactScore(0);

  // Retire the generation; drop our own pin. The problem must keep the set
  // (index rows + cached period lists) alive on its own.
  ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(16, 99)).ok());
  pinned.reset();

  EXPECT_EQ(problem.value().ExactScore(0), score_before);
  std::vector<double> affinities = problem.value().ExactPairAffinities();
  EXPECT_EQ(affinities.size(), NumUserPairs(group.size()));
}

// Tombstone cache: the first assembly for a (group, pool) builds the
// group-rated bitmap, repeats on the same set hit (bit-identical recs and
// access counts), a different pool prefix misses again, and a rating update
// makes the next pin a FRESH set whose bitmaps see the new delta log.
TEST_F(SnapshotTest, TombstoneCacheHitsRepeatsAndResetsPerGeneration) {
  auto engine = MakeEngine();
  const auto snap = engine->Pin();
  const TombstoneCache& tombs = snap->tombstone_cache();

  Query query;
  query.group = {4, 17, 29};
  query.spec.k = 5;
  query.spec.num_candidate_items = 400;

  EXPECT_EQ(tombs.hits(), 0u);
  EXPECT_EQ(tombs.misses(), 0u);

  const auto first = engine->Recommend(snap, query.group, query.spec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(tombs.misses(), 1u);
  EXPECT_EQ(tombs.hits(), 0u);
  EXPECT_EQ(tombs.size(), 1u);

  // Identical repeat: the bitmap is served from the memo and nothing about
  // the answer changes — items, scores AND access counts.
  const auto repeat = engine->Recommend(snap, query.group, query.spec);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(tombs.misses(), 1u);
  EXPECT_EQ(tombs.hits(), 1u);
  ExpectSame(repeat, first, "repeat");
  EXPECT_EQ(repeat.value().raw.accesses.sequential,
            first.value().raw.accesses.sequential);
  EXPECT_EQ(repeat.value().raw.accesses.random,
            first.value().raw.accesses.random);

  // A different pool prefix is a different bitmap (keyed by (group, pool)).
  Query narrower = query;
  narrower.spec.num_candidate_items = 100;
  ASSERT_TRUE(engine->Recommend(snap, narrower.group, narrower.spec).ok());
  EXPECT_EQ(tombs.misses(), 2u);
  EXPECT_EQ(tombs.size(), 2u);
  EXPECT_GT(tombs.MemoryBytes(), 0u);

  // Rate the group's current top pick: the next set's FRESH memo must
  // tombstone it (a carried-over bitmap would keep recommending it).
  ASSERT_FALSE(first.value().items.empty());
  const ItemId top = first.value().items[0];
  RatingEvent e;
  e.user = 4;
  e.item = top;
  e.rating = 5.0;
  e.timestamp = 2'000'000'000;
  ASSERT_TRUE(engine->ApplyUpdates({&e, 1}).ok());
  const auto next = engine->Pin();
  EXPECT_EQ(next->tombstone_cache().size(), 0u) << "fresh per generation";
  EXPECT_EQ(next->tombstone_cache().misses(), 0u);
  const auto after = engine->Recommend(next, query.group, query.spec);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(next->tombstone_cache().misses(), 1u);
  for (const ItemId item : after.value().items) {
    EXPECT_NE(item, top) << "newly rated item must be excluded";
  }
}

// The tombstone cache is bounded: a cap of 1 evicts the older group's
// bitmap, the eviction counter records it, and the evicted group still
// answers identically when it misses back in.
TEST_F(SnapshotTest, TombstoneCacheEvictsLeastRecentlyUsedPastCap) {
  ShardedEngineOptions options = Options(/*threads=*/2, /*shards=*/1);
  options.tombstone_cache_max_entries = 1;
  auto engine = std::make_unique<ShardedEngine>(universe_->dataset, *study_,
                                                options);
  const auto snap = engine->Pin();
  const TombstoneCache& tombs = snap->tombstone_cache();

  Query a;
  a.group = {4, 17, 29};
  a.spec.k = 5;
  a.spec.num_candidate_items = 400;
  Query b = a;
  b.group = {3, 11};

  const auto a1 = engine->Recommend(snap, a.group, a.spec);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(engine->Recommend(snap, b.group, b.spec).ok());  // evicts A's
  EXPECT_EQ(tombs.size(), 1u);
  EXPECT_EQ(tombs.evictions(), 1u);

  const auto a2 = engine->Recommend(snap, a.group, a.spec);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(tombs.misses(), 3u);
  EXPECT_EQ(tombs.evictions(), 2u);
  ExpectSame(a2, a1, "a");
}

}  // namespace
}  // namespace greca
