// The sharded engine's load-bearing contract: ShardedEngine(N) over a study
// is BIT-IDENTICAL to ShardedEngine(1) — one shard holding every user —
// built from the same inputs, at N in {2, 4, 7}, under both routing
// strategies, through a randomized stream of live rating batches, with and
// without compactions, and for snapshot sets pinned across publishes. The
// incremental engines must also match fresh engines built over the offline
// fold of the same events. "Bit-identical" covers the full observable
// surface: recommended items, scores, raw top-k access counters
// (sequential/random), rounds, and the per-batch UpdateReport attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "shard/sharded_engine.h"

namespace greca {
namespace {

class ShardedEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 240;
    uc.num_items = 400;
    uc.target_ratings = 18'000;
    uc.seed = 77;
    universe_ = new SyntheticRatings(GenerateSyntheticRatings(uc));
    FacebookStudyConfig sc;
    sc.diversity_pool = 180;
    study_ = new FacebookStudy(GenerateFacebookStudy(sc, *universe_));
  }
  static void TearDownTestSuite() {
    delete study_;
    delete universe_;
    study_ = nullptr;
    universe_ = nullptr;
  }

  static ShardedEngineOptions ShardOptionsFor(std::size_t num_shards,
                                              ShardStrategy strategy) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.strategy = strategy;
    options.max_candidate_items = 360;
    options.compact_delta_fraction = 0.0;  // report parity needs no-compact
    options.batch_threads = 1;
    return options;
  }

  /// The reference: one shard holding every user.
  static std::unique_ptr<ShardedEngine> MakeOneShard() {
    return MakeSharded(1, ShardStrategy::kHash);
  }

  static std::unique_ptr<ShardedEngine> MakeSharded(
      std::size_t num_shards, ShardStrategy strategy,
      const FacebookStudy* study = nullptr) {
    return std::make_unique<ShardedEngine>(
        universe_->dataset, study != nullptr ? *study : *study_,
        ShardOptionsFor(num_shards, strategy));
  }

  /// Every multi-shard configuration checked against the one-shard engine.
  static std::vector<std::pair<std::size_t, ShardStrategy>> Fleet() {
    std::vector<std::pair<std::size_t, ShardStrategy>> fleet;
    for (const ShardStrategy strategy :
         {ShardStrategy::kHash, ShardStrategy::kRange}) {
      for (const std::size_t n : {2u, 4u, 7u}) fleet.emplace_back(n, strategy);
    }
    return fleet;
  }

  static std::string Label(const char* phase, const ShardedEngine& engine,
                           ShardStrategy strategy) {
    return std::string(phase) + " shards " +
           std::to_string(engine.num_shards()) +
           (strategy == ShardStrategy::kHash ? " hash" : " range");
  }

  /// The study with every event folded into its ratings offline.
  static FacebookStudy FoldedStudy(const std::vector<RatingEvent>& events) {
    FacebookStudy folded = *study_;
    std::vector<RatingRecord> records;
    for (UserId u = 0; u < study_->num_participants(); ++u) {
      for (const UserRatingEntry& e : study_->study_ratings.RatingsOfUser(u)) {
        records.push_back({u, e.item, e.rating, e.timestamp});
      }
    }
    for (const RatingEvent& e : events) {
      records.push_back({e.user, e.item, e.rating, e.timestamp});
    }
    folded.study_ratings = RatingsDataset::FromRecords(
        study_->num_participants(), universe_->dataset.num_items(),
        std::move(records));
    return folded;
  }

  /// Deterministic queries across algorithms, models, periods and sizes.
  static std::vector<Query> QueryMix() {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto num_periods =
        static_cast<PeriodId>(study_->periods.num_periods());
    const AffinityModelSpec models[] = {AffinityModelSpec::Default(),
                                        AffinityModelSpec::Continuous(),
                                        AffinityModelSpec::TimeAgnostic()};
    const Algorithm algorithms[] = {Algorithm::kGreca, Algorithm::kNaive,
                                    Algorithm::kTa};
    Rng rng(626);
    std::vector<Query> queries;
    for (std::size_t i = 0; i < 15; ++i) {
      Query q;
      const std::size_t size = 2 + rng.NextBounded(4);
      while (q.group.size() < size) {
        const auto u = static_cast<UserId>(rng.NextBounded(participants));
        if (std::find(q.group.begin(), q.group.end(), u) == q.group.end()) {
          q.group.push_back(u);
        }
      }
      q.spec.k = 4 + i % 5;
      q.spec.model = models[i % 3];
      q.spec.algorithm = algorithms[(i / 3) % 3];
      q.spec.num_candidate_items = 360;
      q.spec.eval_period = static_cast<PeriodId>(i % num_periods);
      queries.push_back(std::move(q));
    }
    return queries;
  }

  static std::vector<RatingEvent> RandomEvents(std::size_t count,
                                               std::uint64_t seed) {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto items = static_cast<ItemId>(universe_->dataset.num_items());
    Rng rng(seed);
    std::vector<RatingEvent> events;
    for (std::size_t i = 0; i < count; ++i) {
      RatingEvent e;
      e.user = static_cast<UserId>(rng.NextBounded(participants));
      e.item = static_cast<ItemId>(rng.NextBounded(items));
      e.rating = static_cast<Score>(1 + rng.NextBounded(5));
      e.timestamp = static_cast<Timestamp>(rng.NextBounded(3'000'000'000));
      events.push_back(e);
    }
    return events;
  }

  static std::vector<Recommendation> RunSharded(
      const ShardedEngine& engine, const std::vector<Query>& mix) {
    std::vector<Recommendation> out;
    const auto set = engine.Pin();
    QueryWorkspace ws;
    for (const Query& q : mix) {
      auto r = engine.Recommend(set, q.group, q.spec, &ws);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(std::move(r.value()));
    }
    return out;
  }

  /// The full observable surface must match, not just the item lists: equal
  /// access counters prove the assembled problems were identical, not merely
  /// that two different problems happened to rank items the same way.
  static void ExpectBitIdentical(const std::vector<Recommendation>& mono,
                                 const std::vector<Recommendation>& sharded,
                                 const std::string& label) {
    ASSERT_EQ(mono.size(), sharded.size());
    for (std::size_t i = 0; i < mono.size(); ++i) {
      const Recommendation& a = mono[i];
      const Recommendation& b = sharded[i];
      EXPECT_EQ(a.items, b.items) << label << " query " << i;
      EXPECT_EQ(a.scores, b.scores) << label << " query " << i;
      EXPECT_EQ(a.raw.accesses.sequential, b.raw.accesses.sequential)
          << label << " query " << i;
      EXPECT_EQ(a.raw.accesses.random, b.raw.accesses.random)
          << label << " query " << i;
      EXPECT_EQ(a.raw.total_entries, b.raw.total_entries)
          << label << " query " << i;
      EXPECT_EQ(a.raw.rounds, b.raw.rounds) << label << " query " << i;
      EXPECT_EQ(a.raw.early_terminated, b.raw.early_terminated)
          << label << " query " << i;
    }
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* ShardedEquivalenceTest::universe_ = nullptr;
FacebookStudy* ShardedEquivalenceTest::study_ = nullptr;

// --- Router invariants ------------------------------------------------------

TEST(ShardRouterTest, PartitionCoversEveryUserExactlyOnce) {
  for (const ShardStrategy strategy :
       {ShardStrategy::kHash, ShardStrategy::kRange}) {
    for (const std::size_t n : {1u, 2u, 4u, 7u}) {
      const ShardRouter router(n, 523, strategy);
      const auto owned = router.PartitionUsers();
      ASSERT_EQ(owned.size(), n);
      std::vector<bool> seen(523, false);
      for (std::size_t s = 0; s < n; ++s) {
        ASSERT_TRUE(std::is_sorted(owned[s].begin(), owned[s].end()));
        for (const UserId u : owned[s]) {
          EXPECT_EQ(router.ShardOf(u), s);
          EXPECT_FALSE(seen[u]) << "user " << u << " owned twice";
          seen[u] = true;
        }
      }
      EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                              [](bool b) { return b; }));
    }
  }
}

TEST(ShardRouterTest, RangeStrategyKeepsNeighborsTogether) {
  const ShardRouter router(4, 1000, ShardStrategy::kRange);
  EXPECT_EQ(router.ShardOf(0), 0u);
  EXPECT_EQ(router.ShardOf(249), 0u);
  EXPECT_EQ(router.ShardOf(250), 1u);
  EXPECT_EQ(router.ShardOf(999), 3u);
}

// --- The tentpole: bit-identity at every shard count ------------------------

TEST_F(ShardedEquivalenceTest, FreshEnginesAreBitIdentical) {
  const auto one = MakeOneShard();
  const std::vector<Query> mix = QueryMix();
  const auto baseline = RunSharded(*one, mix);

  for (const auto& [n, strategy] : Fleet()) {
    const auto sharded = MakeSharded(n, strategy);
    EXPECT_EQ(sharded->num_shards(), n);
    ExpectBitIdentical(baseline, RunSharded(*sharded, mix),
                       Label("fresh", *sharded, strategy));
  }
}

// A randomized update stream applied to the one-shard engine and to
// ShardedEngine(N in {2, 4, 7}, hash and range) must keep recommendations
// bit-identical after EVERY batch, and the summed per-shard attribution must
// equal the one-shard report exactly (the event partition is by user, so
// applied / stale / users_rebuilt totals cannot differ). At the end, every
// incrementally published engine must equal a fresh engine of the same
// shape built over the offline fold of the whole stream.
TEST_F(ShardedEquivalenceTest, RandomizedUpdateStreamEquivalence) {
  const auto one = MakeOneShard();
  std::vector<std::unique_ptr<ShardedEngine>> fleet;
  std::vector<ShardStrategy> strategies;
  for (const auto& [n, strategy] : Fleet()) {
    fleet.push_back(MakeSharded(n, strategy));
    strategies.push_back(strategy);
  }
  const std::vector<Query> mix = QueryMix();

  std::vector<RatingEvent> all_events;
  for (std::uint64_t batch = 0; batch < 6; ++batch) {
    const std::vector<RatingEvent> events = RandomEvents(20, 1'700 + batch);
    all_events.insert(all_events.end(), events.begin(), events.end());

    ShardedUpdateReport one_sharded;
    ASSERT_TRUE(one->ApplyUpdates(events, &one_sharded).ok());
    const UpdateReport& one_report = one_sharded.total;
    const auto baseline = RunSharded(*one, mix);

    for (std::size_t f = 0; f < fleet.size(); ++f) {
      const ShardedEngine& sharded = *fleet[f];
      const std::string label =
          Label("post-update", sharded, strategies[f]) + " batch " +
          std::to_string(batch);
      ShardedUpdateReport report;
      ASSERT_TRUE(fleet[f]->ApplyUpdates(events, &report).ok());

      EXPECT_EQ(report.total.events_applied, one_report.events_applied)
          << label;
      EXPECT_EQ(report.total.events_ignored_stale,
                one_report.events_ignored_stale)
          << label;
      EXPECT_EQ(report.total.users_rebuilt, one_report.users_rebuilt)
          << label;
      EXPECT_EQ(report.total.delta_log_ratings, one_report.delta_log_ratings)
          << label;
      EXPECT_FALSE(report.total.compacted);
      EXPECT_EQ(report.total.events_applied +
                    report.total.events_ignored_stale,
                events.size());

      // Per-shard attribution is internally consistent: the totals are
      // sums over exactly the touched shards.
      std::size_t applied = 0, stale = 0, rebuilt = 0, touched = 0;
      ASSERT_EQ(report.per_shard.size(), sharded.num_shards());
      for (const UpdateReport& r : report.per_shard) {
        applied += r.events_applied;
        stale += r.events_ignored_stale;
        rebuilt += r.users_rebuilt;
        if (r.events_applied + r.events_ignored_stale > 0) ++touched;
      }
      EXPECT_EQ(applied, report.total.events_applied);
      EXPECT_EQ(stale, report.total.events_ignored_stale);
      EXPECT_EQ(rebuilt, report.total.users_rebuilt);
      EXPECT_LE(touched, report.shards_touched);
      EXPECT_GE(report.shards_touched, 1u);
      EXPECT_LE(report.shards_touched, sharded.num_shards());

      ExpectBitIdentical(baseline, RunSharded(sharded, mix), label);
    }
  }

  const FacebookStudy folded = FoldedStudy(all_events);
  ExpectBitIdentical(RunSharded(*MakeSharded(1, ShardStrategy::kHash, &folded),
                                mix),
                     RunSharded(*one, mix), "one-shard incremental-vs-fresh");
  for (std::size_t f = 0; f < fleet.size(); ++f) {
    const auto fresh =
        MakeSharded(fleet[f]->num_shards(), strategies[f], &folded);
    ExpectBitIdentical(RunSharded(*fresh, mix), RunSharded(*fleet[f], mix),
                       Label("incremental-vs-fresh", *fleet[f], strategies[f]));
  }
}

// Compaction is a per-shard policy triggering at per-shard cadences that
// can never line up with the one-shard engine's — and must still be
// unobservable in the recommendations.
TEST_F(ShardedEquivalenceTest, CompactionIsUnobservableAcrossShardCounts) {
  const auto one = MakeOneShard();  // never compacts
  ShardedEngineOptions copts = ShardOptionsFor(4, ShardStrategy::kHash);
  copts.compact_every_n_publishes = 2;  // aggressive per-shard cadence
  const auto sharded =
      std::make_unique<ShardedEngine>(universe_->dataset, *study_, copts);
  const std::vector<Query> mix = QueryMix();

  bool saw_compaction = false;
  for (std::uint64_t batch = 0; batch < 6; ++batch) {
    const std::vector<RatingEvent> events = RandomEvents(24, 2'900 + batch);
    ASSERT_TRUE(one->ApplyUpdates(events).ok());
    ShardedUpdateReport report;
    ASSERT_TRUE(sharded->ApplyUpdates(events, &report).ok());
    saw_compaction = saw_compaction || report.total.compacted;
    ExpectBitIdentical(RunSharded(*one, mix), RunSharded(*sharded, mix),
                       "compacting-shards");
  }
  EXPECT_TRUE(saw_compaction) << "the cadence never fired; test is vacuous";
}

// A pinned ShardedSnapshotSet is a cross-shard fence: publishes landing
// after the pin must not perturb it, and it must keep answering exactly
// like the one-shard set pinned at the same instant.
TEST_F(ShardedEquivalenceTest, PinnedSetSurvivesConcurrentPublishes) {
  const auto one = MakeOneShard();
  const auto sharded = MakeSharded(4, ShardStrategy::kHash);
  const std::vector<Query> mix = QueryMix();

  const auto one_pin = one->Pin();
  const auto shard_pin = sharded->Pin();
  const auto run_on = [&mix](const ShardedEngine& engine,
                             const std::shared_ptr<const ShardedSnapshotSet>&
                                 set) {
    std::vector<Recommendation> out;
    QueryWorkspace ws;
    for (const Query& q : mix) {
      auto r = engine.Recommend(set, q.group, q.spec, &ws);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(std::move(r.value()));
    }
    return out;
  };
  const std::vector<Recommendation> before = run_on(*sharded, shard_pin);

  for (std::uint64_t batch = 0; batch < 3; ++batch) {
    const std::vector<RatingEvent> events = RandomEvents(24, 5'100 + batch);
    ASSERT_TRUE(one->ApplyUpdates(events).ok());
    ShardedUpdateReport report;
    ASSERT_TRUE(sharded->ApplyUpdates(events, &report).ok());
    EXPECT_GE(report.shards_touched, 1u);
  }

  // The retired generations replay bit-identically...
  const std::vector<Recommendation> replay = run_on(*sharded, shard_pin);
  ExpectBitIdentical(before, replay, "pinned-replay");
  // ...still matching the one-shard set pinned at the same instant...
  ExpectBitIdentical(run_on(*one, one_pin), replay, "pinned-vs-one-shard-pin");
  // ...while fresh pins see the post-update world, also identically.
  ExpectBitIdentical(RunSharded(*one, mix), RunSharded(*sharded, mix),
                     "fresh-after-pin");
}

// Validation is all-or-nothing at every shard count with identical
// statuses: one bad event anywhere must leave every shard untouched.
TEST_F(ShardedEquivalenceTest, ValidationParityAndAtomicity) {
  const auto one = MakeOneShard();
  const auto sharded = MakeSharded(4, ShardStrategy::kHash);

  const auto participants = static_cast<UserId>(study_->num_participants());
  const auto items = static_cast<ItemId>(universe_->dataset.num_items());
  std::vector<RatingEvent> bad_user = {{5, 7, 4.0, 100},
                                       {participants, 7, 4.0, 100}};
  std::vector<RatingEvent> bad_item = {{5, 7, 4.0, 100},
                                       {6, items, 4.0, 100}};
  std::vector<RatingEvent> bad_rating = {
      {5, 7, std::numeric_limits<Score>::quiet_NaN(), 100}};

  for (const auto& batch : {bad_user, bad_item, bad_rating}) {
    const Status os = one->ApplyUpdates(batch);
    ShardedUpdateReport report;
    const Status ss = sharded->ApplyUpdates(batch, &report);
    EXPECT_FALSE(os.ok());
    EXPECT_FALSE(ss.ok());
    EXPECT_EQ(os.code(), ss.code());
    EXPECT_EQ(os.message(), ss.message());
  }
  // Nothing was applied anywhere: every shard still serves generation 1.
  const auto set = sharded->Pin();
  for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
    EXPECT_EQ(set->shard(s).generation, 1u);
    EXPECT_EQ(set->shard(s).ratings->delta_ratings(), 0u);
  }

  // Query validation parity: same statuses for the same bad queries.
  const std::vector<UserId> good_group = {1, 2, 3};
  QuerySpec spec;
  spec.num_candidate_items = 360;
  Query q;
  q.group = good_group;
  q.spec = spec;
  const auto expect_parity = [&](const char* what) {
    const Status os = one->Recommend(q.group, q.spec).status();
    const Status ss = sharded->ValidateQuery(q.group, q.spec);
    EXPECT_FALSE(os.ok()) << what;
    EXPECT_EQ(os.code(), ss.code()) << what;
    EXPECT_EQ(os.message(), ss.message()) << what;
  };

  q.group = {};
  expect_parity("empty group");
  q.group = {1, 1};
  expect_parity("duplicate member");
  q.group = {1, participants};
  expect_parity("unknown member");
  q.group = good_group;
  q.spec.k = 0;
  expect_parity("k = 0");
  q.spec = spec;
  q.spec.eval_period = static_cast<PeriodId>(study_->periods.num_periods());
  expect_parity("period out of range");
}

TEST_F(ShardedEquivalenceTest, ShardsTouchedMatchesRouterPlacement) {
  const auto sharded = MakeSharded(4, ShardStrategy::kRange);
  const auto& router = sharded->router();
  // Users from one kRange block touch exactly one shard.
  const std::vector<UserId> local = {0, 1, 2};
  EXPECT_EQ(sharded->ShardsTouched(local), 1u);
  // One member per block touches all four.
  const std::size_t block =
      (router.num_users() + 3) / 4;  // kRange block width
  std::vector<UserId> scattered;
  for (std::size_t s = 0; s < 4; ++s) {
    scattered.push_back(static_cast<UserId>(s * block));
  }
  EXPECT_EQ(sharded->ShardsTouched(scattered), 4u);
}

// Concurrent writers + readers on one ShardedEngine. Pinned-set queries must
// stay bit-stable however many publishes land around them, and every report
// must attribute its batch exactly. The TSan CI job runs this against the
// real races (snapshot swaps, group-commit handoff, scatter/gather reads).
TEST_F(ShardedEquivalenceTest, ConcurrentWritersAndPinnedReaders) {
  const auto sharded = MakeSharded(4, ShardStrategy::kHash);
  const std::vector<Query> mix = QueryMix();
  constexpr std::size_t kWriters = 2;
  constexpr std::size_t kBatches = 5;
  constexpr std::size_t kEvents = 12;

  // Globally unique timestamps make the final fold order-independent.
  const auto writer_events = [](std::size_t t, std::size_t b) {
    std::vector<RatingEvent> events =
        RandomEvents(kEvents, 7'000 + t * kBatches + b);
    for (std::size_t i = 0; i < events.size(); ++i) {
      events[i].timestamp = static_cast<Timestamp>(
          3'000'000'000 + ((t * kBatches + b) * kEvents + i));
    }
    return events;
  };

  const auto pinned = sharded->Pin();
  const auto before = RunSharded(*sharded, mix);

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t b = 0; b < kBatches; ++b) {
        ShardedUpdateReport report;
        EXPECT_TRUE(sharded->ApplyUpdates(writer_events(t, b), &report).ok());
        EXPECT_EQ(report.total.events_applied +
                      report.total.events_ignored_stale,
                  kEvents);
      }
    });
  }
  workers.emplace_back([&] {
    QueryWorkspace ws;
    for (std::size_t round = 0; round < 4; ++round) {
      // The pre-update pin answers identically mid-publish...
      for (std::size_t i = 0; i < mix.size(); ++i) {
        auto r = sharded->Recommend(pinned, mix[i].group, mix[i].spec, &ws);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().items, before[i].items) << "round " << round;
        EXPECT_EQ(r.value().scores, before[i].scores) << "round " << round;
      }
      // ...while fresh pins serve whatever generation mix is current.
      for (const Query& q : mix) {
        auto r = sharded->Recommend(q.group, q.spec, &ws);
        ASSERT_TRUE(r.ok());
        EXPECT_FALSE(r.value().items.empty());
      }
    }
  });
  for (auto& w : workers) w.join();

  // Post-join determinism check: the same events through a one-shard engine
  // (any application order — timestamps are unique) give the final state's
  // recommendations.
  const auto one = MakeOneShard();
  std::vector<RatingEvent> all;
  for (std::size_t t = 0; t < kWriters; ++t) {
    for (std::size_t b = 0; b < kBatches; ++b) {
      const std::vector<RatingEvent> events = writer_events(t, b);
      all.insert(all.end(), events.begin(), events.end());
    }
  }
  ASSERT_TRUE(one->ApplyUpdates(all).ok());
  ExpectBitIdentical(RunSharded(*one, mix), RunSharded(*sharded, mix),
                     "post-concurrency");
}

}  // namespace
}  // namespace greca
