// Equivalence suite for the zero-copy access layer: GRECA, TA and the naive
// scan over tombstone-masked, prefix-sliced ListViews must return exactly the
// top-k sets and access counts the seed's owning-SortedList path returns on
// the same logical problem. Also pins the facade-level guarantees: BuildProblem
// performs no per-query preference-list sort (no SortedList::FromUnsorted),
// and a prefix slice of a large pool behaves like a dedicated small pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/greca.h"
#include "core/group_recommender.h"
#include "shard/sharded_engine.h"
#include "topk/list_view.h"
#include "topk/naive.h"
#include "topk/problem.h"
#include "topk/ta.h"

namespace greca {
namespace {

// One randomized logical problem realized twice: through restricted views
// over full-pool lists (pool keys, dead entries skipped) and through owning
// lists materialized over exactly the live keys (dense keys, seed-style).
struct EquivalenceCase {
  // View-path storage (must outlive view_problem).
  std::vector<SortedList> full_pref;
  std::vector<std::uint64_t> tombstones;
  std::vector<ListView> pref_views;
  SortedList view_static;
  std::vector<SortedList> view_periods;
  std::vector<ListView> period_views;
  SortedList view_agreement;
  std::vector<ListView> agreement_views;

  /// Dense owning key -> pool view key (ascending).
  std::vector<ListKey> live_keys;

  std::optional<GroupProblem> view_problem;
  std::optional<GroupProblem> owning_problem;
};

EquivalenceCase MakeCase(Rng& rng, std::size_t g, std::size_t pool,
                         std::size_t prefix, double tombstone_prob,
                         std::size_t num_periods,
                         const ConsensusSpec& consensus,
                         const AffinityModelSpec& model) {
  EquivalenceCase c;

  // Member scores over the full pool.
  std::vector<std::vector<double>> scores(g, std::vector<double>(pool));
  for (auto& row : scores) {
    for (double& s : row) s = rng.NextDouble();
  }
  for (std::size_t u = 0; u < g; ++u) {
    std::vector<ListEntry> entries;
    entries.reserve(pool);
    for (ListKey key = 0; key < pool; ++key) {
      entries.push_back({key, scores[u][key]});
    }
    c.full_pref.push_back(SortedList::FromUnsorted(
        std::move(entries), static_cast<ListKey>(pool)));
  }

  // Tombstones over the prefix; keep at least one live key.
  c.tombstones.assign((prefix + 63) / 64, 0);
  for (ListKey key = 0; key < prefix; ++key) {
    if (rng.NextBool(tombstone_prob)) {
      c.tombstones[key >> 6] |= 1ull << (key & 63u);
    }
  }
  c.tombstones[0] &= ~1ull;  // key 0 always live
  for (ListKey key = 0; key < prefix; ++key) {
    if (!((c.tombstones[key >> 6] >> (key & 63u)) & 1u)) {
      c.live_keys.push_back(key);
    }
  }
  const std::size_t live = c.live_keys.size();

  for (std::size_t u = 0; u < g; ++u) {
    c.pref_views.emplace_back(c.full_pref[u].keys(), c.full_pref[u].scores(),
                              c.full_pref[u].key_positions(), prefix, live,
                              c.tombstones);
  }

  // Affinity lists (pair-keyed, identical on both paths).
  const auto pairs = static_cast<ListKey>(NumUserPairs(g));
  std::vector<ListEntry> pair_entries;
  for (ListKey q = 0; q < pairs; ++q) {
    pair_entries.push_back({q, rng.NextDouble()});
  }
  c.view_static = SortedList::FromUnsorted(pair_entries, pairs);
  SortedList own_static = c.view_static;

  std::vector<double> averages;
  std::vector<SortedList> own_periods;
  const bool temporal = model.affinity_aware && model.time_aware;
  for (std::size_t t = 0; temporal && t < num_periods; ++t) {
    std::vector<ListEntry> entries;
    for (ListKey q = 0; q < pairs; ++q) {
      entries.push_back({q, rng.NextDouble()});
    }
    c.view_periods.push_back(SortedList::FromUnsorted(entries, pairs));
    own_periods.push_back(c.view_periods.back());
    averages.push_back(rng.NextDouble(0.0, 0.5));
  }
  for (const SortedList& list : c.view_periods) {
    c.period_views.emplace_back(list);
  }

  // Owning preference lists: dense re-key of the live keys, seed-style.
  std::vector<SortedList> own_pref;
  for (std::size_t u = 0; u < g; ++u) {
    std::vector<ListEntry> entries;
    entries.reserve(live);
    for (ListKey dense = 0; dense < live; ++dense) {
      entries.push_back({dense, scores[u][c.live_keys[dense]]});
    }
    own_pref.push_back(SortedList::FromUnsorted(std::move(entries),
                                                static_cast<ListKey>(live)));
  }

  // Aggregated group-agreement list (the facade layout) on both paths.
  std::vector<SortedList> own_agreement;
  const bool pairwise =
      consensus.disagreement == DisagreementKind::kPairwise && g >= 2;
  if (pairwise) {
    std::vector<ListEntry> scratch;
    BuildGroupAgreementListInto(c.pref_views, prefix,
                                consensus.disagreement_scale, scratch,
                                c.view_agreement);
    c.agreement_views.emplace_back(c.view_agreement);
    own_agreement.push_back(BuildGroupAgreementList(
        own_pref, live, consensus.disagreement_scale));
  }

  c.view_problem.emplace(prefix, live, c.pref_views,
                         ListView(c.view_static), c.period_views,
                         AffinityCombiner(model, averages), consensus,
                         c.agreement_views);
  c.owning_problem.emplace(live, std::move(own_pref), std::move(own_static),
                           std::move(own_periods),
                           AffinityCombiner(model, std::move(averages)),
                           consensus, std::move(own_agreement));
  return c;
}

void ExpectEquivalent(const TopKResult& view, const TopKResult& owning,
                      const std::vector<ListKey>& live_keys,
                      const std::string& label) {
  EXPECT_EQ(view.accesses.sequential, owning.accesses.sequential) << label;
  EXPECT_EQ(view.accesses.random, owning.accesses.random) << label;
  EXPECT_EQ(view.total_entries, owning.total_entries) << label;
  EXPECT_EQ(view.rounds, owning.rounds) << label;
  EXPECT_EQ(view.early_terminated, owning.early_terminated) << label;
  ASSERT_EQ(view.items.size(), owning.items.size()) << label;
  for (std::size_t i = 0; i < view.items.size(); ++i) {
    ASSERT_LT(owning.items[i].id, live_keys.size()) << label;
    EXPECT_EQ(view.items[i].id, live_keys[owning.items[i].id])
        << label << " item " << i;
    EXPECT_DOUBLE_EQ(view.items[i].score, owning.items[i].score)
        << label << " item " << i;
  }
}

TEST(ListViewEquivalenceTest, AllAlgorithmsMatchOwningPathOnRandomProblems) {
  Rng rng(20'150'317);
  const ConsensusSpec consensus_menu[] = {
      ConsensusSpec::AveragePreference(), ConsensusSpec::LeastMisery(),
      ConsensusSpec::PairwiseDisagreement(0.6),
      ConsensusSpec::VarianceDisagreement(0.8)};
  const AffinityModelSpec model_menu[] = {
      AffinityModelSpec::Default(), AffinityModelSpec::Continuous(),
      AffinityModelSpec::TimeAgnostic(), AffinityModelSpec::AffinityAgnostic()};

  for (int trial = 0; trial < 60; ++trial) {
    const auto g = static_cast<std::size_t>(rng.NextInt(1, 5));
    const auto pool = static_cast<std::size_t>(rng.NextInt(12, 60));
    const auto prefix = static_cast<std::size_t>(
        rng.NextInt(4, static_cast<std::int64_t>(pool)));
    const double tombstone_prob = rng.NextDouble(0.0, 0.5);
    const auto periods = static_cast<std::size_t>(rng.NextInt(1, 3));
    const ConsensusSpec& consensus = consensus_menu[rng.NextBounded(4)];
    const AffinityModelSpec& model = model_menu[rng.NextBounded(4)];

    EquivalenceCase c = MakeCase(rng, g, pool, prefix, tombstone_prob,
                                 periods, consensus, model);
    const GroupProblem& vp = *c.view_problem;
    const GroupProblem& op = *c.owning_problem;
    const std::size_t k = 1 + rng.NextBounded(5);
    const std::string label = "trial " + std::to_string(trial) + " g=" +
                              std::to_string(g) + " prefix=" +
                              std::to_string(prefix) + " live=" +
                              std::to_string(c.live_keys.size()) + " k=" +
                              std::to_string(k) + " " + consensus.Name() +
                              "/" + model.Name();

    EXPECT_EQ(vp.TotalEntries(), op.TotalEntries()) << label;
    EXPECT_EQ(vp.num_candidates(), op.num_candidates()) << label;

    ExpectEquivalent(NaiveTopK(vp, k), NaiveTopK(op, k), c.live_keys,
                     "naive " + label);
    ExpectEquivalent(TaTopK(vp, k), TaTopK(op, k), c.live_keys, "ta " + label);
    for (const TerminationPolicy policy :
         {TerminationPolicy::kBufferCondition,
          TerminationPolicy::kThresholdOnly}) {
      GrecaConfig config;
      config.k = k;
      config.termination = policy;
      ExpectEquivalent(Greca(vp, config), Greca(op, config), c.live_keys,
                       "greca " + label);
    }
  }
}

TEST(ListViewEquivalenceTest, ExactScoresMatchAcrossPaths) {
  Rng rng(77);
  EquivalenceCase c =
      MakeCase(rng, 3, 30, 20, 0.3, 2, ConsensusSpec::PairwiseDisagreement(0.5),
               AffinityModelSpec::Default());
  for (std::size_t dense = 0; dense < c.live_keys.size(); ++dense) {
    EXPECT_DOUBLE_EQ(c.view_problem->ExactScore(c.live_keys[dense]),
                     c.owning_problem->ExactScore(static_cast<ListKey>(dense)))
        << "dense key " << dense;
  }
}

// ---- Facade-level guarantees --------------------------------------------

class ZeroCopyFacadeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 200;
    uc.num_items = 260;
    uc.target_ratings = 16'000;
    uc.seed = 71;
    universe_ = new SyntheticRatings(GenerateSyntheticRatings(uc));
    FacebookStudyConfig sc;
    sc.diversity_pool = 120;
    study_ = new FacebookStudy(GenerateFacebookStudy(sc, *universe_));
  }
  static void TearDownTestSuite() {
    delete study_;
    delete universe_;
    study_ = nullptr;
    universe_ = nullptr;
  }

  static std::unique_ptr<ShardedEngine> MakeEngine(std::size_t pool) {
    ShardedEngineOptions options;
    options.num_shards = 2;
    options.batch_threads = 1;
    options.max_candidate_items = pool;
    return std::make_unique<ShardedEngine>(universe_->dataset, *study_,
                                           options);
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* ZeroCopyFacadeTest::universe_ = nullptr;
FacebookStudy* ZeroCopyFacadeTest::study_ = nullptr;

TEST_F(ZeroCopyFacadeTest, BuildProblemPerformsNoPreferenceListSort) {
  const auto engine = MakeEngine(220);
  const auto set = engine->Pin();
  const std::vector<UserId> group{1, 4, 9, 16};

  QueryWorkspace workspace;
  for (const ConsensusSpec& consensus :
       {ConsensusSpec::AveragePreference(),
        ConsensusSpec::PairwiseDisagreement(0.5)}) {
    QuerySpec spec;
    spec.k = 5;
    spec.num_candidate_items = 200;
    spec.consensus = consensus;
    // The acceptance hook: zero-copy assembly never calls FromUnsorted —
    // preference lists are index slices and affinity/agreement lists rebuild
    // arena-owned storage in place.
    const std::uint64_t before = SortedList::FromUnsortedCalls();
    const auto with_ws =
        engine->BuildProblem(set, group, spec, nullptr, &workspace);
    ASSERT_TRUE(with_ws.ok());
    EXPECT_EQ(SortedList::FromUnsortedCalls(), before) << consensus.Name();
    // The workspace-less path allocates its own arena but still never sorts
    // a preference list.
    const auto owned = engine->BuildProblem(set, group, spec);
    ASSERT_TRUE(owned.ok());
    EXPECT_EQ(SortedList::FromUnsortedCalls(), before) << consensus.Name();
  }
}

TEST_F(ZeroCopyFacadeTest, PrefixSliceMatchesDedicatedPool) {
  // Querying a 120-item prefix of a 220-item index must behave exactly like
  // an engine whose whole pool is those 120 items.
  const auto big = MakeEngine(220);
  const auto small = MakeEngine(120);

  QuerySpec spec;
  spec.k = 6;
  spec.num_candidate_items = 120;
  const std::vector<std::vector<UserId>> groups = {
      {0, 3, 7}, {2, 5, 11, 19}, {13}};
  for (const std::vector<UserId>& group : groups) {
    const Recommendation sliced = big->Recommend(group, spec).value();
    const Recommendation dedicated = small->Recommend(group, spec).value();
    EXPECT_EQ(sliced.items, dedicated.items);
    EXPECT_EQ(sliced.scores, dedicated.scores);
    EXPECT_EQ(sliced.raw.accesses.sequential,
              dedicated.raw.accesses.sequential);
    EXPECT_EQ(sliced.raw.accesses.random, dedicated.raw.accesses.random);
  }
}

TEST_F(ZeroCopyFacadeTest, WorkspaceProblemViewsStayValidUntilReuse) {
  const auto engine = MakeEngine(180);
  const auto set = engine->Pin();
  QuerySpec spec;
  spec.k = 4;
  spec.num_candidate_items = 150;

  QueryWorkspace workspace;
  const std::vector<UserId> group{2, 6, 10};
  const auto ws_problem =
      engine->BuildProblem(set, group, spec, nullptr, &workspace);
  ASSERT_TRUE(ws_problem.ok());
  const auto owned_problem = engine->BuildProblem(set, group, spec);
  ASSERT_TRUE(owned_problem.ok());
  // Identical problems whether the arena is the workspace's or owned.
  EXPECT_EQ(ws_problem.value().TotalEntries(),
            owned_problem.value().TotalEntries());
  const TopKResult a = NaiveTopK(ws_problem.value(), spec.k);
  const TopKResult b = NaiveTopK(owned_problem.value(), spec.k);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].id, b.items[i].id);
    EXPECT_DOUBLE_EQ(a.items[i].score, b.items[i].score);
  }
}

}  // namespace
}  // namespace greca
