// The formation pipeline round trip (src/groups/formation_pipeline.h):
// sample → cluster → form → RecommendBatch → satisfaction, over a scale
// population served by the sharded engine. The pipeline's contract is
// end-to-end determinism — identical groups, recommendations, and
// satisfaction scores across runs and across the planned / unplanned /
// parallel / serial serving paths — plus the structural invariants of
// formation itself (disjoint groups of the requested size, drawn from
// cohort members only).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "affinity/affinity_source.h"
#include "dataset/synthetic.h"
#include "eval/satisfaction.h"
#include "groups/formation_pipeline.h"
#include "shard/sharded_engine.h"

namespace greca {
namespace {

class FormationPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScaleRatingsConfig sc;
    sc.num_users = 2'000;
    sc.num_items = 400;
    // The generator requires max_ratings_per_user <= num_items (asserted).
    sc.max_ratings_per_user = sc.num_items;
    sc.seed = 33;
    scale_ = new SyntheticRatings(GenerateScaleRatings(sc));
  }
  static void TearDownTestSuite() {
    delete scale_;
    scale_ = nullptr;
  }

  static std::unique_ptr<ShardedEngine> MakeEngine(std::size_t num_shards,
                                                   bool plan_batches,
                                                   std::size_t batch_threads) {
    const RatingGroundTruth& truth = scale_->truth;
    ShardedEngineInputs inputs;
    inputs.ratings = std::shared_ptr<const RatingsDataset>(
        std::shared_ptr<const void>(), &scale_->dataset);
    inputs.affinity = std::make_shared<const ConstantAffinitySource>(
        scale_->dataset.num_users(), /*num_periods=*/1, /*static_value=*/1.0,
        /*periodic_value=*/1.0);
    inputs.predictor = [&truth](UserId u,
                                std::span<const UserRatingEntry> merged,
                                std::span<const ItemId> pool,
                                std::span<Score> out) {
      for (std::size_t k = 0; k < pool.size(); ++k) {
        const ItemId item = pool[k];
        const auto it = std::lower_bound(
            merged.begin(), merged.end(), item,
            [](const UserRatingEntry& e, ItemId i) { return e.item < i; });
        out[k] = (it != merged.end() && it->item == item)
                     ? it->rating
                     : truth.TruePreference(u, item);
      }
    };
    inputs.pool = scale_->dataset.TopPopularItems(96);
    inputs.num_universe_items = scale_->dataset.num_items();
    inputs.num_periods = 1;
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.plan_batches = plan_batches;
    options.batch_threads = batch_threads;
    return std::make_unique<ShardedEngine>(std::move(inputs), options);
  }

  static FormationPipelineConfig Config() {
    FormationPipelineConfig config;
    config.num_groups = 24;
    config.group_size = 4;
    config.candidate_users = 600;
    config.num_clusters = 4;
    config.num_feature_items = 32;
    config.greedy_window = 48;
    config.seed = 77;
    return config;
  }

  static FormationPipeline MakePipeline() {
    // Scale populations carry no social signal; constant affinity makes the
    // affinity-driven strategies degenerate but keeps them deterministic.
    return FormationPipeline(
        scale_->dataset, [](UserId, UserId) { return 1.0; }, Config());
  }

  static QuerySpec Spec() {
    QuerySpec spec;
    spec.k = 8;
    spec.model = AffinityModelSpec::TimeAgnostic();
    spec.num_candidate_items = 96;
    spec.eval_period = 0;
    return spec;
  }

  static SyntheticRatings* scale_;
};

SyntheticRatings* FormationPipelineTest::scale_ = nullptr;

TEST_F(FormationPipelineTest, FormsDisjointGroupsOfRequestedSize) {
  const FormationPipelineConfig config = Config();
  const std::vector<FormedGroup> groups = MakePipeline().FormGroups();
  ASSERT_EQ(groups.size(), config.num_groups);

  std::set<UserId> seen;
  std::set<std::size_t> strategies;
  for (const FormedGroup& g : groups) {
    EXPECT_EQ(g.members.size(), config.group_size);
    for (const UserId u : g.members) {
      EXPECT_LT(u, scale_->dataset.num_users());
      EXPECT_TRUE(seen.insert(u).second)
          << "user " << u << " appears in two groups";
    }
    strategies.insert(static_cast<std::size_t>(g.strategy));
  }
  // The strategy cycle covers all five flavors within 24 groups.
  EXPECT_EQ(strategies.size(), 5u);
}

TEST_F(FormationPipelineTest, FormationIsDeterministicAcrossRuns) {
  const std::vector<FormedGroup> a = MakePipeline().FormGroups();
  const std::vector<FormedGroup> b = MakePipeline().FormGroups();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].members, b[i].members) << "group " << i;
    EXPECT_EQ(a[i].strategy, b[i].strategy) << "group " << i;
    EXPECT_EQ(a[i].cluster, b[i].cluster) << "group " << i;
  }
}

// The full round trip — form → RecommendBatch → satisfaction — reproduces
// identical scores across independent runs and across serving paths
// (planned-parallel vs unplanned-serial engines over the same data).
TEST_F(FormationPipelineTest, RoundTripSatisfactionIsDeterministic) {
  const std::vector<FormedGroup> groups = MakePipeline().FormGroups();
  const std::vector<Query> queries =
      FormationPipeline::MakeQueries(groups, Spec());
  const SatisfactionOracle oracle(scale_->truth);

  const auto planned = MakeEngine(2, /*plan_batches=*/true,
                                  /*batch_threads=*/2);
  const auto unplanned = MakeEngine(2, /*plan_batches=*/false,
                                    /*batch_threads=*/1);

  BatchReport report;
  const auto results = planned->RecommendBatch(queries, &report);
  const FormationScore score =
      ScoreFormedGroups(oracle, groups, results, /*period=*/0);

  EXPECT_EQ(score.groups_failed, 0u);
  EXPECT_EQ(score.groups_scored, groups.size());
  EXPECT_GT(score.mean_satisfaction_pct, 0.0);
  EXPECT_LE(score.max_satisfaction_pct, 100.0);
  EXPECT_GE(score.min_satisfaction_pct, 0.0);
  ASSERT_EQ(score.per_group_pct.size(), groups.size());
  EXPECT_TRUE(report.planned);
  EXPECT_EQ(report.num_queries, queries.size());

  // Second run, fresh everything: bit-identical scores.
  const std::vector<FormedGroup> groups2 = MakePipeline().FormGroups();
  const auto results2 = planned->RecommendBatch(
      FormationPipeline::MakeQueries(groups2, Spec()), nullptr);
  const FormationScore score2 =
      ScoreFormedGroups(oracle, groups2, results2, /*period=*/0);
  EXPECT_EQ(score.per_group_pct, score2.per_group_pct);

  // The unplanned serial engine serves the same lists, so the same scores.
  const auto results3 = unplanned->RecommendBatch(queries, nullptr);
  const FormationScore score3 =
      ScoreFormedGroups(oracle, groups, results3, /*period=*/0);
  EXPECT_EQ(score.per_group_pct, score3.per_group_pct);
}

}  // namespace
}  // namespace greca
