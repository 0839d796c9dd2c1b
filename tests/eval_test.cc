// Tests for the evaluation subsystem: satisfaction oracle, study groups and
// the experiment harnesses.
#include <gtest/gtest.h>

#include <numeric>

#include "eval/experiments.h"
#include "eval/satisfaction.h"
#include "eval/study_groups.h"
#include "shard/sharded_engine.h"

namespace greca {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 300;
    uc.num_items = 400;
    uc.target_ratings = 25'000;
    uc.seed = 21;
    universe_ = new SyntheticRatings(GenerateSyntheticRatings(uc));

    FacebookStudyConfig sc;
    sc.diversity_pool = 200;
    study_ = new FacebookStudy(GenerateFacebookStudy(sc, *universe_));

    ShardedEngineOptions options;
    options.num_shards = 2;
    options.max_candidate_items = 300;
    options.batch_threads = 1;
    engine_ = new ShardedEngine(universe_->dataset, *study_, options);

    oracle_ = new SatisfactionOracle(universe_->truth, study_->like_truth,
                                     study_->universe_user, OracleWeights{});
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete engine_;
    delete study_;
    delete universe_;
    oracle_ = nullptr;
    engine_ = nullptr;
    study_ = nullptr;
    universe_ = nullptr;
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
  static std::vector<StudyGroup> StudyGroups() {
    return FormStudyGroups(*study_, engine_->affinity());
  }

  static ShardedEngine* engine_;
  static SatisfactionOracle* oracle_;
};

SyntheticRatings* EvalTest::universe_ = nullptr;
FacebookStudy* EvalTest::study_ = nullptr;
ShardedEngine* EvalTest::engine_ = nullptr;
SatisfactionOracle* EvalTest::oracle_ = nullptr;

TEST_F(EvalTest, ItemSatisfactionInUnitInterval) {
  const Group group{0, 1, 2};
  for (ItemId i = 0; i < 50; ++i) {
    const double s = oracle_->ItemSatisfaction(0, group, i, 0);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(EvalTest, SingletonGroupUsesOwnPreferenceOnly) {
  const Group solo{3};
  const double s = oracle_->ItemSatisfaction(3, solo, 10, 0);
  const double tp =
      (universe_->truth.TruePreference(study_->universe_user[3], 10) - 1.0) /
      4.0;
  EXPECT_NEAR(s, tp, 1e-12);
}

TEST_F(EvalTest, GroupSatisfactionPercentScales) {
  const Group group{0, 1, 2, 3};
  const std::vector<ItemId> list{0, 1, 2, 3, 4};
  const double pct = oracle_->GroupSatisfactionPercent(group, list, 0);
  EXPECT_GE(pct, 0.0);
  EXPECT_LE(pct, 100.0);
}

TEST_F(EvalTest, PreferenceShareIsComplementary) {
  const Group group{0, 1, 2, 4, 5};
  const std::vector<ItemId> l1{0, 1, 2};
  const std::vector<ItemId> l2{10, 11, 12};
  const auto last = static_cast<PeriodId>(engine_->num_periods() - 1);
  const double p12 = oracle_->PreferenceSharePercent(group, l1, l2, last);
  const double p21 = oracle_->PreferenceSharePercent(group, l2, l1, last);
  EXPECT_NEAR(p12 + p21, 100.0, 1e-9);
  // Identical lists tie exactly.
  EXPECT_NEAR(oracle_->PreferenceSharePercent(group, l1, l1, last), 50.0,
              1e-9);
}

TEST_F(EvalTest, VoteSharesSumToHundred) {
  const Group group{0, 1, 2, 3, 4, 5};
  const std::vector<std::vector<ItemId>> lists{
      {0, 1, 2}, {5, 6, 7}, {10, 11, 12}};
  const auto shares = oracle_->VoteShares(group, lists, 0);
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 100.0,
              1e-9);
}

TEST_F(EvalTest, StudyGroupsCoverAllCombinations) {
  const auto groups = StudyGroups();
  ASSERT_EQ(groups.size(), 8u);
  std::size_t small = 0, similar = 0, high = 0;
  for (const StudyGroup& g : groups) {
    EXPECT_EQ(g.members.size(), g.spec.size);
    small += g.spec.size == 3;
    similar += g.spec.similar;
    high += g.spec.high_affinity;
  }
  EXPECT_EQ(small, 4u);
  EXPECT_EQ(similar, 4u);
  EXPECT_EQ(high, 4u);
}

TEST_F(EvalTest, StudyGroupsRespectFormationObjectives) {
  const auto groups = StudyGroups();
  // Aggregate over matched pairs of specs: similar >= dissimilar cohesion,
  // high-affinity >= low-affinity weakest link.
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (std::size_t j = 0; j < groups.size(); ++j) {
      const auto& a = groups[i];
      const auto& b = groups[j];
      if (a.spec.size == b.spec.size &&
          a.spec.high_affinity == b.spec.high_affinity && a.spec.similar &&
          !b.spec.similar) {
        EXPECT_GE(a.sum_similarity, b.sum_similarity)
            << "size " << a.spec.size;
      }
      if (a.spec.size == b.spec.size && a.spec.similar == b.spec.similar &&
          a.spec.high_affinity && !b.spec.high_affinity) {
        EXPECT_GE(a.min_affinity, b.min_affinity) << "size " << a.spec.size;
      }
    }
  }
}

TEST_F(EvalTest, CharacteristicBucketsPartitionPairs) {
  const StudyGroupSpec spec{3, true, false};
  EXPECT_TRUE(HasCharacteristic(spec, GroupCharacteristic::kSim));
  EXPECT_FALSE(HasCharacteristic(spec, GroupCharacteristic::kDiss));
  EXPECT_TRUE(HasCharacteristic(spec, GroupCharacteristic::kSmall));
  EXPECT_TRUE(HasCharacteristic(spec, GroupCharacteristic::kLowAff));
  EXPECT_EQ(AllCharacteristics().size(), kNumCharacteristics);
  EXPECT_EQ(CharacteristicName(GroupCharacteristic::kHighAff), "High Aff");
}

TEST_F(EvalTest, QualityHarnessProducesBuckets) {
  QualityHarness harness(*engine_, *oracle_,
                         StudyGroups(), /*k=*/5);
  const auto scores = harness.IndependentEval(RecommendationVariant::Default());
  ASSERT_EQ(scores.size(), kNumCharacteristics);
  for (const double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 100.0);
  }
}

TEST_F(EvalTest, ComparativeEvalAgainstSelfIsFifty) {
  QualityHarness harness(*engine_, *oracle_,
                         StudyGroups(), 5);
  const auto shares = harness.ComparativeEval(
      RecommendationVariant::Default(), RecommendationVariant::Default());
  for (const double s : shares) EXPECT_NEAR(s, 50.0, 1e-9);
}

TEST_F(EvalTest, PerformanceHarnessMeasuresSaveup) {
  PerformanceHarness perf(*engine_, 77);
  QuerySpec spec = PerformanceHarness::DefaultSpec();
  spec.num_candidate_items = 300;
  spec.k = 5;
  const auto m = perf.MeasureRandomGroups(spec, 4, 5);
  EXPECT_GT(m.mean_sa_percent, 0.0);
  EXPECT_LE(m.mean_sa_percent, 100.0);
  EXPECT_NEAR(m.mean_sa_percent + m.mean_saveup_percent, 100.0, 1e-9);
  EXPECT_GT(m.mean_rounds, 0.0);
}

TEST_F(EvalTest, RandomGroupsDeterministicAndValid) {
  PerformanceHarness perf(*engine_, 123);
  const auto a = perf.RandomGroups(5, 6);
  const auto b = perf.RandomGroups(5, 6);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a, b);
  for (const Group& g : a) {
    EXPECT_EQ(g.size(), 6u);
    for (const UserId u : g) EXPECT_LT(u, study_->num_participants());
  }
}

}  // namespace
}  // namespace greca
